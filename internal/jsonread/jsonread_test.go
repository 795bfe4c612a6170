package jsonread

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestNumberMatchesParseFloat holds number — the exact fast path and the
// strconv fallback — to strconv.ParseFloat bitwise, over literals at the
// fast path's limits (2^53, 16 significant digits, 10^±22) and seeded
// random ones on both sides of them.
func TestNumberMatchesParseFloat(t *testing.T) {
	lits := []string{
		"0", "-0", "0.0", "-0.0e5", "0e400", "1", "-1", "0.1", "0.3", "1E+2", "1e-0",
		"9007199254740992", "9007199254740993", "-9007199254740993", "9007199254740991.5",
		"1234567890123456", "12345678901234567", "123456789012345678", "0.1234567890123456",
		"1e22", "1e23", "4.5e22", "1.5e-22", "1.5e-23", "0.000001234", "1000000000000000000000",
		"0.00000000000000000000000001", "100000000000000000000000",
		"1.7976931348623157e308", "1.7976931348623159e308", "4.9e-324", "5e-324", "2e-324",
		"2.2250738585072014e-308", "1e-400", "1e400", "-1e400", "1e99999999999999999999",
	}
	rng := rand.New(rand.NewSource(1))
	digits := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		return b.String()
	}
	for i := 0; i < 100000; i++ {
		lit := strconv.Itoa(1+rng.Intn(9)) + digits(rng.Intn(20))
		if rng.Intn(4) == 0 {
			lit = "0"
		}
		if rng.Intn(2) == 0 {
			lit += "." + digits(1+rng.Intn(20))
		}
		if rng.Intn(2) == 0 {
			lit += "e" + strconv.Itoa(rng.Intn(61)-30)
		}
		if rng.Intn(2) == 0 {
			lit = "-" + lit
		}
		lits = append(lits, lit)
		x := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			lits = append(lits, strconv.FormatFloat(x, 'g', -1, 64), strconv.FormatFloat(x, 'e', rng.Intn(18), 64))
		}
		lits = append(lits, strconv.FormatFloat(1+9*rng.Float64(), 'g', -1, 64))
	}
	for _, lit := range lits {
		want, wantErr := strconv.ParseFloat(lit, 64)
		d := NewDecoder([]byte(lit))
		got, err := d.number()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, strconv.ParseFloat error %v", lit, err, wantErr)
		}
		if err == nil && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: got %v (%#x), strconv.ParseFloat gives %v (%#x)", lit, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if d.pos != len(lit) {
			t.Fatalf("%s: consumed %d of %d bytes", lit, d.pos, len(lit))
		}
	}
}
