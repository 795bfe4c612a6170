package repro_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestSessionParetoGolden pins Session.Pareto's heuristic front — the
// annealing archive above the exact budget — bitwise, for the default
// seed and for WithSeed(7): every point's metrics and mapping feed one
// SHA-256.
func TestSessionParetoGolden(t *testing.T) {
	inst := workload.Random(rand.New(rand.NewSource(11)), platform.FullyHeterogeneous, 5, 10)
	if n := core.EstimateMappingCount(5, 10); n <= 5e6 {
		t.Fatalf("instance estimates %g mappings, want it above the default exact budget", n)
	}
	for _, c := range []struct {
		name string
		opts []repro.SessionOption
		want string
	}{
		{"default", nil, "63a776ea7785d34b84698f375cfacda6bf3bd48c7da9e84593dbdc237ff1322f"},
		{"seed7", []repro.SessionOption{repro.WithSeed(7)}, "7ea1a08575aebea85542e88c52593d5d21b5af2fad5e9684d7a240007edca663"},
	} {
		s, err := repro.NewSession(inst.Pipeline, inst.Platform, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		front, cert, err := s.Pareto(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if cert != repro.Heuristic {
			t.Fatalf("%s: front graded %v, want Heuristic", c.name, cert)
		}
		h := sha256.New()
		for _, e := range front.Entries() {
			_ = binary.Write(h, binary.LittleEndian, []uint64{math.Float64bits(e.Metrics.Latency), math.Float64bits(e.Metrics.FailureProb)})
			mj, err := json.Marshal(e.Mapping)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(mj)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: front of %d points hashes to %s, want %s", c.name, front.Len(), got, c.want)
		}
	}
}
