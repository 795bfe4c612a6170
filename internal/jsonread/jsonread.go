// Package jsonread decodes the wire formats of the model types and the
// service's request envelopes in one pass over the document, with no
// reflection and no separate validation pass. A caller walks its own
// schema with the Decoder's readers, each of which reads the value at the
// current position: objects (Object, matched against a key list), arrays
// of any element (Array), arrays of numbers (Floats) and arrays of such
// arrays (Matrix), strings, and float64 and int64 numbers; End
// then requires that nothing but whitespace follows the top-level value.
// Each number is checked against the JSON number grammar and converted in
// the same scan when its decimal form is exact in float64 arithmetic, else
// by strconv.ParseFloat; either way the value is the correctly rounded
// one.
//
// For every input it accepts and rejects exactly what encoding/json does
// when it decodes the same bytes into Go values of the matching types, and
// it produces equal values:
//
//   - member keys are unescaped and matched case-insensitively, as
//     bytes.EqualFold matches them (so the Kelvin sign matches "k" and the
//     long s matches "s");
//   - members with unknown keys are skipped, but their values must still
//     be valid JSON, nested at most 10000 levels deep;
//   - a value of the wrong type, such as a string for a number, is an
//     error;
//   - null leaves a string or number as it was and yields a nil
//     slice; a null element of a number array leaves its slot as it was —
//     zero, unless an earlier member with the same key wrote it;
//   - a repeated key decodes again over what the earlier member left:
//     a slice decodes over its backing array, as encoding/json does, so
//     the last member wins except where null elements read the earlier
//     one's values;
//   - strings unquote as encoding/json unquotes them: escaped surrogates
//     that do not pair, and bytes that are not UTF-8, become U+FFFD;
//   - integers reject fractions, exponents and values out of range, and a
//     number out of float64 range, such as 1e400, is an error.
//
// Differential fuzz tests in the model packages and in serve hold the
// decoder to encoding/json on arbitrary bytes.
package jsonread

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit; the top-level value counts
// as the first level.
const maxDepth = 10000

// nullMark stands for a null element in the number scratch buffer: a JSON
// number never parses to NaN, so the mark cannot collide with a value.
var nullMark = math.NaN()

// Decoder reads one JSON document. It is not safe for concurrent use,
// and after a reader returns an error it must not be used again.
type Decoder struct {
	data  []byte
	pos   int
	depth int       // containers open around the current position
	vals  []float64 // number scratch, reused by every array
	key   []byte    // unescaped-key scratch
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// End reports an error unless only whitespace follows the value read last.
func (d *Decoder) End() error {
	if d.next(); d.pos != len(d.data) {
		return d.errAt("after top-level value")
	}
	return nil
}

// Null consumes a null at the current position and reports whether there
// was one.
func (d *Decoder) Null() bool {
	if d.next() == 'n' && bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		d.pos += len("null")
		return true
	}
	return false
}

// Object decodes the object at the current position, or null (which has
// no members). For each member whose key matches names[i] it calls
// field(i), which must consume the member's value with one of the
// Decoder's readers; other members are validated and skipped.
func (d *Decoder) Object(names []string, field func(i int) error) error {
	switch d.next() {
	case 'n':
		return d.literal("null")
	case '{':
		d.pos++
		d.depth++
		err := d.members(names, field)
		d.depth--
		return err
	}
	return d.errAt("looking for an object")
}

func (d *Decoder) members(names []string, field func(i int) error) error {
	c := d.next()
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		if c != '"' {
			return d.errAt("looking for an object key")
		}
		key, escaped, err := d.str()
		if err != nil {
			return err
		}
		if escaped {
			d.key = unescapeString(d.key[:0], key)
			key = d.key
		}
		if err := d.colon(); err != nil {
			return err
		}
		idx := -1
		for i, name := range names {
			if bytes.EqualFold(key, []byte(name)) {
				idx = i
				break
			}
		}
		if idx >= 0 {
			err = field(idx)
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
			c = d.next()
		case '}':
			d.pos++
			return nil
		default:
			return d.errAt("after object member")
		}
	}
}

// Floats decodes an array of numbers, or null, over prev — the slice an
// earlier member with the same key left, nil for the first — the way
// encoding/json decodes into a []float64 field. A result may keep spare
// capacity only when prev had it; Exact trims it.
func (d *Decoder) Floats(prev []float64) ([]float64, error) {
	switch d.next() {
	case 'n':
		return nil, d.literal("null")
	case '[':
		d.pos++
	default:
		return nil, d.errAt("looking for an array of numbers")
	}
	if d.next() == ']' {
		d.pos++
		return []float64{}, nil
	}
	vals := d.vals[:0]
	for {
		if d.next() == 'n' {
			if err := d.literal("null"); err != nil {
				return nil, err
			}
			vals = append(vals, nullMark)
		} else {
			x, err := d.number()
			if err != nil {
				return nil, err
			}
			vals = append(vals, x)
		}
		switch d.next() {
		case ',':
			d.pos++
			continue
		case ']':
			d.pos++
		default:
			return nil, d.errAt("after array element")
		}
		break
	}
	d.vals = vals
	return overlay(prev, vals), nil
}

// overlay writes vals over prev's backing array as encoding/json's slice
// decoding does: elements past len(vals) stay in the backing array (a
// later repeat of the key can read them back through null elements), and
// a null element keeps the value beneath it.
func overlay(prev, vals []float64) []float64 {
	old := prev[:cap(prev)]
	out := make([]float64, max(len(vals), len(old)))
	if len(old) > len(vals) {
		copy(out[len(vals):], old[len(vals):])
	}
	for i, x := range vals {
		if x != x {
			x = 0
			if i < len(old) {
				x = old[i]
			}
		}
		out[i] = x
	}
	return out[:len(vals)]
}

// Array decodes the array at the current position, or null, over prev —
// the slice an earlier member with the same key left, nil for the first —
// the way encoding/json decodes into a slice: elem decodes element i over
// the value prev's backing array holds at i (the zero value past its
// capacity), and must consume exactly one value. [] yields an empty slice
// that drops prev's backing array, and null a nil slice. prev itself is
// never written.
func Array[T any](d *Decoder, prev []T, elem func(*T) error) ([]T, error) {
	switch d.next() {
	case 'n':
		return nil, d.literal("null")
	case '[':
		d.pos++
	default:
		return nil, d.errAt("looking for an array")
	}
	if d.next() == ']' {
		d.pos++
		return []T{}, nil
	}
	d.depth++
	out := append([]T(nil), prev[:cap(prev)]...)
	n := 0
	for {
		if n == len(out) {
			var zero T
			out = append(out, zero)
		}
		if err := elem(&out[n]); err != nil {
			return nil, err
		}
		n++
		switch d.next() {
		case ',':
			d.pos++
			continue
		case ']':
			d.pos++
		default:
			return nil, d.errAt("after array element")
		}
		break
	}
	d.depth--
	return out[:n], nil
}

// Matrix decodes an array of number arrays, or null, over prev with the
// semantics of Array and Floats: row i decodes over the row prev's backing
// array holds at i, and a null row is nil.
func (d *Decoder) Matrix(prev [][]float64) ([][]float64, error) {
	return Array(d, prev, func(row *[]float64) (err error) {
		*row, err = d.Floats(*row)
		return err
	})
}

// String decodes a string, or null, which leaves prev.
func (d *Decoder) String(prev string) (string, error) {
	switch d.next() {
	case 'n':
		return prev, d.literal("null")
	case '"':
	default:
		return prev, d.errAt("looking for a string")
	}
	raw, escaped, err := d.str()
	if err != nil {
		return prev, err
	}
	if !escaped && utf8.Valid(raw) {
		return string(raw), nil
	}
	return string(unescapeString(nil, raw)), nil
}

// Float decodes a number into a float64, or null, which leaves prev.
func (d *Decoder) Float(prev float64) (float64, error) {
	switch c := d.next(); {
	case c == 'n':
		return prev, d.literal("null")
	case c == '-' || isDigit(c):
		return d.number()
	}
	return prev, d.errAt("looking for a number")
}

// Int decodes a number into an int64, or null, which leaves prev. A
// fraction, an exponent or a value out of range is an error, even when
// the value is integral.
func (d *Decoder) Int(prev int64) (int64, error) {
	switch c := d.next(); {
	case c == 'n':
		return prev, d.literal("null")
	case c != '-' && !isDigit(c):
		return prev, d.errAt("looking for an integer")
	}
	start := d.pos
	if _, _, err := d.scanNumber(); err != nil {
		return prev, err
	}
	lit := d.data[start:d.pos]
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		return prev, fmt.Errorf("json: number %s at offset %d does not fit a 64-bit integer", lit, start)
	}
	return n, nil
}

// Exact returns s with capacity equal to its length, copying only when a
// repeated key left spare capacity behind.
func Exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// next skips whitespace and returns the next byte, or 0 at the end of the
// input (a literal NUL is never valid JSON outside a string either).
func (d *Decoder) next() byte {
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

func (d *Decoder) colon() error {
	if d.next() != ':' {
		return d.errAt("after object key")
	}
	d.pos++
	return nil
}

func (d *Decoder) errAt(context string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("json: unexpected end of input %s", context)
	}
	return fmt.Errorf("json: invalid character %q at offset %d %s", d.data[d.pos], d.pos, context)
}

func (d *Decoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(lit)) {
		return d.errAt("in literal " + lit)
	}
	d.pos += len(lit)
	return nil
}

// number consumes a number and converts it: by scanNumber's exact fast
// path when it applies, else by strconv.ParseFloat.
func (d *Decoder) number() (float64, error) {
	start := d.pos
	x, exact, err := d.scanNumber()
	if err != nil || exact {
		return x, err
	}
	lit := d.data[start:d.pos]
	x, err = strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, fmt.Errorf("json: number %s at offset %d: %w", lit, start, err)
	}
	return x, nil
}

// pow10 holds the powers of ten that are exact float64 values.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// maxExactDigits bounds the significant digits scanNumber accumulates:
// 16 digits fit a uint64 and cover every mantissa below 2^53.
const maxExactDigits = 16

// scanNumber consumes -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
// While it checks the grammar it accumulates the decimal mantissa and
// exponent; when the mantissa is at most 2^53 and the exponent at most 22
// in magnitude, both are exact float64 values, so one IEEE multiplication
// or division rounds correctly and the value — returned with exact set —
// is bitwise what strconv.ParseFloat returns (Clinger's fast path).
func (d *Decoder) scanNumber() (x float64, exact bool, err error) {
	data, p := d.data, d.pos
	neg := p < len(data) && data[p] == '-'
	if neg {
		p++
	}
	var mant uint64
	exp, nd := 0, 0 // decimal exponent, significant digits seen
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		for ; p < len(data); p++ {
			c := data[p] - '0'
			if c > 9 {
				break
			}
			if nd++; nd <= maxExactDigits {
				mant = mant*10 + uint64(c)
			}
		}
	default:
		d.pos = p
		return 0, false, d.errAt("looking for a number")
	}
	if p < len(data) && data[p] == '.' {
		if p++; p >= len(data) || !isDigit(data[p]) {
			d.pos = p
			return 0, false, d.errAt("after decimal point in number")
		}
		for ; p < len(data); p++ {
			c := data[p] - '0'
			if c > 9 {
				break
			}
			if nd > 0 || c != 0 {
				nd++
			}
			if nd <= maxExactDigits {
				mant = mant*10 + uint64(c)
				exp--
			}
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		eneg := p < len(data) && data[p] == '-'
		if p < len(data) && (data[p] == '+' || eneg) {
			p++
		}
		if p >= len(data) || !isDigit(data[p]) {
			d.pos = p
			return 0, false, d.errAt("in exponent of number")
		}
		e := 0
		for ; p < len(data) && isDigit(data[p]); p++ {
			if e < 1e4 {
				e = e*10 + int(data[p]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.pos = p
	if nd > maxExactDigits || mant > 1<<53 || exp < -22 || exp > 22 {
		return 0, false, nil
	}
	x = float64(mant)
	if exp < 0 {
		x /= pow10[-exp]
	} else {
		x *= pow10[exp]
	}
	if neg {
		x = -x
	}
	return x, true, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// str consumes the string literal at d.pos, validating its escapes and
// rejecting raw control characters, and returns its raw contents and
// whether they hold escapes.
func (d *Decoder) str() (raw []byte, escaped bool, err error) {
	d.pos++ // opening quote
	start := d.pos
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			raw = d.data[start:d.pos]
			d.pos++
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			d.pos++
			if d.pos >= len(d.data) {
				return nil, false, d.errAt("in string escape")
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for i := 0; i < 4; i++ {
					if d.pos >= len(d.data) || hexVal(d.data[d.pos]) < 0 {
						return nil, false, d.errAt("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, false, d.errAt("in string escape")
			}
		case c < 0x20:
			return nil, false, d.errAt("in string literal")
		default:
			d.pos++
		}
	}
	return nil, false, d.errAt("in string literal")
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// u4 decodes the \uXXXX escape at s[0:6], or returns -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		r = r<<4 | hexVal(c)
	}
	return r
}

// unescapeString appends the decoded contents of a validated string
// literal to dst. Escaped surrogates combine when they form a valid pair,
// and become U+FFFD otherwise; each byte that is not part of a UTF-8
// sequence becomes U+FFFD too, as in encoding/json.
func unescapeString(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
			continue
		case c != '\\':
			dst = append(dst, c)
			i++
			continue
		}
		switch c := s[i+1]; c {
		case 'u':
			r := u4(s[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if dec := utf16.DecodeRune(r, u4(s[i:])); dec != unicode.ReplacementChar {
					r = dec
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		default: // '"', '\\', '/'
			dst = append(dst, c)
		}
		i += 2
	}
	return dst
}

// skip validates and consumes one value of any type without converting
// it. The value sits inside d.depth open containers, so its own count
// from the next nesting level on.
func (d *Decoder) skip() error {
	var stack []byte // open containers, '{' or '['
	for {
		// A value starts here.
		switch c := d.next(); c {
		case '{', '[':
			d.pos++
			if d.depth+len(stack)+1 > maxDepth {
				return fmt.Errorf("json: exceeded max depth at offset %d", d.pos-1)
			}
			stack = append(stack, c)
			if closing := c + 2; d.next() == closing { // '{'+2 == '}', '['+2 == ']'
				d.pos++
				stack = stack[:len(stack)-1]
				break
			}
			if c == '{' {
				if err := d.key1(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if _, _, err := d.scanNumber(); err != nil {
				return err
			}
		}
		// A value ended: close containers until one takes another value.
		for {
			if len(stack) == 0 {
				return nil
			}
			top := stack[len(stack)-1]
			c := d.next()
			if c == ',' {
				d.pos++
				if top == '{' {
					if err := d.key1(); err != nil {
						return err
					}
				}
				break
			}
			if c != top+2 {
				return d.errAt("after container element")
			}
			d.pos++
			stack = stack[:len(stack)-1]
		}
	}
}

// key1 consumes one object key and its colon inside a skipped value.
func (d *Decoder) key1() error {
	if d.next() != '"' {
		return d.errAt("looking for an object key")
	}
	if _, _, err := d.str(); err != nil {
		return err
	}
	return d.colon()
}
