// Package jsonread decodes the numeric wire formats of the model types —
// objects whose members are arrays of numbers ([]float64) or arrays of
// such arrays ([][]float64) — in one pass over the document, with no
// reflection and no separate validation pass. Each number is checked
// against the JSON number grammar and converted in the same scan when its
// decimal form is exact in float64 arithmetic, else by
// strconv.ParseFloat; either way the value is the correctly rounded one.
//
// For every input it accepts and rejects exactly what encoding/json does
// when it decodes the same bytes into a struct with those fields, and it
// produces bitwise-equal values:
//
//   - member keys are unescaped and matched case-insensitively, as
//     bytes.EqualFold matches them (so the Kelvin sign matches "k" and the
//     long s matches "s");
//   - members with unknown keys are skipped, but their values must still
//     be valid JSON, nested at most 10000 levels deep;
//   - null yields a nil slice; a null element of a number array leaves its
//     slot as it was — zero, unless an earlier member with the same key
//     wrote it;
//   - a repeated key decodes again over the slice the earlier member left,
//     as encoding/json does, so the last member wins except where the
//     null-element rule above reads the earlier one's values;
//   - a number out of float64 range, such as 1e400, is an error.
//
// The model packages' differential fuzz tests hold the decoder to
// encoding/json on arbitrary bytes.
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

// maxDepth is encoding/json's nesting limit; the top-level object counts
// as the first level.
const maxDepth = 10000

// nullMark stands for a null element in the number scratch buffer: a JSON
// number never parses to NaN, so the mark cannot collide with a value.
var nullMark = math.NaN()

// Decoder reads one JSON document. It is not safe for concurrent use.
type Decoder struct {
	data []byte
	pos  int
	vals []float64 // number scratch, reused by every array
	key  []byte    // unescaped-key scratch
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Object decodes the document as one object, or null (which has no
// members), followed by nothing but whitespace. For each member whose key
// matches names[i] it calls field(i), which must consume the member's
// value with Floats or Matrix; other members are validated and skipped.
func (d *Decoder) Object(names []string, field func(i int) error) error {
	switch d.next() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		d.pos++
		if err := d.members(names, field); err != nil {
			return err
		}
	default:
		return d.errAt("looking for an object")
	}
	if d.next(); d.pos != len(d.data) {
		return d.errAt("after top-level value")
	}
	return nil
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

// Matrix decodes an array of number arrays, or null, over prev with the
// semantics of Floats: row i decodes over the row prev's backing array
// holds at i, and a null row is nil.
func (d *Decoder) Matrix(prev [][]float64) ([][]float64, error) {
	switch d.next() {
	case 'n':
		return nil, d.literal("null")
	case '[':
		d.pos++
	default:
		return nil, d.errAt("looking for an array of arrays")
	}
	if d.next() == ']' {
		d.pos++
		return [][]float64{}, nil
	}
	old := prev[:cap(prev)]
	var rows [][]float64
	for {
		var slot []float64
		if len(rows) < len(old) {
			slot = old[len(rows)]
		}
		row, err := d.Floats(slot)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
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
	out := make([][]float64, max(len(rows), len(old)))
	copy(out, rows)
	if len(old) > len(rows) {
		copy(out[len(rows):], old[len(rows):])
	}
	return out[:len(rows)], nil
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
// literal to dst. Escaped surrogates combine when they form a valid pair
// and become U+FFFD otherwise, as in encoding/json.
func unescapeString(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		if s[i] != '\\' {
			dst = append(dst, s[i])
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
// it. The value sits in the top-level object, so its containers count
// from the second nesting level on.
func (d *Decoder) skip() error {
	var stack []byte // open containers, '{' or '['
	for {
		// A value starts here.
		switch c := d.next(); c {
		case '{', '[':
			d.pos++
			if 1+len(stack)+1 > maxDepth {
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
