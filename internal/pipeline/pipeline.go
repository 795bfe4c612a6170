// Package pipeline models the linear workflow applications studied in the
// paper "Optimizing Latency and Reliability of Pipeline Workflow
// Applications" (Benoit, Rehn-Sonigo, Robert; INRIA RR-6345, 2008).
//
// An application is a chain of n stages S_1 .. S_n. Stage S_k receives an
// input of size δ_{k-1} from its predecessor, performs w_k units of
// computation, and emits an output of size δ_k. The first stage reads its
// input (size δ_0) from a distinguished input processor P_in and the last
// stage writes its result (size δ_n) to an output processor P_out.
//
// Internally stages are 0-based: W[i] is the paper's w_{i+1} and Delta[k]
// is the paper's δ_k (so Delta has length n+1, Delta[0] being the initial
// input size and Delta[n] the final output size).
package pipeline

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/jsonread"
)

// Pipeline is an immutable-by-convention description of an n-stage
// workflow. The zero value is an empty pipeline with no stages; use New or
// one of the generators to obtain a valid instance.
type Pipeline struct {
	// W holds the computation volume of each stage: W[i] is the number of
	// operations performed by stage i (0-based). len(W) == n.
	W []float64
	// Delta holds the communication volumes between consecutive stages:
	// Delta[k] is the size of the data produced by stage k-1 and consumed
	// by stage k (Delta[0] enters the pipeline, Delta[n] leaves it).
	// len(Delta) == n+1.
	Delta []float64

	// prefix[i] = sum of W[0..i-1], built eagerly by New (and
	// UnmarshalJSON) so that interval work queries are O(1). It is
	// derived state, never encoded. Pipelines assembled as struct
	// literals have no prefix and fall back to direct summation, which
	// keeps concurrent read-only use race-free.
	prefix []float64
}

// New builds a Pipeline from stage computation volumes w and communication
// volumes delta and validates it. len(delta) must be len(w)+1.
func New(w, delta []float64) (*Pipeline, error) {
	p := &Pipeline{W: append([]float64(nil), w...), Delta: append([]float64(nil), delta...)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.buildPrefix()
	return p, nil
}

// MustNew is New but panics on invalid input. Intended for tests, examples
// and hard-coded paper instances.
func MustNew(w, delta []float64) *Pipeline {
	p, err := New(w, delta)
	if err != nil {
		panic(err)
	}
	return p
}

// NumStages returns n, the number of stages.
func (p *Pipeline) NumStages() int { return len(p.W) }

// Validate checks structural invariants: at least one stage, matching
// slice lengths, and non-negative finite volumes.
func (p *Pipeline) Validate() error {
	n := len(p.W)
	if n == 0 {
		return fmt.Errorf("pipeline: must have at least one stage")
	}
	if len(p.Delta) != n+1 {
		return fmt.Errorf("pipeline: len(Delta)=%d, want n+1=%d", len(p.Delta), n+1)
	}
	for i, w := range p.W {
		if w < 0 || isNaNOrInf(w) {
			return fmt.Errorf("pipeline: W[%d]=%v must be finite and >= 0", i, w)
		}
	}
	for k, d := range p.Delta {
		if d < 0 || isNaNOrInf(d) {
			return fmt.Errorf("pipeline: Delta[%d]=%v must be finite and >= 0", k, d)
		}
	}
	return nil
}

func isNaNOrInf(x float64) bool { return x != x || x > maxFinite || x < -maxFinite }

const maxFinite = 1.7976931348623157e308

// Work returns the total computation volume of the inclusive stage range
// [first, last] (0-based). It panics if the range is out of bounds; the
// mapping layer validates ranges before calling. O(1) for pipelines built
// with New; struct-literal pipelines sum directly (still safe under
// concurrent read-only use).
func (p *Pipeline) Work(first, last int) float64 {
	if first < 0 || last >= len(p.W) || first > last {
		panic(fmt.Sprintf("pipeline: invalid stage range [%d,%d] for n=%d", first, last, len(p.W)))
	}
	if len(p.prefix) == len(p.W)+1 {
		return p.prefix[last+1] - p.prefix[first]
	}
	sum := 0.0
	for i := first; i <= last; i++ {
		sum += p.W[i]
	}
	return sum
}

// TotalWork returns the computation volume of the whole pipeline.
func (p *Pipeline) TotalWork() float64 { return p.Work(0, len(p.W)-1) }

func (p *Pipeline) buildPrefix() {
	p.prefix = make([]float64, len(p.W)+1)
	for i, w := range p.W {
		p.prefix[i+1] = p.prefix[i] + w
	}
}

// InputSize returns δ_{first}, the volume entering stage `first`, i.e. the
// data an interval starting at that stage must receive.
func (p *Pipeline) InputSize(first int) float64 { return p.Delta[first] }

// OutputSize returns δ_{last+1}, the volume produced by stage `last`, i.e.
// the data an interval ending at that stage must send.
func (p *Pipeline) OutputSize(last int) float64 { return p.Delta[last+1] }

// Clone returns a deep copy of the pipeline.
func (p *Pipeline) Clone() *Pipeline {
	return &Pipeline{
		W:      append([]float64(nil), p.W...),
		Delta:  append([]float64(nil), p.Delta...),
		prefix: append([]float64(nil), p.prefix...),
	}
}

// Equal reports whether two pipelines have identical stage and
// communication volumes.
func (p *Pipeline) Equal(q *Pipeline) bool {
	if len(p.W) != len(q.W) || len(p.Delta) != len(q.Delta) {
		return false
	}
	for i := range p.W {
		if p.W[i] != q.W[i] {
			return false
		}
	}
	for k := range p.Delta {
		if p.Delta[k] != q.Delta[k] {
			return false
		}
	}
	return true
}

// AppendCanonicalBytes appends a deterministic byte encoding of the
// pipeline to dst and returns the extended slice: uvarint(n) followed by
// every W then every Delta value as the big-endian IEEE-754 bit pattern.
// Bit patterns (rather than a decimal rendering) make the encoding
// injective on the float values a validated pipeline can hold: Validate
// rejects NaN, and the remaining finite non-negative floats map
// one-to-one onto their bit patterns. Two pipelines produce equal bytes
// exactly when Equal reports true, which is what lets the canon package
// hash (pipeline, platform) instances structurally.
func (p *Pipeline) AppendCanonicalBytes(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.W)))
	for _, w := range p.W {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(w))
	}
	for _, d := range p.Delta {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d))
	}
	return dst
}

// String renders the pipeline in the paper's figure-1 style:
//
//	δ0 → [S1 w=2] → δ1 → [S2 w=2] → δ2
func (p *Pipeline) String() string {
	var b strings.Builder
	for i, w := range p.W {
		fmt.Fprintf(&b, "δ%d=%g → [S%d w=%g] → ", i, p.Delta[i], i+1, w)
	}
	fmt.Fprintf(&b, "δ%d=%g", len(p.W), p.Delta[len(p.W)])
	return b.String()
}

// jsonPipeline is the stable wire format.
type jsonPipeline struct {
	W     []float64 `json:"w"`
	Delta []float64 `json:"delta"`
}

// MarshalJSON encodes the pipeline as {"w":[...],"delta":[...]}.
func (p *Pipeline) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonPipeline{W: p.W, Delta: p.Delta})
}

// jsonFields lists jsonPipeline's keys in UnmarshalJSON's field order.
var jsonFields = []string{"w", "delta"}

// UnmarshalJSON decodes and validates a pipeline in one pass over data,
// accepting exactly the documents encoding/json would decode into the
// wire format (see package jsonread). Decoded slices are exactly sized.
func (p *Pipeline) UnmarshalJSON(data []byte) error {
	var w, delta []float64
	d := jsonread.NewDecoder(data)
	err := d.Object(jsonFields, func(field int) (err error) {
		if field == 0 {
			w, err = d.Floats(w)
		} else {
			delta, err = d.Floats(delta)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.W, p.Delta, p.prefix = jsonread.Exact(w), jsonread.Exact(delta), nil
	if err := p.Validate(); err != nil {
		return err
	}
	p.buildPrefix()
	return nil
}

// Uniform returns an n-stage pipeline in which every stage computes w
// operations and every communication (including δ_0 and δ_n) has volume d.
func Uniform(n int, w, d float64) *Pipeline {
	ws := make([]float64, n)
	ds := make([]float64, n+1)
	for i := range ws {
		ws[i] = w
	}
	for k := range ds {
		ds[k] = d
	}
	return MustNew(ws, ds)
}

// Random returns an n-stage pipeline with stage computations drawn
// uniformly from [wMin, wMax] and communication volumes from [dMin, dMax],
// using the caller-provided source for reproducibility.
func Random(rng *rand.Rand, n int, wMin, wMax, dMin, dMax float64) *Pipeline {
	ws := make([]float64, n)
	ds := make([]float64, n+1)
	for i := range ws {
		ws[i] = wMin + rng.Float64()*(wMax-wMin)
	}
	for k := range ds {
		ds[k] = dMin + rng.Float64()*(dMax-dMin)
	}
	return MustNew(ws, ds)
}
