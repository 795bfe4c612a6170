package mapping

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
)

// This file is the wide-platform (m > 64) face of the Evaluator: every
// uint64-mask method of eval.go has a *W counterpart taking multi-word
// bitset.Set replica sets. A complete candidate is (ends, words) where
// ends[j] is the last stage of interval j and words is a flat row-major
// buffer of Stride() uint64 words per interval — row j is
// words[j*stride : (j+1)*stride], so a stride-1 buffer is exactly the
// legacy []uint64 mask slice.
//
// Invariants shared with the narrow path:
//
//   - zero heap allocations: the methods only read their arguments, and
//     iteration runs over the words in place;
//   - processors are visited in ascending index order (word by word,
//     TrailingZeros within a word), so the accumulated float metrics are
//     bitwise identical to the slice-based LatencyEq1 / LatencyEq2 /
//     FailureProb on the same candidate.

// Row returns interval j's replica set within a flat stride-words buffer.
func Row(words []uint64, stride, j int) bitset.Set {
	return bitset.Set(words[j*stride : (j+1)*stride])
}

// EvalW computes both metrics of the wide candidate (ends, words). Like
// Eval, the candidate must be valid by construction. Zero allocations.
func (e *Evaluator) EvalW(ends []int, words []uint64) Metrics {
	return Metrics{Latency: e.LatencyW(ends, words), FailureProb: e.FailureProbW(ends, words)}
}

// LatencyW dispatches to the Eq. (1) or Eq. (2) wide evaluation.
func (e *Evaluator) LatencyW(ends []int, words []uint64) float64 {
	if e.commHom {
		return e.latencyEq1W(ends, words)
	}
	return e.latencyEq2W(ends, words)
}

func (e *Evaluator) latencyEq1W(ends []int, words []uint64) float64 {
	total := 0.0
	first := 0
	for j, end := range ends {
		commIn, compute := e.IntervalEq1CostW(first, end, Row(words, e.stride, j))
		total += commIn
		total += compute
		first = end + 1
	}
	total += e.lbTail[e.n] // exact δ_n/b on comm-hom platforms
	return total
}

func (e *Evaluator) latencyEq2W(ends []int, words []uint64) float64 {
	total := e.InputSumW(Row(words, e.stride, 0))
	first := 0
	last := len(ends) - 1
	for j, end := range ends {
		if j == last {
			total += e.IntervalEq2FinalTermW(first, end, Row(words, e.stride, j))
		} else {
			total += e.IntervalEq2TermW(first, end, Row(words, e.stride, j), Row(words, e.stride, j+1))
		}
		first = end + 1
	}
	return total
}

// FailureProbW computes 1 − Π_j (1 − Π_{u∈row j} fp_u) over the wide
// candidate, in the same operation order as the slice-based FailureProb.
func (e *Evaluator) FailureProbW(ends []int, words []uint64) float64 {
	success := 1.0
	for j := range ends {
		success *= e.SuccessFactorW(Row(words, e.stride, j))
	}
	return 1 - success
}

// SuccessFactorW is SuccessFactor for a multi-word replica set.
func (e *Evaluator) SuccessFactorW(mask bitset.Set) float64 {
	qj := 1.0
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			qj *= e.pl.FailProb[base+bits.TrailingZeros64(bm)]
		}
	}
	return 1 - qj
}

// IntervalEq1CostW is IntervalEq1Cost for a multi-word replica set.
func (e *Evaluator) IntervalEq1CostW(first, last int, mask bitset.Set) (commIn, compute float64) {
	kj := float64(mask.Count())
	commIn = kj * e.p.Delta[first] / e.b
	compute = e.p.Work(first, last) / e.MinSpeedW(mask)
	return commIn, compute
}

// MinSpeedW returns the speed of the slowest processor in mask.
func (e *Evaluator) MinSpeedW(mask bitset.Set) float64 {
	slowest := math.Inf(1)
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			if s := e.pl.Speed[base+bits.TrailingZeros64(bm)]; s < slowest {
				slowest = s
			}
		}
	}
	return slowest
}

// InputSumW returns Σ_{u∈mask} δ_0/b_{in,u}, the Eq. (2) input term of
// the first interval.
func (e *Evaluator) InputSumW(mask bitset.Set) float64 {
	total := 0.0
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			total += e.p.Delta[0] / e.pl.BIn[base+bits.TrailingZeros64(bm)]
		}
	}
	return total
}

// IntervalEq2TermW is IntervalEq2Term for multi-word replica sets.
func (e *Evaluator) IntervalEq2TermW(first, last int, mask, next bitset.Set) float64 {
	work := e.p.Work(first, last)
	out := e.p.Delta[last+1]
	worst := math.Inf(-1)
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			if term := e.replicaTermW(base+bits.TrailingZeros64(bm), work, out, next); term > worst {
				worst = term
			}
		}
	}
	return worst
}

// replicaTermW is replicaTerm for a multi-word successor set.
func (e *Evaluator) replicaTermW(u int, work, out float64, next bitset.Set) float64 {
	term := work / e.pl.Speed[u]
	for w, word := range next {
		base := w * bitset.WordBits
		for nm := word; nm != 0; nm &= nm - 1 {
			term += out / e.pl.B[u][base+bits.TrailingZeros64(nm)]
		}
	}
	return term
}

// IntervalEq2FinalTermW is IntervalEq2FinalTerm for a multi-word replica
// set.
func (e *Evaluator) IntervalEq2FinalTermW(first, last int, mask bitset.Set) float64 {
	work := e.p.Work(first, last)
	out := e.p.Delta[e.n]
	worst := math.Inf(-1)
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			if term := e.finalReplicaTerm(base+bits.TrailingZeros64(bm), work, out); term > worst {
				worst = term
			}
		}
	}
	return worst
}

// IntervalComputeLBW is IntervalComputeLB for a multi-word replica set.
func (e *Evaluator) IntervalComputeLBW(first, last int, mask bitset.Set) float64 {
	return e.p.Work(first, last) / e.MinSpeedW(mask)
}

// ToMappingW materializes a wide candidate as a regular *Mapping (this
// allocates; call it only for candidates worth keeping).
func (e *Evaluator) ToMappingW(ends []int, words []uint64) *Mapping {
	m := &Mapping{
		Intervals: make([]Interval, len(ends)),
		Alloc:     make([][]int, len(ends)),
	}
	first := 0
	for j, end := range ends {
		m.Intervals[j] = Interval{First: first, Last: end}
		row := Row(words, e.stride, j)
		m.Alloc[j] = row.AppendBits(make([]int, 0, row.Count()))
		first = end + 1
	}
	return m
}

// BoundaryRepWide converts a mapping into the flat wide boundary
// representation with the given stride. The mapping is not validated;
// pair with Mapping.Validate (as EvaluateMapping does).
func BoundaryRepWide(m *Mapping, stride int) (ends []int, words []uint64) {
	ends = make([]int, len(m.Intervals))
	words = make([]uint64, len(m.Intervals)*stride)
	for j, iv := range m.Intervals {
		ends[j] = iv.Last
		row := Row(words, stride, j)
		for _, u := range m.Alloc[j] {
			row.Add(u)
		}
	}
	return ends, words
}
