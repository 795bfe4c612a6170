package mapping

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// MaxEvalProcs is the widest platform the single-word (uint64 mask)
// representation covers. It is no longer a limit of the Evaluator itself:
// wider platforms are evaluated through the multi-word replica sets of
// internal/bitset (see the *W methods in evalwide.go), with a stride of
// bitset.Words(m) words per replica set.
const MaxEvalProcs = 64

// Evaluator is the zero-allocation evaluation engine behind the exact
// solvers. It precomputes, once per (pipeline, platform) pair, everything
// the latency and failure-probability formulas need — the Eq. (1) / Eq. (2)
// dispatch, the single bandwidth of communication-homogeneous platforms,
// work prefix sums (via the pipeline), and suffix latency lower bounds for
// branch-and-bound — and then evaluates candidate mappings represented as
// interval end boundaries plus per-interval processor bitmasks without any
// heap allocation and without Validate (enumerated candidates are valid by
// construction; the public Evaluate path keeps full validation).
//
// The arithmetic deliberately mirrors LatencyEq1, LatencyEq2 and
// FailureProb operation for operation, in the same order, so that the
// metrics are bitwise identical to the slice-based evaluators. That
// contract holds for both mask representations: the uint64 methods below
// cover platforms up to MaxEvalProcs processors, and the *W methods of
// evalwide.go evaluate multi-word bitset.Set replica sets for any m,
// iterating processors in the same ascending order.
type Evaluator struct {
	p  *pipeline.Pipeline
	pl *platform.Platform

	n, m    int
	stride  int // bitset words per replica set (1 when m ≤ 64)
	commHom bool
	b       float64 // single bandwidth when commHom

	// lbTail[start] is a lower bound on the latency contributed by stages
	// [start, n) plus the final output transfer, valid for every completion
	// of a partial mapping whose charged prefix ends at stage start−1 (see
	// TailLatencyLB). lbTail[n] is the exact final-output term on
	// communication-homogeneous platforms.
	lbTail []float64
}

// NewEvaluator validates the instance once and builds the precomputed
// state. Platforms of any width are accepted: up to MaxEvalProcs
// processors the uint64 mask methods apply, beyond that callers use the
// multi-word *W methods (Stride reports the words per replica set).
func NewEvaluator(p *pipeline.Pipeline, pl *platform.Platform) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	n, m := p.NumStages(), pl.NumProcs()
	e := &Evaluator{p: p, pl: pl, n: n, m: m, stride: bitset.Words(m)}
	e.b, e.commHom = pl.CommHomogeneous()

	maxSpeed := pl.Speed[0]
	for _, s := range pl.Speed[1:] {
		if s > maxSpeed {
			maxSpeed = s
		}
	}
	e.lbTail = make([]float64, n+1)
	if e.commHom {
		e.lbTail[n] = p.Delta[n] / e.b
		for start := n - 1; start >= 0; start-- {
			// The next interval receives its input at least once (k ≥ 1),
			// the remaining work runs at best on the fastest processor, and
			// the final output must still leave the platform.
			e.lbTail[start] = p.Delta[start]/e.b + p.Work(start, n-1)/maxSpeed + p.Delta[n]/e.b
		}
	} else {
		maxB := math.Inf(1) // m == 1: no inter-processor link is ever used
		if m > 1 {
			maxB = 0
			for u := 0; u < m; u++ {
				for v := 0; v < m; v++ {
					if u != v && pl.B[u][v] > maxB {
						maxB = pl.B[u][v]
					}
				}
			}
		}
		maxBOut := pl.BOut[0]
		for _, bo := range pl.BOut[1:] {
			if bo > maxBOut {
				maxBOut = bo
			}
		}
		maxBIn := pl.BIn[0]
		for _, bi := range pl.BIn[1:] {
			if bi > maxBIn {
				maxBIn = bi
			}
		}
		e.lbTail[n] = p.Delta[n] / maxBOut
		for start := n - 1; start >= 0; start-- {
			// δ_start crosses an inter-processor link, except at start = 0
			// where it is the initial input over a BIn link.
			cross := maxB
			if start == 0 {
				cross = maxBIn
			}
			e.lbTail[start] = p.Delta[start]/cross + p.Work(start, n-1)/maxSpeed + p.Delta[n]/maxBOut
		}
	}
	return e, nil
}

// NumStages returns n.
func (e *Evaluator) NumStages() int { return e.n }

// NumProcs returns m.
func (e *Evaluator) NumProcs() int { return e.m }

// Stride returns the number of bitset words per replica set
// (bitset.Words(m); 1 on platforms within the uint64 mask width).
func (e *Evaluator) Stride() int { return e.stride }

// Wide reports whether replica sets exceed the single-word uint64
// representation, i.e. whether callers must use the *W methods.
func (e *Evaluator) Wide() bool { return e.m > MaxEvalProcs }

// CommHom reports whether the platform is communication homogeneous, i.e.
// whether latency evaluation dispatches to Eq. (1) or Eq. (2).
func (e *Evaluator) CommHom() bool { return e.commHom }

// TailLatencyLB returns a lower bound on the latency still to be paid by
// any completion of a partial mapping covering stages [0, start): the
// input transfer of the next interval (or the pending interval's outgoing
// transfer on heterogeneous platforms), the remaining work on the fastest
// processor, and the final output transfer. TailLatencyLB(n) is the final
// output term alone.
func (e *Evaluator) TailLatencyLB(start int) float64 { return e.lbTail[start] }

// Eval computes both metrics of the candidate (ends, masks): ends[j] is
// the last stage (0-based, inclusive) of interval j, masks[j] the replica
// set of interval j as a processor bitmask. The candidate must be valid by
// construction — consecutive non-empty intervals with ends[len−1] == n−1
// and pairwise-disjoint non-empty masks. Zero heap allocations.
func (e *Evaluator) Eval(ends []int, masks []uint64) Metrics {
	return Metrics{Latency: e.Latency(ends, masks), FailureProb: e.FailureProb(masks)}
}

// Latency dispatches to the Eq. (1) or Eq. (2) masked evaluation.
func (e *Evaluator) Latency(ends []int, masks []uint64) float64 {
	if e.commHom {
		return e.latencyEq1(ends, masks)
	}
	return e.latencyEq2(ends, masks)
}

func (e *Evaluator) latencyEq1(ends []int, masks []uint64) float64 {
	total := 0.0
	first := 0
	for j, end := range ends {
		commIn, compute := e.IntervalEq1Cost(first, end, masks[j])
		total += commIn
		total += compute
		first = end + 1
	}
	total += e.lbTail[e.n] // exact δ_n/b on comm-hom platforms
	return total
}

func (e *Evaluator) latencyEq2(ends []int, masks []uint64) float64 {
	total := e.InputSum(masks[0])
	first := 0
	last := len(ends) - 1
	for j, end := range ends {
		if j == last {
			total += e.IntervalEq2FinalTerm(first, end, masks[j])
		} else {
			total += e.IntervalEq2Term(first, end, masks[j], masks[j+1])
		}
		first = end + 1
	}
	return total
}

// FailureProb computes 1 − Π_j (1 − Π_{u∈masks[j]} fp_u) with the same
// operation order as the slice-based FailureProb.
func (e *Evaluator) FailureProb(masks []uint64) float64 {
	success := 1.0
	for _, mask := range masks {
		success *= e.SuccessFactor(mask)
	}
	return 1 - success
}

// SuccessFactor returns 1 − Π_{u∈mask} fp_u, the per-interval success
// probability factor.
func (e *Evaluator) SuccessFactor(mask uint64) float64 {
	qj := 1.0
	for bm := mask; bm != 0; bm &= bm - 1 {
		qj *= e.pl.FailProb[bits.TrailingZeros64(bm)]
	}
	return 1 - qj
}

// IntervalEq1Cost returns the two Eq. (1) latency terms of one interval —
// the serialized input transfer k·δ_first/b and the computation on the
// slowest replica — as separate addends so callers accumulate them in the
// same order as LatencyEq1.
func (e *Evaluator) IntervalEq1Cost(first, last int, mask uint64) (commIn, compute float64) {
	kj := float64(bits.OnesCount64(mask))
	commIn = kj * e.p.Delta[first] / e.b
	compute = e.p.Work(first, last) / e.MinSpeed(mask)
	return commIn, compute
}

// MinSpeed returns the speed of the slowest processor in mask.
func (e *Evaluator) MinSpeed(mask uint64) float64 {
	slowest := math.Inf(1)
	for bm := mask; bm != 0; bm &= bm - 1 {
		if s := e.pl.Speed[bits.TrailingZeros64(bm)]; s < slowest {
			slowest = s
		}
	}
	return slowest
}

// InputSum returns Σ_{u∈mask} δ_0/b_{in,u}, the Eq. (2) input term of the
// first interval.
func (e *Evaluator) InputSum(mask uint64) float64 {
	total := 0.0
	for bm := mask; bm != 0; bm &= bm - 1 {
		total += e.p.Delta[0] / e.pl.BIn[bits.TrailingZeros64(bm)]
	}
	return total
}

// IntervalEq2Term returns the Eq. (2) term of a non-final interval
// [first, last] replicated on mask, sending its output to the replicas in
// next: max_{u∈mask} [ W/s_u + Σ_{v∈next} δ_{last+1}/b_{u,v} ].
func (e *Evaluator) IntervalEq2Term(first, last int, mask, next uint64) float64 {
	work := e.p.Work(first, last)
	out := e.p.Delta[last+1]
	worst := math.Inf(-1)
	for bm := mask; bm != 0; bm &= bm - 1 {
		if term := e.replicaTerm(bits.TrailingZeros64(bm), work, out, next); term > worst {
			worst = term
		}
	}
	return worst
}

// IntervalEq2FinalTerm is IntervalEq2Term for the last interval, whose
// outgoing transfer goes to P_out: max_{u∈mask} [ W/s_u + δ_n/b_{u,out} ].
func (e *Evaluator) IntervalEq2FinalTerm(first, last int, mask uint64) float64 {
	work := e.p.Work(first, last)
	out := e.p.Delta[e.n]
	worst := math.Inf(-1)
	for bm := mask; bm != 0; bm &= bm - 1 {
		if term := e.finalReplicaTerm(bits.TrailingZeros64(bm), work, out); term > worst {
			worst = term
		}
	}
	return worst
}

// replicaTerm returns replica u's value in a non-final Eq. (2) interval
// term, W/s_u + Σ_{v∈next} out/b_{u,v} summed in ascending v; the term
// loops and EvalState.AddReplica share it (replicaTermW is the wide twin).
func (e *Evaluator) replicaTerm(u int, work, out float64, next uint64) float64 {
	term := work / e.pl.Speed[u]
	for nm := next; nm != 0; nm &= nm - 1 {
		term += out / e.pl.B[u][bits.TrailingZeros64(nm)]
	}
	return term
}

// finalReplicaTerm is replicaTerm for the last interval, whose output goes
// to P_out: W/s_u + δ_n/b_{u,out}.
func (e *Evaluator) finalReplicaTerm(u int, work, out float64) float64 {
	return work/e.pl.Speed[u] + out/e.pl.BOut[u]
}

// IntervalComputeLB returns a lower bound on the Eq. (2) term of a pending
// interval whose successor replica set is not yet known: the exact compute
// part W/min_{u∈mask} s_u (every completion's term is at least this).
func (e *Evaluator) IntervalComputeLB(first, last int, mask uint64) float64 {
	return e.p.Work(first, last) / e.MinSpeed(mask)
}

// ToMapping materializes the candidate as a regular *Mapping (this
// allocates; call it only for candidates worth keeping).
func (e *Evaluator) ToMapping(ends []int, masks []uint64) *Mapping {
	m := &Mapping{
		Intervals: make([]Interval, len(ends)),
		Alloc:     make([][]int, len(ends)),
	}
	first := 0
	for j, end := range ends {
		m.Intervals[j] = Interval{First: first, Last: end}
		procs := make([]int, 0, bits.OnesCount64(masks[j]))
		for bm := masks[j]; bm != 0; bm &= bm - 1 {
			procs = append(procs, bits.TrailingZeros64(bm))
		}
		m.Alloc[j] = procs
		first = end + 1
	}
	return m
}

// BoundaryRep converts a mapping into the evaluator's boundary
// representation: ends[j] is the last stage of interval j, masks[j] its
// replica set as a processor bitmask. ok is false when some processor id
// is outside the uint64 mask range (≥ MaxEvalProcs). The mapping is not
// validated; pair this with Mapping.Validate (as EvaluateMapping does).
func BoundaryRep(m *Mapping) (ends []int, masks []uint64, ok bool) {
	ends = make([]int, len(m.Intervals))
	masks = make([]uint64, len(m.Intervals))
	for j, iv := range m.Intervals {
		ends[j] = iv.Last
		for _, u := range m.Alloc[j] {
			if u < 0 || u >= MaxEvalProcs {
				return nil, nil, false
			}
			masks[j] |= 1 << uint(u)
		}
	}
	return ends, masks, true
}

// EvaluateMapping validates m against the evaluator's instance and scores
// it through the precomputed state. It returns the same metrics as the
// package-level Evaluate but skips re-deriving the platform dispatch on
// every call, so long-lived sessions evaluating many mappings against one
// (pipeline, platform) pair amortize the precomputation.
func (e *Evaluator) EvaluateMapping(m *Mapping) (Metrics, error) {
	if err := m.Validate(e.n, e.m); err != nil {
		return Metrics{}, err
	}
	if e.Wide() {
		ends, words := BoundaryRepWide(m, e.stride)
		return e.EvalW(ends, words), nil
	}
	ends, masks, ok := BoundaryRep(m)
	if !ok {
		return Metrics{}, fmt.Errorf("mapping: processor id out of bitmask range (m ≤ %d)", MaxEvalProcs)
	}
	return e.Eval(ends, masks), nil
}
