package mapping

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

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
// metrics are bitwise identical to the slice-based evaluators. Whole
// candidates are scored by the *W methods of evalwide.go, which read
// replica sets as bitset rows of Stride() words (one uint64 per interval
// when m ≤ 64) and visit processors in ascending order. The per-interval
// uint64 kernels below (FailureFactor, IntervalEq1Cost, InputSum,
// IntervalEq2Term, …) serve the exact engine's single-register
// replication search and EvalState at stride 1; they add in the same
// order as their *W twins, so both give the same bits.
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
// state. Platforms of any width are accepted (Stride reports the words
// per replica set).
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

// FailureFactor returns q = Π_{u∈mask} fp_u, the probability that every
// replica in mask fails (the per-interval factor of AccumFailure).
func (e *Evaluator) FailureFactor(mask uint64) float64 {
	q := 1.0
	for bm := mask; bm != 0; bm &= bm - 1 {
		q *= e.pl.FailProb[bits.TrailingZeros64(bm)]
	}
	return q
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

// EvaluateMapping validates m against the evaluator's instance and scores
// it through the precomputed state. It returns the same metrics as the
// package-level Evaluate but skips re-deriving the platform dispatch on
// every call, so long-lived sessions evaluating many mappings against one
// (pipeline, platform) pair amortize the precomputation.
func (e *Evaluator) EvaluateMapping(m *Mapping) (Metrics, error) {
	if err := m.Validate(e.n, e.m); err != nil {
		return Metrics{}, err
	}
	ends, words := BoundaryRepWide(m, e.stride)
	return e.EvalW(ends, words), nil
}
