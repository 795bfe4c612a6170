package mapping

import (
	"repro/internal/bitset"
)

// EvalState is the incremental face of the Evaluator: a mutable interval
// mapping held in the engine's boundary representation (interval ends plus
// a flat stride-words replica-mask buffer) together with the cached
// per-interval latency and failure-probability terms. Local-search
// solvers mutate the state in place — add/remove/replace/move a replica,
// split or merge an interval — and each mutation re-derives only the
// terms the move touches; Metrics then re-accumulates the cached terms in
// the canonical interval order.
//
// Invariants:
//
//   - metrics are bitwise identical to a fresh Evaluator.EvalW of the
//     same candidate (and hence to the slice-based Evaluate on the
//     ascending-id mapping ToMapping returns): every cached term is
//     produced by the same per-interval functions the batch evaluators
//     use, and the final accumulation visits the intervals in the same
//     order, so no float operation is reordered;
//   - mutations and Metrics perform zero heap allocations (all buffers
//     are sized for n intervals at construction); only ToMapping
//     allocates;
//   - the state is a pure function of (ends, masks): any sequence of
//     mutations that reaches a boundary representation leaves the cached
//     terms and metrics a fresh Load of it would compute, bitwise, so a
//     move applied to a state restored by CopyFrom scores exactly like the
//     same move applied to the original.
//
// Like EvalW, the state must describe a valid-by-construction candidate
// whenever metrics are read: consecutive non-empty intervals covering all
// stages, pairwise-disjoint non-empty replica sets. Transiently invalid
// states (an empty interval between a Split and the AddReplica that
// staffs it) are permitted as long as no metric is read in between.
type EvalState struct {
	ev *Evaluator
	p  int // number of intervals

	ends  []int      // cap n; ends[j] = last stage of interval j
	words []uint64   // cap n*stride; row j = words[j*stride:(j+1)*stride]
	used  bitset.Set // union of all replica sets

	// Cached per-interval terms. Communication-homogeneous platforms cache
	// the two Eq. (1) addends (commIn, compute); fully heterogeneous
	// platforms cache the Eq. (2) interval term (the final-interval variant
	// for the last interval) plus the input sum of interval 0.
	commIn, compute []float64
	term            []float64
	inputSum        float64
	fail            []float64 // per-interval failure factor Π fp
}

// NewState returns an empty EvalState bound to the evaluator, with every
// buffer sized for the instance's n intervals. Load it before use.
func (e *Evaluator) NewState() *EvalState {
	n := e.n
	return &EvalState{
		ev:      e,
		ends:    make([]int, n),
		words:   make([]uint64, n*e.stride),
		used:    bitset.Make(e.m),
		commIn:  make([]float64, n),
		compute: make([]float64, n),
		term:    make([]float64, n),
		fail:    make([]float64, n),
	}
}

// Load resets the state to the given mapping (assumed valid by
// construction; pair with Mapping.Validate when the source is untrusted)
// and recomputes every cached term.
func (st *EvalState) Load(m *Mapping) {
	stride := st.ev.stride
	st.p = len(m.Intervals)
	st.used.Zero()
	for j, iv := range m.Intervals {
		st.ends[j] = iv.Last
		row := st.row(j)
		row.Zero()
		for _, u := range m.Alloc[j] {
			row.Add(u)
			st.used.Add(u)
		}
	}
	for j := st.p; j < len(st.ends); j++ {
		bitset.Set(st.words[j*stride : (j+1)*stride]).Zero()
	}
	st.recomputeAll()
}

// CopyFrom overwrites st with a snapshot of o (same evaluator). Both the
// boundary representation and the cached terms are copied, so restoring a
// snapshot is a pure memcpy with no term recomputation.
func (st *EvalState) CopyFrom(o *EvalState) {
	st.p = o.p
	copy(st.ends[:o.p], o.ends[:o.p])
	copy(st.words[:o.p*st.ev.stride], o.words[:o.p*st.ev.stride])
	st.used.Copy(o.used)
	if st.ev.commHom {
		copy(st.commIn[:o.p], o.commIn[:o.p])
		copy(st.compute[:o.p], o.compute[:o.p])
	} else {
		copy(st.term[:o.p], o.term[:o.p])
		st.inputSum = o.inputSum
	}
	copy(st.fail[:o.p], o.fail[:o.p])
}

// NumIntervals returns the current interval count p.
func (st *EvalState) NumIntervals() int { return st.p }

// End returns the last stage of interval j.
func (st *EvalState) End(j int) int { return st.ends[j] }

// First returns the first stage of interval j.
func (st *EvalState) First(j int) int {
	if j == 0 {
		return 0
	}
	return st.ends[j-1] + 1
}

// Mask returns interval j's replica set as a view into the state's
// buffer. The view is invalidated by Split and Merge; do not retain it
// across structural mutations.
func (st *EvalState) Mask(j int) bitset.Set { return st.row(j) }

// Used returns the union of all replica sets as a view into the state's
// buffer (kept incrementally up to date by every mutator).
func (st *EvalState) Used() bitset.Set { return st.used }

// Replication returns k_j, the replica count of interval j.
func (st *EvalState) Replication(j int) int { return st.row(j).Count() }

func (st *EvalState) row(j int) bitset.Set {
	stride := st.ev.stride
	return bitset.Set(st.words[j*stride : (j+1)*stride])
}

// Metrics accumulates the cached terms in the canonical interval order,
// yielding metrics bitwise identical to Evaluator.EvalW on the same
// candidate. Zero allocations.
func (st *EvalState) Metrics() Metrics {
	return Metrics{Latency: st.Latency(), FailureProb: st.FailureProb()}
}

// Latency re-accumulates the cached latency terms.
func (st *EvalState) Latency() float64 {
	if st.ev.commHom {
		total := 0.0
		for j := 0; j < st.p; j++ {
			total += st.commIn[j]
			total += st.compute[j]
		}
		total += st.ev.lbTail[st.ev.n] // exact δ_n/b on comm-hom platforms
		return total
	}
	total := st.inputSum
	for j := 0; j < st.p; j++ {
		total += st.term[j]
	}
	return total
}

// FailureProb re-accumulates the cached per-interval failure factors.
func (st *EvalState) FailureProb() float64 {
	fp := 0.0
	for j := 0; j < st.p; j++ {
		fp = AccumFailure(fp, st.fail[j])
	}
	return fp
}

// FailureFactorWith returns the failure factor interval j would have with
// replica rm withdrawn and the unused processor add enrolled (−1 skips
// either), leaving the state unchanged: it toggles the two bits of row j,
// runs FailureFactorW over the row's ascending bit order — the product
// every mutator caches — and toggles them back. Zero allocations.
func (st *EvalState) FailureFactorWith(j, rm, add int) float64 {
	row := st.row(j)
	if rm >= 0 {
		row.Remove(rm)
	}
	if add >= 0 {
		row.Add(add)
	}
	f := st.ev.FailureFactorW(row)
	if add >= 0 {
		row.Remove(add)
	}
	if rm >= 0 {
		row.Add(rm)
	}
	return f
}

// FailureProbWith returns the failure probability the state would have
// with interval j's failure factor replaced by qj and, when j2 ≥ 0,
// interval j2's by qj2. It accumulates in FailureProb's interval order, so
// with factors from FailureFactorWith it previews a replica move's FP
// bitwise equal to what apply-then-FailureProb reads. The state is
// unchanged; zero allocations.
func (st *EvalState) FailureProbWith(j int, qj float64, j2 int, qj2 float64) float64 {
	fp := 0.0
	for i := 0; i < st.p; i++ {
		q := st.fail[i]
		switch i {
		case j:
			q = qj
		case j2:
			q = qj2
		}
		fp = AccumFailure(fp, q)
	}
	return fp
}

// ToMapping materializes the state as a regular *Mapping with ascending
// replica ids (this allocates; call it only for states worth keeping).
func (st *EvalState) ToMapping() *Mapping {
	return st.ev.ToMappingW(st.ends[:st.p], st.words[:st.p*st.ev.stride])
}

// AddReplica enrolls processor u (which must be unused) into interval j.
// On fully heterogeneous platforms interval j's Eq. (2) term becomes
// max(old, u's replica term), with no recompute. That is exact: the term
// is a max over replicas, each replica's value depends only on itself and
// the successor set (unchanged), and u's value comes from the helper the
// term loops use. The failure factor, the predecessor's term and the input
// sum are ordered sums or products over the changed set: recomputed.
func (st *EvalState) AddReplica(j, u int) {
	row := st.row(j)
	row.Add(u)
	st.used.Add(u)
	ev := st.ev
	if ev.commHom {
		st.touchMask(j)
		return
	}
	st.fail[j] = ev.FailureFactorW(row)
	st.term[j] = st.termWithAdd(j, u)
	if j > 0 {
		st.recomputeTerm(j - 1)
	} else {
		st.recomputeInputSum()
	}
}

// termWithAdd returns interval j's Eq. (2) term with processor u enrolled:
// the max-update of the cached term with u's replica term.
func (st *EvalState) termWithAdd(j, u int) float64 {
	ev := st.ev
	end := st.ends[j]
	work := ev.p.Work(st.First(j), end)
	var t float64
	switch {
	case j == st.p-1:
		t = ev.finalReplicaTerm(u, work, ev.p.Delta[ev.n])
	case ev.stride == 1:
		t = ev.replicaTerm(u, work, ev.p.Delta[end+1], st.words[j+1])
	default:
		t = ev.replicaTermW(u, work, ev.p.Delta[end+1], st.row(j+1))
	}
	if t > st.term[j] {
		return t
	}
	return st.term[j]
}

// LatencyFloorWithAdd returns a lower bound on the latency the state would
// read after AddReplica(j, u), leaving the state unchanged; zero
// allocations. It takes interval j's terms as AddReplica derives them and
// the input sum from interval 0's row with u toggled in, but keeps the
// predecessor's Eq. (2) term: that term's outgoing sum only gains the
// non-negative addend δ/b toward u, and rounded addition is monotone, so
// every addend — and the sum, accumulated in Latency's order — is at most
// what apply-then-Latency reads, bitwise. The bound is exact on
// communication-homogeneous platforms and when j = 0.
func (st *EvalState) LatencyFloorWithAdd(j, u int) float64 {
	ev := st.ev
	row := st.row(j)
	if ev.commHom {
		row.Add(u)
		var commIn, compute float64
		if ev.stride == 1 {
			commIn, compute = ev.IntervalEq1Cost(st.First(j), st.ends[j], st.words[j])
		} else {
			commIn, compute = ev.IntervalEq1CostW(st.First(j), st.ends[j], row)
		}
		row.Remove(u)
		total := 0.0
		for i := 0; i < st.p; i++ {
			if i == j {
				total += commIn
				total += compute
			} else {
				total += st.commIn[i]
				total += st.compute[i]
			}
		}
		total += ev.lbTail[ev.n]
		return total
	}
	total := st.inputSum
	if j == 0 {
		row.Add(u)
		if ev.stride == 1 {
			total = ev.InputSum(st.words[0])
		} else {
			total = ev.InputSumW(row)
		}
		row.Remove(u)
	}
	tj := st.termWithAdd(j, u)
	for i := 0; i < st.p; i++ {
		if i == j {
			total += tj
		} else {
			total += st.term[i]
		}
	}
	return total
}

// FailureProbWithSplit returns the failure probability the state would
// have after interval j is split and the new half is staffed by the unused
// processor u alone, left of the old replica set when left is true and
// right of it otherwise (the split-new moves). The state is unchanged;
// zero allocations. Neither half's factor depends on the cut: the old set
// keeps interval j's cached factor and the new half gets fp_u, which is
// FailureFactorW of {u}. Both are accumulated in FailureProb's interval
// order, so the preview equals what apply-then-FailureProb reads, bitwise.
func (st *EvalState) FailureProbWithSplit(j, u int, left bool) float64 {
	qu := st.ev.pl.FailProb[u]
	fp := 0.0
	for i := 0; i < st.p; i++ {
		if i == j && left {
			fp = AccumFailure(fp, qu)
		}
		fp = AccumFailure(fp, st.fail[i])
		if i == j && !left {
			fp = AccumFailure(fp, qu)
		}
	}
	return fp
}

// RemoveReplica withdraws processor u from interval j (caller keeps the
// interval non-empty, or immediately restaffs it).
func (st *EvalState) RemoveReplica(j, u int) {
	st.row(j).Remove(u)
	st.used.Remove(u)
	st.touchMask(j)
}

// ReplaceReplica swaps processor uOld of interval j for the unused uNew.
func (st *EvalState) ReplaceReplica(j, uOld, uNew int) {
	row := st.row(j)
	row.Remove(uOld)
	row.Add(uNew)
	st.used.Remove(uOld)
	st.used.Add(uNew)
	st.touchMask(j)
}

// MoveReplica migrates processor u from interval jFrom to interval jTo.
func (st *EvalState) MoveReplica(jFrom, jTo, u int) {
	st.row(jFrom).Remove(u)
	st.row(jTo).Add(u)
	st.touchMask(jFrom)
	st.touchMask(jTo)
}

// Split cuts interval j = [first, end] before stage cut: interval j
// becomes [first, cut−1] keeping mask(j) \ right, and a new interval j+1 =
// [cut, end] receives right (which must be a subset of mask(j)). A split
// that empties the left half is transiently invalid; staff it with
// AddReplica before reading metrics.
func (st *EvalState) Split(j, cut int, right bitset.Set) {
	stride := st.ev.stride
	for k := st.p; k > j+1; k-- {
		st.ends[k] = st.ends[k-1]
		copy(st.words[k*stride:(k+1)*stride], st.words[(k-1)*stride:k*stride])
		st.shiftTerms(k, k-1)
	}
	st.ends[j+1] = st.ends[j]
	st.ends[j] = cut - 1
	st.p++
	rowL, rowR := st.row(j), st.row(j+1)
	rowR.Copy(right)
	rowL.AndNot(rowL, right)
	st.touchRange(j-1, j+1)
}

// Merge fuses intervals j and j+1: interval j absorbs the stages and the
// replica set of j+1. It is the exact inverse of Split when the united
// replica set equals the pre-split mask.
func (st *EvalState) Merge(j int) {
	stride := st.ev.stride
	rowL, rowR := st.row(j), st.row(j+1)
	rowL.Or(rowL, rowR)
	st.ends[j] = st.ends[j+1]
	for k := j + 1; k < st.p-1; k++ {
		st.ends[k] = st.ends[k+1]
		copy(st.words[k*stride:(k+1)*stride], st.words[(k+1)*stride:(k+2)*stride])
		st.shiftTerms(k, k+1)
	}
	st.p--
	// The former interval j+2 (now j+1) keeps its mask, successor and work
	// window, so only j−1 (its successor set changed) and j need fresh terms.
	st.touchRange(j-1, j)
}

// shiftTerms moves interval src's cached terms to slot dst (used by the
// structural mutators when the interval sequence is reindexed; the terms
// themselves stay valid because neither the interval's stages, masks nor
// neighbors changed).
func (st *EvalState) shiftTerms(dst, src int) {
	st.fail[dst] = st.fail[src]
	if st.ev.commHom {
		st.commIn[dst] = st.commIn[src]
		st.compute[dst] = st.compute[src]
	} else {
		st.term[dst] = st.term[src]
	}
}

// touchMask refreshes the terms invalidated by a replica change in
// interval j: the interval's own terms, and on fully heterogeneous
// platforms also the predecessor's Eq. (2) term (whose outgoing transfer
// sums over interval j's replicas) and the input sum when j == 0.
func (st *EvalState) touchMask(j int) {
	st.recomputeTerm(j)
	if !st.ev.commHom {
		if j > 0 {
			st.recomputeTerm(j - 1)
		} else {
			st.recomputeInputSum()
		}
	}
}

// touchRange refreshes the terms of intervals [lo, hi] clamped to the
// current interval count, plus the heterogeneous input sum when interval 0
// is inside the window.
func (st *EvalState) touchRange(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > st.p-1 {
		hi = st.p - 1
	}
	for j := lo; j <= hi; j++ {
		st.recomputeTerm(j)
	}
	if !st.ev.commHom && lo == 0 {
		st.recomputeInputSum()
	}
}

func (st *EvalState) recomputeAll() {
	for j := 0; j < st.p; j++ {
		st.recomputeTerm(j)
	}
	if !st.ev.commHom {
		st.recomputeInputSum()
	}
}

// recomputeTerm re-derives interval j's cached terms from the current
// boundary representation through the same per-interval functions the
// batch evaluators use (the uint64 kernels at stride 1, the *W
// multi-word kernels otherwise).
func (st *EvalState) recomputeTerm(j int) {
	ev := st.ev
	first, end := st.First(j), st.ends[j]
	if ev.stride == 1 {
		mask := st.words[j]
		st.fail[j] = ev.FailureFactor(mask)
		if ev.commHom {
			st.commIn[j], st.compute[j] = ev.IntervalEq1Cost(first, end, mask)
			return
		}
		if j == st.p-1 {
			st.term[j] = ev.IntervalEq2FinalTerm(first, end, mask)
		} else {
			st.term[j] = ev.IntervalEq2Term(first, end, mask, st.words[j+1])
		}
		return
	}
	mask := st.row(j)
	st.fail[j] = ev.FailureFactorW(mask)
	if ev.commHom {
		st.commIn[j], st.compute[j] = ev.IntervalEq1CostW(first, end, mask)
		return
	}
	if j == st.p-1 {
		st.term[j] = ev.IntervalEq2FinalTermW(first, end, mask)
	} else {
		st.term[j] = ev.IntervalEq2TermW(first, end, mask, st.row(j+1))
	}
}

func (st *EvalState) recomputeInputSum() {
	if st.ev.stride == 1 {
		st.inputSum = st.ev.InputSum(st.words[0])
		return
	}
	st.inputSum = st.ev.InputSumW(st.row(0))
}
