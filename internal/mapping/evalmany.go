package mapping

import (
	"math/bits"

	"repro/internal/bitset"
)

// This file is the batch face of the Evaluator: where the enumeration
// engine's recursion would extend a shared interval prefix one sibling at
// a time — re-deriving the previous interval's Eq. (2) compute term, the
// Eq. (1) input transfer and the work window once per candidate —
// EvaluateManyW scores the whole block of singleton sibling extensions
// {u}, u ∈ free, of one prefix per call, hoisting every shared subterm
// out of the per-candidate loop.
//
// Bitwise contract (the invariant the exact solvers depend on): each
// sibling's charged latency, failure probability, pre-tail lower bound
// and — on the final stage — complete latency are bitwise identical to
// what the engine's incremental push/complete pair computes through the
// single-candidate methods (IntervalEq1CostW, IntervalEq2TermW, InputSumW,
// FailureFactorW, IntervalComputeLBW, IntervalEq2FinalTermW, and their
// uint64 twins). Hoisting is restricted to subexpressions whose value is
// identical for every sibling and whose extraction does not reassociate
// any float operation:
//
//   - Eq. (1): k = 1 makes the input transfer 1·δ_first/b = δ_first/b
//     exactly (1.0·x == x in IEEE 754), so base = lat + δ_first/b is the
//     same two-operand sum push computes, and each sibling adds only its
//     own W/s_u;
//   - Eq. (2): a singleton predecessor {w} makes the previous interval's
//     term W_prev/s_w + δ_first/b_{w,u}; the first addend is
//     sibling-independent and hoisted as a value, the sum itself keeps
//     push's association (term first, then lat + term);
//   - FP: a singleton's failure factor is 1.0·fp_u = fp_u.
//
// EvaluateManyW writes into a caller-provided scratch slice and performs
// zero heap allocations, preserving the per-node allocation contract of
// the search.

// BatchPrefix describes the shared partial mapping whose singleton
// sibling extensions one EvaluateManyW call scores: the charged latency
// and failure probability after Depth intervals (the engine's lat[Depth] /
// fail[Depth] accumulators) plus, on fully heterogeneous platforms with
// Depth ≥ 1, the previous interval's stage window and sole replica
// (whose Eq. (2) term is charged only now that its successor is known).
type BatchPrefix struct {
	Depth int     // intervals already chosen
	Lat   float64 // charged latency of the prefix
	Fail  float64 // failure probability of the prefix
	// PrevFirst, PrevLast and PrevProc describe interval Depth−1 on
	// fully heterogeneous platforms (ignored when Depth == 0 and on
	// communication-homogeneous platforms).
	PrevFirst, PrevLast, PrevProc int
}

// Sibling is one scored candidate of a batch: the prefix extended by
// interval [first, last] on the singleton replica set {Proc}.
type Sibling struct {
	Proc int     // the candidate replica
	Lat  float64 // charged latency including this interval (lat[Depth+1])
	Fail float64 // failure probability including this interval (fail[Depth+1])
	// LB is the latency floor of every completion before the tail bound:
	// callers add TailLatencyLB of the next stage to obtain the
	// branch-and-bound pruning bound. On
	// communication-homogeneous platforms LB == Lat (the interval's
	// compute cost is already charged); on fully heterogeneous platforms
	// LB = Lat + W/s_Proc (the pending interval's compute lower bound).
	LB float64
	// Final is the candidate's complete latency when last == n−1 (the
	// final output transfer included); 0 otherwise.
	Final float64
}

// EvaluateManyW scores every singleton sibling extension of the prefix by
// interval [first, last] on one processor u ∈ free (a replica set of
// Stride() words), in ascending processor order — the order of the *W
// single-candidate methods — writing the candidates into out (which must
// hold at least m entries) and returning how many were written. Zero heap
// allocations.
func (e *Evaluator) EvaluateManyW(pre BatchPrefix, first, last int, free bitset.Set, out []Sibling) int {
	work := e.p.Work(first, last)
	final := last == e.n-1
	nb := 0
	if e.commHom {
		base := pre.Lat + e.p.Delta[first]/e.b
		for w, word := range free {
			wbase := w * bitset.WordBits
			for bm := word; bm != 0; bm &= bm - 1 {
				u := wbase + bits.TrailingZeros64(bm)
				sb := &out[nb]
				nb++
				sb.Proc = u
				lat := base + work/e.pl.Speed[u]
				sb.Lat = lat
				sb.LB = lat
				sb.Fail = AccumFailure(pre.Fail, e.pl.FailProb[u])
				sb.Final = 0
				if final {
					sb.Final = lat + e.lbTail[e.n] // exact δ_n/b
				}
			}
		}
		return nb
	}
	var prevBase, outDelta float64
	if pre.Depth > 0 {
		prevBase = e.p.Work(pre.PrevFirst, pre.PrevLast) / e.pl.Speed[pre.PrevProc]
		outDelta = e.p.Delta[pre.PrevLast+1]
	}
	finalOut := e.p.Delta[e.n]
	prevRow := e.pl.B[pre.PrevProc]
	inDelta := e.p.Delta[0]
	for w, word := range free {
		wbase := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			u := wbase + bits.TrailingZeros64(bm)
			sb := &out[nb]
			nb++
			sb.Proc = u
			var lat float64
			if pre.Depth == 0 {
				lat = inDelta / e.pl.BIn[u]
			} else {
				term := prevBase + outDelta/prevRow[u]
				lat = pre.Lat + term
			}
			sb.Lat = lat
			compute := work / e.pl.Speed[u]
			sb.LB = lat + compute
			sb.Fail = AccumFailure(pre.Fail, e.pl.FailProb[u])
			sb.Final = 0
			if final {
				sb.Final = lat + (compute + finalOut/e.pl.BOut[u])
			}
		}
	}
	return nb
}
