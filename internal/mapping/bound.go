package mapping

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/platform"
)

// The failure-probability rule: the application fails when every
// replica of some interval fails. Interval j's replicas all fail with
// probability q_j = Π_{u∈alloc(j)} fp_u, the product taken in ascending
// processor id starting from 1 (ReplicaFailure, and the Evaluator's
// FailureFactor kernels); the intervals then combine in interval order
// through AccumFailure, starting from F = 0. That is
// FP = 1 − Π_j (1 − q_j) without the subtraction from 1, which cancels:
// every step adds a non-negative term, so F keeps its relative precision
// down to the smallest float, and F never decreases along a prefix (a
// prefix FP above a bound stays above it).

// AccumFailure returns the failure probability of a mapping prefix that
// fails with probability F once an interval whose replicas all fail with
// probability q is appended: F + q·(1 − F). The conversion keeps the
// product rounded on its own, so no platform fuses it into the addition
// and every caller gets the same bits.
func AccumFailure(F, q float64) float64 { return F + float64(q*(1-F)) }

// ReplicaFailure returns q for the replica set procs: the product of
// their fp_u in ascending processor id, whatever order procs lists them
// in (an unsorted list is sorted on a copy), so a set scores the same
// bits however a solver happened to collect it.
func ReplicaFailure(pl *platform.Platform, procs []int) float64 {
	if !slices.IsSorted(procs) {
		procs = slices.Sorted(slices.Values(procs))
	}
	q := 1.0
	for _, u := range procs {
		q *= pl.FailProb[u]
	}
	return q
}

// The bound rule: what a threshold on one criterion means to every
// solver. Both slacks are relative, so a bound means the same in any
// unit. They keep a bound set exactly on an achievable value feasible
// despite float rounding (Figure 5's L = 22; 0.1³ evaluates to
// 0.0010000000000000002, one ulp above F = 0.001).

// LatencySlack is the relative slack of a latency bound L: a latency
// meets L when it is at most L + LatencySlack·L.
const LatencySlack = 1e-9

// failProbSlack is the relative slack of a failure-probability bound F,
// a few ulps: a failure probability meets F when it is at most
// F + failProbSlack·F.
const failProbSlack = 0x1p-50

// CheckBounds rejects a negative or NaN latency bound and a
// failure-probability bound outside [0, 1].
func CheckBounds(maxLatency, maxFailProb float64) error {
	if maxLatency < 0 || math.IsNaN(maxLatency) {
		return fmt.Errorf("invalid latency bound %v: want ≥ 0 (0 or +Inf: unconstrained)", maxLatency)
	}
	if maxFailProb < 0 || maxFailProb > 1 || math.IsNaN(maxFailProb) {
		return fmt.Errorf("invalid failure-probability bound %v: want a value in [0, 1] (0 or 1: unconstrained)", maxFailProb)
	}
	return nil
}

// LatencyUnconstrained reports whether the latency bound L leaves the
// latency free: 0 and +Inf do.
func LatencyUnconstrained(L float64) bool { return L == 0 || math.IsInf(L, 1) }

// FailProbUnconstrained reports whether the failure-probability bound F
// leaves the failure probability free: 0 and 1 do.
func FailProbUnconstrained(F float64) bool { return F == 0 || F == 1 }

// LatencyBound returns the threshold L stands for: +Inf if unconstrained.
func LatencyBound(L float64) float64 {
	if LatencyUnconstrained(L) {
		return math.Inf(1)
	}
	return L
}

// FailProbBound returns the threshold F stands for: 1 if unconstrained.
func FailProbBound(F float64) float64 {
	if FailProbUnconstrained(F) {
		return 1
	}
	return F
}

// LatencyCap returns the largest latency that meets the bound L.
func LatencyCap(L float64) float64 { return L + LatencySlack*L }

// FailProbCap returns the largest failure probability that meets F.
func FailProbCap(F float64) float64 { return F + failProbSlack*F }

// LatencyWithin reports whether the latency x meets the bound L.
func LatencyWithin(x, L float64) bool { return x <= LatencyCap(L) }

// FailProbWithin reports whether the failure probability x meets F.
func FailProbWithin(x, F float64) bool { return x <= FailProbCap(F) }
