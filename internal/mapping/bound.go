package mapping

import (
	"fmt"
	"math"
)

// The bound rule: what a threshold on one criterion means to every
// solver. The slack keeps a bound set exactly on an achievable value
// feasible despite float rounding (Figure 5's L = 22; 0.1³ evaluates to
// 0.0010000000000000002, above F = 0.001).

// LatencySlack is the relative slack of a latency bound L: a latency
// meets L when it is at most L + LatencySlack·max(1, |L|).
const LatencySlack = 1e-9

// failProbSlack is the absolute slack of a failure-probability bound F: a
// failure probability meets F when it is at most F + failProbSlack.
const failProbSlack = 1e-12

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
func LatencyCap(L float64) float64 { return L + LatencySlack*math.Max(1, math.Abs(L)) }

// FailProbCap returns the largest failure probability that meets F.
func FailProbCap(F float64) float64 { return F + failProbSlack }

// LatencyWithin reports whether the latency x meets the bound L.
func LatencyWithin(x, L float64) bool { return x <= LatencyCap(L) }

// FailProbWithin reports whether the failure probability x meets F.
func FailProbWithin(x, F float64) bool { return x <= FailProbCap(F) }
