package mapping

import (
	"math"
	"testing"
)

// TestBoundRule pins what a threshold means: the rejected values, the
// unconstrained sentinels and the slack that keeps a threshold set on an
// achievable value feasible.
func TestBoundRule(t *testing.T) {
	for _, b := range [][2]float64{{-1, 0.5}, {math.NaN(), 0.5}, {math.Inf(-1), 0.5}, {10, -0.1}, {10, 1.5}, {10, math.NaN()}} {
		if CheckBounds(b[0], b[1]) == nil {
			t.Errorf("CheckBounds(%v, %v) accepted", b[0], b[1])
		}
	}
	for _, b := range [][2]float64{{0, 0}, {math.Inf(1), 1}, {22, 0.001}} {
		if err := CheckBounds(b[0], b[1]); err != nil {
			t.Errorf("CheckBounds(%v, %v): %v", b[0], b[1], err)
		}
	}

	if LatencyBound(0) != math.Inf(1) || LatencyBound(math.Inf(1)) != math.Inf(1) || LatencyBound(22) != 22 {
		t.Error("LatencyBound: 0 and +Inf must read +Inf, any other bound itself")
	}
	if FailProbBound(0) != 1 || FailProbBound(1) != 1 || FailProbBound(0.25) != 0.25 {
		t.Error("FailProbBound: 0 and 1 must read 1, any other bound itself")
	}

	fp := 0.1 // a variable: constant arithmetic would be exact
	cube := fp * fp * fp
	if cube <= 0.001 || !FailProbWithin(cube, 0.001) || FailProbWithin(0.001*(1+2*failProbSlack), 0.001) {
		t.Errorf("FailProbWithin: 0.1³ = %v must meet 0.001, 0.001·(1 + 2·slack) must not", cube)
	}
	if FailProbWithin(1e-12, 1e-13) || !FailProbWithin(1e-300, 1e-300) || FailProbWithin(2e-300, 1e-300) {
		t.Error("FailProbWithin: want a slack relative to F at any magnitude")
	}
	for _, L := range []float64{22, 22 * 0x1p-24, 1e-300} {
		if !LatencyWithin(L*(1+LatencySlack/2), L) || LatencyWithin(L*(1+2*LatencySlack), L) {
			t.Errorf("LatencyWithin: want a slack relative to L = %v", L)
		}
	}
	if !LatencyWithin(1e300, math.Inf(1)) {
		t.Error("LatencyWithin: +Inf must admit every latency")
	}
}
