package sim

import (
	"math"

	"repro/internal/mapping"
)

// SurvivesFailures reports whether the mapped application survives a given
// crash pattern: every interval must keep at least one replica alive. This
// is the event whose probability the paper's FP formula computes.
func SurvivesFailures(m *mapping.Mapping, failed []bool) bool {
	for _, procs := range m.Alloc {
		anyAlive := false
		for _, u := range procs {
			if !failed[u] {
				anyAlive = true
				break
			}
		}
		if !anyAlive {
			return false
		}
	}
	return true
}

// FPEstimate is a Monte-Carlo estimate of the failure probability.
type FPEstimate struct {
	FP     float64 // fraction of trials that failed
	StdErr float64 // binomial standard error sqrt(p(1-p)/trials)
	Trials int
}

// Within reports whether the analytic value lies within k standard errors
// of the estimate (with a tiny absolute floor for p≈0 or p≈1 cases).
func (e FPEstimate) Within(analytic float64, k float64) bool {
	slack := k*e.StdErr + 1e-9
	return math.Abs(e.FP-analytic) <= slack
}

func maxStage(m *mapping.Mapping) int {
	last := 0
	for _, iv := range m.Intervals {
		if iv.Last > last {
			last = iv.Last
		}
	}
	return last
}
