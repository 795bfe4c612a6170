package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exact"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/workload"
)

// commHomCase is one seeded Communication-Homogeneous, failure-
// heterogeneous instance with its two constraint bounds.
type commHomCase struct {
	name          string
	n, m          int
	p             *pipeline.Pipeline
	pl            *platform.Platform
	maxLat, maxFP float64
}

// problems returns the min-FP and min-latency queries of c.
func (c commHomCase) problems() []Problem {
	return []Problem{
		{Pipeline: c.p, Platform: c.pl, Objective: MinimizeFailureProb, MaxLatency: c.maxLat},
		{Pipeline: c.p, Platform: c.pl, Objective: MinimizeLatency, MaxFailProb: c.maxFP},
	}
}

// commHomCases draws one instance per cell, including cells whose
// mapping estimate exceeds the exact budget (n4 m10, n5 m9, n5 m12,
// n3 m14). Bounds follow the serve benchmark's: minimum FP under 1.5×
// the latency of the whole pipeline on the fastest processor, minimum
// latency under that mapping's FP.
func commHomCases(t *testing.T) []commHomCase {
	t.Helper()
	cells := []struct{ n, m int }{{2, 8}, {3, 9}, {4, 8}, {5, 8}, {4, 10}, {5, 9}, {5, 12}, {3, 14}}
	rng := rand.New(rand.NewSource(14))
	cases := make([]commHomCase, 0, len(cells))
	for _, c := range cells {
		inst := workload.Random(rng, platform.CommHomogeneous, c.n, c.m)
		p, pl := inst.Pipeline, inst.Platform
		base, err := mapping.Evaluate(p, pl, mapping.NewSingleInterval(c.n, []int{pl.FastestProc()}))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, commHomCase{
			name: fmt.Sprintf("n%d m%d", c.n, c.m), n: c.n, m: c.m, p: p, pl: pl,
			maxLat: 1.5 * base.Latency, maxFP: base.FailureProb,
		})
	}
	return cases
}

// TestCommHomSolveEquivalence holds the router to the exact oracle on the
// open Communication-Homogeneous, failure-heterogeneous class (§4.4).
// Every cell routes to branch and bound, including those above the exact
// budget, and each subtest checks one contract on every cell:
//   - queries_match_oracle: both constrained queries route exact, grade
//     ExhaustivelyOptimal and match an unbounded, sequential search;
//   - mappings_reproduce_metrics: every answer is a valid mapping that
//     evaluates to the metrics it reports and meets its bound;
//   - infeasible: unmeetable bounds give ErrInfeasible;
//   - pre_canceled: a canceled context gives Partial or an error.
func TestCommHomSolveEquivalence(t *testing.T) {
	cases := commHomCases(t)
	oracle := exact.Options{MaxEnum: math.MaxInt64, Workers: 1}

	t.Run("queries_match_oracle", func(t *testing.T) {
		for _, c := range cases {
			wantFP, err := exact.MinFPUnderLatency(c.p, c.pl, c.maxLat, oracle)
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			wantLat, err := exact.MinLatencyUnderFP(c.p, c.pl, c.maxFP, oracle)
			if err != nil {
				t.Fatalf("%s: oracle: %v", c.name, err)
			}
			prs := c.problems()
			res, err := Solve(prs[0])
			checkCommHomExact(t, c.name+" minFP", res, err, res.Metrics.FailureProb, wantFP.Metrics.FailureProb)
			res, err = Solve(prs[1])
			checkCommHomExact(t, c.name+" minLatency", res, err, res.Metrics.Latency, wantLat.Metrics.Latency)
		}
	})

	t.Run("mappings_reproduce_metrics", func(t *testing.T) {
		for _, c := range cases {
			for _, pr := range c.problems() {
				res, err := Solve(pr)
				if err != nil {
					t.Errorf("%s %v: %v", c.name, pr.Objective, err)
					continue
				}
				if err := res.Mapping.Validate(c.n, c.m); err != nil {
					t.Errorf("%s %v: invalid mapping: %v", c.name, pr.Objective, err)
					continue
				}
				met, err := mapping.Evaluate(c.p, c.pl, res.Mapping)
				if err != nil {
					t.Fatal(err)
				}
				if !closeRel(met.Latency, res.Metrics.Latency) || !closeRel(met.FailureProb, res.Metrics.FailureProb) {
					t.Errorf("%s %v: mapping evaluates to %+v, result reports %+v", c.name, pr.Objective, met, res.Metrics)
				}
				if pr.Objective == MinimizeFailureProb && met.Latency > c.maxLat*(1+1e-9) {
					t.Errorf("%s: latency %.12g over bound %.12g", c.name, met.Latency, c.maxLat)
				}
				if pr.Objective == MinimizeLatency && met.FailureProb > c.maxFP+1e-12 {
					t.Errorf("%s: FP %.12g over bound %.12g", c.name, met.FailureProb, c.maxFP)
				}
			}
		}
	})

	// No mapping finishes before the input transfer alone, and none
	// fails less often than the whole pipeline replicated everywhere
	// (Theorem 1). FP bounds carry an absolute 1e-12 slack, so the
	// second check needs that optimum well above it.
	t.Run("infeasible", func(t *testing.T) {
		for _, c := range cases {
			if _, err := Solve(Problem{Pipeline: c.p, Platform: c.pl, Objective: MinimizeFailureProb, MaxLatency: 1e-6}); !errors.Is(err, ErrInfeasible) {
				t.Errorf("%s: unmeetable latency bound: err = %v, want ErrInfeasible", c.name, err)
			}
			allFP := 1.0
			for _, fp := range c.pl.FailProb {
				allFP *= fp
			}
			if allFP <= 1e-10 {
				t.Logf("%s: FP optimum %.3g too small for an unmeetable bound", c.name, allFP)
				continue
			}
			if _, err := Solve(Problem{Pipeline: c.p, Platform: c.pl, Objective: MinimizeLatency, MaxFailProb: allFP / 2}); !errors.Is(err, ErrInfeasible) {
				t.Errorf("%s: unmeetable FP bound: err = %v, want ErrInfeasible", c.name, err)
			}
		}
	})

	t.Run("pre_canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, c := range cases {
			for _, pr := range c.problems() {
				res, err := SolveCtx(ctx, pr, Options{})
				if err != nil {
					continue
				}
				if res.Certainty != Partial {
					t.Errorf("%s %v: pre-canceled solve graded %v, want Partial", c.name, pr.Objective, res.Certainty)
				}
				if err := res.Mapping.Validate(c.n, c.m); err != nil {
					t.Errorf("%s %v: pre-canceled solve: invalid mapping: %v", c.name, pr.Objective, err)
				}
			}
		}
	})
}

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

func checkCommHomExact(t *testing.T, name string, res Result, err error, got, want float64) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if res.Route != "exact" || res.Certainty != ExhaustivelyOptimal {
		t.Errorf("%s: route %q certainty %v, want exact and exhaustively optimal", name, res.Route, res.Certainty)
	}
	if !closeRel(got, want) {
		t.Errorf("%s: objective %.12g, oracle %.12g", name, got, want)
	}
}
