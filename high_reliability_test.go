package repro_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro"
	"repro/internal/exact"
	"repro/internal/throughput"
)

// TestTheorem1HighReliability: replicating on all four processors of fp
// 1e-5 fails with probability 1e-20, far below the ulp of 1; Theorem 1's
// answer must report it, not 0.
func TestTheorem1HighReliability(t *testing.T) {
	pl, err := repro.NewFullyHomogeneousPlatform(4, 1, 1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := repro.NewSession(repro.UniformPipeline(3, 1, 1), pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != repro.ProvablyOptimal || math.Abs(res.Metrics.FailureProb-1e-20) > 8*0x1p-53*1e-20 {
		t.Errorf("%s: FP %g graded %v, want 1e-20 graded provably optimal", res.Method, res.Metrics.FailureProb, res.Certainty)
	}
}

// TestFailProbBoundIsRelative: the FP slack scales with the bound. Six
// replicas of fp 0.01 fail with probability 1e-12, ten times the bound
// 1e-13, so both the Algorithm 2 route and exhaustive search must answer
// infeasible; fp 0.1 still meets 0.001 with three replicas, though 0.1³
// rounds above it.
func TestFailProbBoundIsRelative(t *testing.T) {
	p := repro.UniformPipeline(1, 6, 1)
	for _, c := range []struct {
		fp, bound float64
		replicas  int // 0: infeasible
	}{{0.01, 1e-13, 0}, {0.1, 0.001, 3}} {
		pl, err := repro.NewFullyHomogeneousPlatform(6, 1, 1, c.fp)
		if err != nil {
			t.Fatal(err)
		}
		s, err := repro.NewSession(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeLatency, MaxFailProb: c.bound})
		ex, exErr := exact.MinLatencyUnderFP(p, pl, c.bound, exact.Options{})
		if c.replicas == 0 {
			if !errors.Is(err, repro.ErrInfeasible) || !errors.Is(exErr, exact.ErrInfeasible) {
				t.Errorf("fp %v, bound %v: Solve err %v (%s, FP %g), exact err %v (FP %g); want both infeasible",
					c.fp, c.bound, err, res.Method, res.Metrics.FailureProb, exErr, ex.Metrics.FailureProb)
			}
			continue
		}
		if err != nil || exErr != nil {
			t.Fatalf("fp %v, bound %v: Solve err %v, exact err %v", c.fp, c.bound, err, exErr)
		}
		if got := len(res.Mapping.UsedProcs()); got != c.replicas || res.Metrics != ex.Metrics {
			t.Errorf("fp %v, bound %v: Solve %d replicas %+v, exact %+v; want %d replicas, equal metrics",
				c.fp, c.bound, got, res.Metrics, ex.Metrics, c.replicas)
		}
	}
}

// TestLatencyBoundScaleFree: a latency bound means the same in any unit.
// Scaling w and δ by 2⁻²⁴ scales every latency exactly, so with bounds
// set 1e-7 below achievable latencies (the Pareto front's), every route —
// Algorithms 1 and 3, exhaustive search, the greedy heuristic — must
// return the same mapping, its latency scaled bitwise and its FP equal.
func TestLatencyBoundScaleFree(t *testing.T) {
	const scale = 0x1p-24
	w, delta := []float64{3, 7, 2, 5}, []float64{2, 1, 4, 3, 1}
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * scale
		}
		return out
	}
	p, err := repro.NewPipeline(w, delta)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := repro.NewPipeline(scaled(w), scaled(delta))
	if err != nil {
		t.Fatal(err)
	}
	fullyHom, _ := repro.NewFullyHomogeneousPlatform(5, 2, 1, 0.2)
	failHom, _ := repro.NewCommHomogeneousPlatform([]float64{1, 2, 3, 4, 5}, []float64{0.2, 0.2, 0.2, 0.2, 0.2}, 1)
	commHom, _ := repro.NewCommHomogeneousPlatform([]float64{1, 2, 3, 4, 5}, []float64{0.3, 0.1, 0.25, 0.05, 0.2}, 2)
	het := hetPlatform(t, 5)
	answers := 0
	for _, c := range []struct {
		name  string
		pl    *repro.Platform
		route string
		opts  []repro.SessionOption
	}{
		{"Algorithm 1", fullyHom, "poly", nil},
		{"Algorithm 3", failHom, "poly", nil},
		{"comm-hom exact", commHom, "exact", nil},
		{"het exact", het, "exact", nil},
		{"het greedy", het, "heuristic", []repro.SessionOption{repro.WithForceHeuristic(true)}},
	} {
		ref, err := repro.NewSession(p, c.pl)
		if err != nil {
			t.Fatal(err)
		}
		front, _, err := ref.Pareto(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		s, err := repro.NewSession(p, c.pl, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := repro.NewSession(ps, c.pl, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range front.Entries() {
			bound := e.Metrics.Latency - 1e-7
			res, err := s.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: bound})
			resS, errS := ss.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: bound * scale})
			if (err == nil) != (errS == nil) {
				t.Fatalf("%s, bound %v: err %v, scaled err %v", c.name, bound, err, errS)
			}
			if err != nil {
				continue
			}
			answers++
			if res.Route != c.route {
				t.Errorf("%s, bound %v: route %s, want %s", c.name, bound, res.Route, c.route)
			}
			if res.Mapping.String() != resS.Mapping.String() || res.Metrics.Latency*scale != resS.Metrics.Latency ||
				res.Metrics.FailureProb != resS.Metrics.FailureProb {
				t.Errorf("%s, bound %v: %s %+v, scaled %s %+v", c.name, bound, res.Mapping, res.Metrics, resS.Mapping, resS.Metrics)
			}
		}
	}
	if answers < 20 {
		t.Errorf("only %d feasible answers compared, want ≥ 20", answers)
	}
}

// TestMinPeriodBoundRule: the period solvers read bounds as every other
// solver does — 0 is unconstrained like +Inf, out-of-range bounds are
// rejected rather than reported infeasible.
func TestMinPeriodBoundRule(t *testing.T) {
	s, err := repro.NewSession(repro.UniformPipeline(2, 2, 1), hetPlatform(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	free, err := s.MinPeriod(ctx, math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := s.MinPeriod(ctx, 0, 0)
	if err != nil || zero.Metrics != free.Metrics {
		t.Errorf("MinPeriod(0, 0) = %+v, %v; want %+v as unconstrained", zero.Metrics, err, free.Metrics)
	}
	res, err := s.Solve(ctx, repro.SolveRequest{Objective: repro.MinimizeLatency})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GreedyRoundRobin(ctx, res.Mapping, 0, 1); err != nil {
		t.Errorf("GreedyRoundRobin(0, 1): %v, want unconstrained", err)
	}
	for _, b := range [][2]float64{{-5, 7}, {10, -0.1}, {math.NaN(), 0.5}} {
		if _, err := s.MinPeriod(ctx, b[0], b[1]); err == nil || errors.Is(err, throughput.ErrInfeasible) {
			t.Errorf("MinPeriod(%v, %v): err %v, want the bounds rejected", b[0], b[1], err)
		}
		if _, err := s.GreedyRoundRobin(ctx, res.Mapping, b[0], b[1]); err == nil || errors.Is(err, throughput.ErrInfeasible) {
			t.Errorf("GreedyRoundRobin(%v, %v): err %v, want the bounds rejected", b[0], b[1], err)
		}
	}
}
