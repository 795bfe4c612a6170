package repro_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro"
)

// closeTo allows float-reassociation noise between evaluation orders.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// Wide-platform (m > 64) session behavior: construction caches the
// multi-word evaluator, Evaluate stays bitwise identical to the package
// path, solves complete (heuristically, the replication space being
// astronomically large), beam search accepts the width, and deadlines
// still grade results Partial — i.e. WithWorkers / budgets / cancellation
// behave uniformly past 64 processors.

func TestSessionWidePlatformEvaluate(t *testing.T) {
	pipe := rampPipeline(t, 6)
	plat := hetPlatform(t, 80)
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatalf("NewSession at m=80: %v", err)
	}
	// Replica ids on both sides of the word boundary.
	m := &repro.Mapping{
		Intervals: []repro.Interval{{First: 0, Last: 2}, {First: 3, Last: 5}},
		Alloc:     [][]int{{3, 70}, {10, 79}},
	}
	want, err := repro.Evaluate(pipe, plat, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("wide session Evaluate = %+v, package Evaluate = %+v (must be bitwise identical)", got, want)
	}
	bad := &repro.Mapping{
		Intervals: []repro.Interval{{First: 0, Last: 5}},
		Alloc:     [][]int{{99}},
	}
	if _, err := s.Evaluate(bad); err == nil {
		t.Error("mapping using processor 99 on an 80-processor platform must fail validation")
	}
}

func TestSessionWidePlatformSolve(t *testing.T) {
	// m = 66 crosses the word boundary while keeping the O(m³)-ish greedy
	// improvement rounds of the heuristic route test-sized.
	pipe := rampPipeline(t, 4)
	plat := hetPlatform(t, 66)
	var ref repro.Result
	for i, workers := range []int{1, 4} {
		s, err := repro.NewSession(pipe, plat, repro.WithWorkers(workers), repro.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background(), repro.SolveRequest{
			Objective:  repro.MinimizeFailureProb,
			MaxLatency: 200,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.Mapping.Validate(pipe.NumStages(), plat.NumProcs()); err != nil {
			t.Fatalf("workers=%d: invalid mapping: %v", workers, err)
		}
		// Heuristic mappings may list replicas in non-ascending order, and
		// the bitmask evaluator sums in ascending id order, so allow float
		// reassociation noise (bitwise identity is the enumeration-order
		// contract, covered by the exact-path tests).
		met, err := s.Evaluate(res.Mapping)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !closeTo(met.Latency, res.Metrics.Latency) || !closeTo(met.FailureProb, res.Metrics.FailureProb) {
			t.Fatalf("workers=%d: result does not reproduce its metrics (%+v vs %+v)", workers, met, res.Metrics)
		}
		if i == 0 {
			ref = res
		} else if res.Metrics != ref.Metrics || res.Mapping.String() != ref.Mapping.String() {
			t.Errorf("workers=%d: %+v differs from workers=1 result %+v", workers, res, ref)
		}
	}
}

func TestSessionWideBeamSearch(t *testing.T) {
	pipe := rampPipeline(t, 6)
	plat := hetPlatform(t, 80)
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	mp, met, err := s.BeamSearchMinLatency(context.Background(), 8)
	if err != nil {
		t.Fatalf("beam search at m=80: %v", err)
	}
	if err := mp.Validate(pipe.NumStages(), plat.NumProcs()); err != nil {
		t.Fatalf("beam mapping invalid: %v", err)
	}
	if check, err := s.Evaluate(mp); err != nil || check != met {
		t.Fatalf("beam metrics not reproducible (%v, %v)", check, err)
	}
}

// TestSessionWideForceHeuristicFast pins the headline of the heuristics
// delta refactor: a full-het m=80 heuristic-route Solve with a binding
// latency bound completes in well under 2s (the pre-refactor clone-path
// greedy spent ~28s in its improvement rounds on this shape). The bound
// is relaxed under the race detector, whose instrumentation slows the
// sweeps by an order of magnitude.
func TestSessionWideForceHeuristicFast(t *testing.T) {
	pipe := rampPipeline(t, 12)
	plat := hetPlatform(t, 80)
	s, err := repro.NewSession(pipe, plat, repro.WithForceHeuristic(true))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := s.Solve(context.Background(), repro.SolveRequest{
		Objective:  repro.MinimizeFailureProb,
		MaxLatency: 20,
	})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	limit := 2 * time.Second
	if raceEnabled {
		limit = 20 * time.Second
	}
	if elapsed > limit {
		t.Errorf("m=80 ForceHeuristic solve took %v, want < %v", elapsed, limit)
	}
	if res.Certainty != repro.Heuristic {
		t.Errorf("certainty = %v, want Heuristic", res.Certainty)
	}
	if err := res.Mapping.Validate(pipe.NumStages(), plat.NumProcs()); err != nil {
		t.Errorf("invalid mapping: %v", err)
	}
	if met, err := s.Evaluate(res.Mapping); err != nil || !closeTo(met.Latency, res.Metrics.Latency) {
		t.Errorf("result does not reproduce its metrics (%+v vs %+v, %v)", met, res.Metrics, err)
	}
}

func TestSessionWideDeadlinePartial(t *testing.T) {
	pipe := rampPipeline(t, 12)
	plat := hetPlatform(t, 80)
	s, err := repro.NewSession(pipe, plat, repro.WithDeadline(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := s.Solve(context.Background(), repro.SolveRequest{
		Objective:  repro.MinimizeFailureProb,
		MaxLatency: 1e9,
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline-bounded wide solve took %v", elapsed)
	}
	if err != nil {
		t.Fatalf("deadline-bounded wide solve failed outright: %v", err)
	}
	if res.Mapping == nil {
		t.Fatal("deadline-bounded wide solve returned no mapping")
	}
	if err := res.Mapping.Validate(pipe.NumStages(), plat.NumProcs()); err != nil {
		t.Errorf("partial mapping invalid: %v", err)
	}
}
