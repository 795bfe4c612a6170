package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// hardHetInstance builds a small fully-heterogeneous constrained instance
// that routes to solveHard, where the exact and heuristic routes
// compete.
func hardHetInstance(t *testing.T) Problem {
	t.Helper()
	p := pipeline.MustNew([]float64{2, 1, 3, 2}, []float64{1, 2, 1, 2, 1})
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 2, 3, 4},
		[]float64{0.1, 0.2, 0.15, 0.05},
		[][]float64{
			{0, 1, 2, 3},
			{1, 0, 4, 5},
			{2, 4, 0, 6},
			{3, 5, 6, 0},
		},
		[]float64{1, 2, 3, 4},
		[]float64{4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, commHom := pl.CommHomogeneous(); commHom {
		t.Fatal("fixture must be communication-heterogeneous")
	}
	return Problem{Pipeline: p, Platform: pl, Objective: MinimizeLatency, MaxFailProb: 0.9}
}

// seedRoute pre-warms a (class, route) latency profile with n samples of
// duration d, the deterministic stand-in for past traffic.
func seedRoute(rec *telemetry.Recorder, class telemetry.Class, route telemetry.Route, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		rec.ObserveRoute(class, route, d, telemetry.OutcomeOK)
	}
}

func (pr Problem) class() telemetry.Class {
	obj := telemetry.ObjLatency
	if pr.Objective == MinimizeFailureProb {
		obj = telemetry.ObjFP
	}
	_, commHom := pr.Platform.CommHomogeneous()
	return telemetry.ClassOf(pr.Pipeline.NumStages(), pr.Platform.NumProcs(), commHom, obj)
}

// TestAdaptiveRouterSkipsBlownRoute: with a warm profile saying the exact
// route's p95 (10s) cannot fit the remaining deadline (~2s), the router
// must choose the heuristic route up front and return a complete
// (non-Partial) heuristic answer instead of a deadline-truncated one.
func TestAdaptiveRouterSkipsBlownRoute(t *testing.T) {
	pr := hardHetInstance(t)
	rec := telemetry.NewRecorder()
	seedRoute(rec, pr.class(), telemetry.RouteExact, minRouteSamples+5, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := SolveCtx(ctx, pr, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "heuristic" {
		t.Fatalf("route = %q (method %q), want heuristic", res.Route, res.Method)
	}
	if res.Certainty != Heuristic {
		t.Fatalf("certainty = %v, want Heuristic (complete answer, not Partial)", res.Certainty)
	}
	if got := rec.RouteSkips(telemetry.RouteExact); got != 1 {
		t.Fatalf("exact skips = %d, want 1", got)
	}
	if got := rec.Solves(telemetry.RouteHeuristic, telemetry.OutcomeOK); got != 1 {
		t.Fatalf("recorded heuristic/ok solves = %d, want 1", got)
	}
}

// TestAdaptiveRouterGenerousDeadline: the same warm profile under a
// deadline with room for the exact route's p95 must still reach the
// exhaustive answer.
func TestAdaptiveRouterGenerousDeadline(t *testing.T) {
	pr := hardHetInstance(t)
	rec := telemetry.NewRecorder()
	seedRoute(rec, pr.class(), telemetry.RouteExact, minRouteSamples+5, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res, err := SolveCtx(ctx, pr, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "exact" || res.Certainty != ExhaustivelyOptimal {
		t.Fatalf("route = %q certainty = %v, want exact/ExhaustivelyOptimal", res.Route, res.Certainty)
	}
	if got := rec.RouteSkips(telemetry.RouteExact); got != 0 {
		t.Fatalf("exact skips = %d, want 0", got)
	}
}

// TestAdaptiveRouterColdProfileFallsBackToStructure: below minRouteSamples
// the profile must be ignored — structural gates route to exact even
// under a deadline the (sparse) samples would reject.
func TestAdaptiveRouterColdProfileFallsBackToStructure(t *testing.T) {
	pr := hardHetInstance(t)
	rec := telemetry.NewRecorder()
	seedRoute(rec, pr.class(), telemetry.RouteExact, minRouteSamples-1, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, err := SolveCtx(ctx, pr, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "exact" || res.Certainty != ExhaustivelyOptimal {
		t.Fatalf("route = %q certainty = %v, want exact (cold profile → structural gates)", res.Route, res.Certainty)
	}
}

// TestSolveRouteFieldWithoutRecorder: Result.Route is populated on every
// solve, recorder or not.
func TestSolveRouteFieldWithoutRecorder(t *testing.T) {
	pr := hardHetInstance(t)
	res, err := Solve(pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "exact" {
		t.Fatalf("route = %q, want exact", res.Route)
	}
	// Unconstrained min-FP routes through Theorem 1.
	res, err = Solve(Problem{Pipeline: pr.Pipeline, Platform: pr.Platform, Objective: MinimizeFailureProb})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "poly" {
		t.Fatalf("route = %q, want poly", res.Route)
	}
}

// TestRecorderObservesPolyRoute: single-leaf polynomial solves synthesize
// their one attempt from the total, so poly builds a profile too.
func TestRecorderObservesPolyRoute(t *testing.T) {
	pr := hardHetInstance(t)
	pr.Objective = MinimizeFailureProb
	pr.MaxLatency = 0 // unconstrained → Theorem 1
	pr.MaxFailProb = 0
	rec := telemetry.NewRecorder()
	if _, err := SolveCtx(context.Background(), pr, Options{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	class := pr.class()
	if _, n := rec.RouteQuantile(class, telemetry.RoutePoly, 0.5); n != 1 {
		t.Fatalf("poly profile samples = %d, want 1", n)
	}
	if got := rec.Solves(telemetry.RoutePoly, telemetry.OutcomeOK); got != 1 {
		t.Fatalf("poly/ok solves = %d, want 1", got)
	}
}

// TestNilRecorderTraceZeroAlloc: with no recorder configured, the trace
// machinery must stay off the solve path entirely — nil trace, zero
// allocations — so untelemetered solves keep the evaluator hot path's
// 0 allocs/op guarantee (see internal/mapping's AllocsPerRun tests).
func TestNilRecorderTraceZeroAlloc(t *testing.T) {
	pr := hardHetInstance(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(500, func() {
		if tr := startTrace(ctx, pr, Options{}); tr != nil {
			t.Fatal("trace without recorder must be nil")
		}
	})
	if allocs != 0 {
		t.Fatalf("startTrace with nil recorder allocates %v/op, want 0", allocs)
	}
}

// TestNilTraceMethods: every solveTrace method must be a no-op on nil.
func TestNilTraceMethods(t *testing.T) {
	var tr *solveTrace
	if !tr.fits(telemetry.RouteExact) {
		t.Fatal("nil trace must not gate any route")
	}
	began := tr.begin()
	tr.end(telemetry.RouteExact, began, telemetry.OutcomeOK)
	tr.finish(&Result{}, nil)
}
