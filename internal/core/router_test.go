package core

import (
	"context"
	"math"
	"reflect"
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

// TestRecorderDoesNotSteerRoute: a recorder only observes. Seeded with a
// warm profile saying the exact route takes 10s on this instance class,
// a solve under a 2s deadline (and under a 1h one) takes the same route
// and returns the same certainty, mapping and metric bits as a solve
// without a recorder.
func TestRecorderDoesNotSteerRoute(t *testing.T) {
	pr := hardHetInstance(t)
	for _, deadline := range []time.Duration{2 * time.Second, time.Hour} {
		rec := telemetry.NewRecorder()
		seedRoute(rec, pr.class(), telemetry.RouteExact, 25, 10*time.Second)
		solveBy := func(opts Options) Result {
			t.Helper()
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			defer cancel()
			res, err := SolveCtx(ctx, pr, opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got, want := solveBy(Options{Recorder: rec}), solveBy(Options{})
		if got.Route != "exact" || got.Certainty != ExhaustivelyOptimal {
			t.Fatalf("deadline %v: route = %q certainty = %v, want exact/ExhaustivelyOptimal", deadline, got.Route, got.Certainty)
		}
		if got.Route != want.Route || got.Certainty != want.Certainty || got.Method != want.Method {
			t.Fatalf("deadline %v: with recorder %q/%v/%q, without %q/%v/%q", deadline,
				got.Route, got.Certainty, got.Method, want.Route, want.Certainty, want.Method)
		}
		if !reflect.DeepEqual(got.Mapping, want.Mapping) {
			t.Fatalf("deadline %v: mapping with recorder %v, without %v", deadline, got.Mapping, want.Mapping)
		}
		if math.Float64bits(got.Metrics.Latency) != math.Float64bits(want.Metrics.Latency) ||
			math.Float64bits(got.Metrics.FailureProb) != math.Float64bits(want.Metrics.FailureProb) {
			t.Fatalf("deadline %v: metrics with recorder %+v, without %+v", deadline, got.Metrics, want.Metrics)
		}
		if n := rec.Solves(telemetry.RouteExact, telemetry.OutcomeOK); n != 1 {
			t.Fatalf("deadline %v: recorded exact/ok solves = %d, want 1", deadline, n)
		}
	}
}

// TestSolveRouteFieldWithoutRecorder: Result.Route is populated on every
// solve, recorder or not.
func TestSolveRouteFieldWithoutRecorder(t *testing.T) {
	pr := hardHetInstance(t)
	res, err := solve(pr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "exact" {
		t.Fatalf("route = %q, want exact", res.Route)
	}
	// Unconstrained min-FP routes through Theorem 1.
	res, err = solve(Problem{Pipeline: pr.Pipeline, Platform: pr.Platform, Objective: MinimizeFailureProb})
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
	snaps := rec.SolveStats()
	if len(snaps) != 1 || snaps[0].Class != pr.class() || snaps[0].Route != telemetry.RoutePoly || snaps[0].Count != 1 {
		t.Fatalf("profiles = %+v, want one poly cell with 1 sample", snaps)
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
	allocs := testing.AllocsPerRun(500, func() {
		if tr := startTrace(pr, Options{}); tr != nil {
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
	began := tr.begin()
	tr.end(telemetry.RouteExact, began, telemetry.OutcomeOK)
	tr.finish(&Result{}, nil)
}
