package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		n, m    int
		commHom bool
		obj     Obj
		want    string
	}{
		{1, 1, true, ObjLatency, "n1.m1.hom.lat"},
		{2, 11, true, ObjFP, "n2.m16.hom.fp"},
		{5, 64, false, ObjLatency, "n8.m64.het.lat"},
		{100, 150, false, ObjFP, "n128.m256.het.fp"},
		{8, 8, true, ObjLatency, "n8.m8.hom.lat"},
	}
	for _, c := range cases {
		got := ClassOf(c.n, c.m, c.commHom, c.obj)
		if got.String() != c.want {
			t.Errorf("ClassOf(%d, %d, %t, %v) = %q, want %q", c.n, c.m, c.commHom, c.obj, got, c.want)
		}
	}
	// Bucketing must be stable: same bucket for every n in (bucket/2, bucket].
	if ClassOf(5, 3, false, ObjLatency) != ClassOf(8, 4, false, ObjLatency) {
		t.Error("5→8 and 3→4 bucketing should collide with exact 8/4")
	}
}

func TestRouteRoundTrip(t *testing.T) {
	for r := RouteNone; r <= RouteRepair; r++ {
		if got := ParseRoute(r.String()); got != r {
			t.Errorf("ParseRoute(%q) = %v, want %v", r.String(), got, r)
		}
	}
	if ParseRoute("no-such-route") != RouteNone {
		t.Error("unknown route should parse to RouteNone")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	var reg Registry
	c1 := reg.Counter("x_total")
	c2 := reg.Counter("x_total")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	c1.Add(3)
	c1.Inc()
	if c2.Load() != 4 {
		t.Fatalf("counter = %d, want 4", c2.Load())
	}
	g := reg.Gauge("depth")
	g.Set(7)
	if reg.Gauge("depth").Load() != 7 {
		t.Fatal("gauge lost its value")
	}
	reg.Observe("lat", 5*time.Millisecond)
	if reg.Sketch("lat").Count() != 1 {
		t.Fatal("sketch lost its observation")
	}

	// Nil receivers are inert.
	var nilReg *Registry
	nilReg.Counter("a").Add(1)
	nilReg.Gauge("b").Set(1)
	nilReg.Observe("c", time.Second)
}

func TestRecorderRouteProfile(t *testing.T) {
	rec := NewRecorder()
	class := ClassOf(8, 16, false, ObjLatency)
	for i := 0; i < 100; i++ {
		rec.ObserveRoute(class, RouteExact, 50*time.Millisecond, OutcomeOK)
	}
	p95, n := rec.RouteQuantile(class, RouteExact, 0.95)
	if n != 100 {
		t.Fatalf("samples = %d, want 100", n)
	}
	if p95 < 40*time.Millisecond || p95 > 60*time.Millisecond {
		t.Fatalf("p95 = %v, want ≈50ms", p95)
	}
	// Unseen cells and nil recorders answer (0, 0).
	if _, n := rec.RouteQuantile(class, RouteRepair, 0.95); n != 0 {
		t.Fatal("unseen cell should have 0 samples")
	}
	var nilRec *Recorder
	if d, n := nilRec.RouteQuantile(class, RouteExact, 0.95); d != 0 || n != 0 {
		t.Fatal("nil recorder should answer (0, 0)")
	}
	nilRec.ObserveRoute(class, RouteExact, time.Second, OutcomeOK)
	nilRec.RecordSolve(SolveObservation{})
	nilRec.RecordRouteSkip(RouteExact)
}

func TestRecordSolveAggregates(t *testing.T) {
	rec := NewRecorder()
	class := ClassOf(2, 11, true, ObjFP)
	obs := SolveObservation{
		Class:     class,
		Route:     RouteExact,
		Outcome:   OutcomeOK,
		Certainty: "exhaustively_optimal",
		Total:     3 * time.Millisecond,
	}
	obs.AddAttempt(RouteExact, 3*time.Millisecond, OutcomeOK)
	rec.RecordSolve(obs)
	rec.RecordSolve(obs)

	if got := rec.Solves(RouteExact, OutcomeOK); got != 2 {
		t.Fatalf("finals = %d, want 2", got)
	}
	if got := rec.Counter("solve_total").Load(); got != 2 {
		t.Fatalf("solve_total = %d, want 2", got)
	}
	if got := rec.Counter("solve_certainty_exhaustively_optimal_total").Load(); got != 2 {
		t.Fatalf("certainty counter = %d, want 2", got)
	}
	if _, n := rec.RouteQuantile(class, RouteExact, 0.5); n != 2 {
		t.Fatalf("profile samples = %d, want 2", n)
	}

	snaps := rec.SolveStats()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	if snaps[0].Class != class || snaps[0].Route != RouteExact || snaps[0].Count != 2 {
		t.Fatalf("snapshot = %+v", snaps[0])
	}
	if snaps[0].Outcomes[OutcomeOK] != 2 {
		t.Fatalf("snapshot outcomes = %v", snaps[0].Outcomes)
	}
}

func TestRecorderSkipCounter(t *testing.T) {
	rec := NewRecorder()
	rec.RecordRouteSkip(RouteExact)
	rec.RecordRouteSkip(RouteExact)
	if got := rec.RouteSkips(RouteExact); got != 2 {
		t.Fatalf("skips = %d, want 2", got)
	}
	if got := rec.RouteSkips(RouteRepair); got != 0 {
		t.Fatalf("repair skips = %d, want 0", got)
	}
}

// TestRecorderConcurrent hammers every record path from many goroutines;
// the -race CI job runs this to hold the concurrency contract.
func TestRecorderConcurrent(t *testing.T) {
	rec := NewRecorder()
	classes := []Class{
		ClassOf(2, 4, true, ObjFP),
		ClassOf(16, 32, false, ObjLatency),
		ClassOf(100, 150, false, ObjFP),
	}
	var wg sync.WaitGroup
	const perG = 2000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			class := classes[g%len(classes)]
			for i := 0; i < perG; i++ {
				rec.ObserveRoute(class, Route(1+i%4), time.Duration(i)*time.Microsecond, Outcome(i%numOutcomes))
				rec.Counter("hammer_total").Inc()
				obs := SolveObservation{Class: class, Route: RouteExact, Outcome: OutcomeOK, Certainty: "heuristic"}
				obs.AddAttempt(RouteExact, time.Millisecond, OutcomeOK)
				rec.RecordSolve(obs)
			}
		}(g)
	}
	wg.Wait()
	if got := rec.Counter("hammer_total").Load(); got != 8*perG {
		t.Fatalf("counter = %d, want %d", got, 8*perG)
	}
	if got := rec.Solves(RouteExact, OutcomeOK); got != 8*perG {
		t.Fatalf("finals = %d, want %d", got, 8*perG)
	}
}

// TestRecorderWarmPathAllocs: recording on warm keys must not allocate.
func TestRecorderWarmPathAllocs(t *testing.T) {
	rec := NewRecorder()
	class := ClassOf(8, 8, true, ObjLatency)
	rec.ObserveRoute(class, RouteExact, time.Millisecond, OutcomeOK) // warm the cell
	c := rec.Counter("warm_total")
	allocs := testing.AllocsPerRun(500, func() {
		rec.ObserveRoute(class, RouteExact, time.Millisecond, OutcomeOK)
		c.Add(1)
		rec.RecordRouteSkip(RouteExact)
	})
	if allocs != 0 {
		t.Fatalf("warm record path allocates %.1f/op, want 0", allocs)
	}
}

func TestWritePrometheus(t *testing.T) {
	rec := NewRecorder()
	rec.Counter("serve_requests_total").Add(5)
	rec.Gauge("serve_cache_size").Set(3)
	rec.Sketch("exact_search_duration").Observe(2 * time.Millisecond)
	class := ClassOf(2, 11, true, ObjFP)
	obs := SolveObservation{Class: class, Route: RouteExact, Outcome: OutcomeOK, Certainty: "exhaustively_optimal", Total: time.Millisecond}
	obs.AddAttempt(RouteExact, time.Millisecond, OutcomeOK)
	rec.RecordSolve(obs)
	rec.RecordRouteSkip(RouteExact)

	var sb strings.Builder
	if err := rec.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		"serve_requests_total 5",
		"serve_cache_size 3",
		"# TYPE exact_search_duration_seconds histogram",
		"exact_search_duration_seconds_count 1",
		`solve_route_skips_total{route="exact"} 1`,
		`solve_outcomes_total{route="exact",outcome="ok"} 1`,
		`solve_route_duration_seconds_count{class="n2.m16.hom.fp",route="exact"} 1`,
		`le="+Inf"`,
		"solve_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
	// Nil recorder writes nothing and does not fail.
	var nilRec *Recorder
	if err := nilRec.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
}
