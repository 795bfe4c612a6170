package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// hetInstanceSpec renders the small fully-heterogeneous constrained
// instance (the core router-test fixture) as a solve request: minimize
// latency under an FP bound, so the solver lands in the hard class where
// exact and heuristic compete and the adaptive router has a choice.
func hetInstanceSpec(t *testing.T, extra string) []byte {
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
	pj, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	plj, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"pipeline": %s, "platform": %s, "objective": "minLatency", "maxFailProb": 0.9%s}`, pj, plj, extra))
}

// hetClass is the instance class of hetInstanceSpec as the recorder keys
// it: 4 stages, 4 processors, communication-heterogeneous, min-latency.
func hetClass() telemetry.Class {
	return telemetry.ClassOf(4, 4, false, telemetry.ObjLatency)
}

// TestStatsJSONBackwardCompat pins the wire shape of GET /v1/stats: every
// pre-telemetry field must stay present under its original JSON key (the
// counters moved from ad-hoc atomics onto the telemetry registry, which
// must not be visible on the wire), and the new latency profiles appear
// once a solve has been recorded.
func TestStatsJSONBackwardCompat(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	postJSON(t, srv, "/v1/solve", fig5Spec(t, "")).Body.Close()

	resp := mustGet(t, srv, "/v1/stats")
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"requests", "cacheHits", "cacheMisses", "cacheSize", "cacheEvicted",
		"panics", "shed", "coalesced", "solves", "breakerState", "breakerTrips",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("stats JSON lost pre-telemetry key %q: %s", key, raw)
		}
	}
	if doc["requests"].(float64) != 1 || doc["solves"].(float64) != 1 {
		t.Errorf("requests/solves = %v/%v, want 1/1", doc["requests"], doc["solves"])
	}
	latency, ok := doc["latency"].(map[string]any)
	if !ok || len(latency) == 0 {
		t.Fatalf("stats JSON must carry per-class latency profiles after a solve: %s", raw)
	}
	for class, routes := range latency {
		for route, cell := range routes.(map[string]any) {
			c := cell.(map[string]any)
			if c["count"].(float64) < 1 {
				t.Errorf("latency[%s][%s].count = %v, want ≥ 1", class, route, c["count"])
			}
			if _, ok := c["p95Millis"]; !ok {
				t.Errorf("latency[%s][%s] has no p95Millis", class, route)
			}
		}
	}
}

// TestSolveResponseRouteField: every solve answer names the route that
// produced it, matching the profile keys in /v1/stats.
func TestSolveResponseRouteField(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", fig5Spec(t, "")))
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	switch res.Route {
	case "poly", "exact", "heuristic":
	default:
		t.Fatalf("route = %q, want a solver route name", res.Route)
	}
}

// TestMetricsEndpoint: GET /metrics serves the registry in Prometheus
// text exposition, including the serve counters and the per-class route
// duration histograms.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	postJSON(t, srv, "/v1/solve", fig5Spec(t, "")).Body.Close()

	resp := mustGet(t, srv, "/metrics")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want Prometheus text exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"serve_requests_total 1",
		"serve_solves_total 1",
		"solve_total 1",
		"solve_route_duration_seconds_bucket",
		"serve_cache_sessions 1",
		"serve_breaker_state 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %q:\n%s", want, text)
		}
	}
}

// TestMetricsHandlerStandalone: the standalone handler serves the same
// exposition without going through the service mux (the -metrics side
// listener of cmd/pipeserve).
func TestMetricsHandlerStandalone(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "serve_requests_total 0") {
		t.Errorf("standalone metrics handler output:\n%s", body)
	}
}

// TestAdaptiveRoutingEndToEnd drives the full loop at the HTTP layer:
// with the service recorder pre-seeded so the exact route's p95 for this
// instance class reads 10s, a request whose deadlineMillis cannot absorb
// that must be routed to the heuristic up front — a complete answer, not
// a budget-blown partial — while a generous deadline still reaches the
// exhaustive search.
func TestAdaptiveRoutingEndToEnd(t *testing.T) {
	svc := New(Config{})
	for i := 0; i < 25; i++ {
		svc.Recorder().ObserveRoute(hetClass(), telemetry.RouteExact, 10*time.Second, telemetry.OutcomeOK)
	}
	srv := httptest.NewServer(svc)
	defer srv.Close()

	res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", hetInstanceSpec(t, `, "deadlineMillis": 2000`)))
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	if res.Route != "heuristic" {
		t.Fatalf("route = %q (method %q), want heuristic under a 2s deadline vs a 10s exact p95", res.Route, res.Method)
	}
	if res.Partial {
		t.Fatalf("adaptive routing must yield a complete heuristic answer, got partial: %+v", res)
	}
	if res.Mapping == nil {
		t.Fatal("no mapping returned")
	}

	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.RouteSkips["exact"] != 1 {
		t.Errorf("routeSkips = %v, want exact:1", stats.RouteSkips)
	}

	// Same instance, generous deadline: the exact route fits again. The
	// deadline participates in the coalescing key, so this is a fresh
	// solve despite the warm session.
	res = decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", hetInstanceSpec(t, `, "deadlineMillis": 3600000`)))
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	if res.Route != "exact" {
		t.Fatalf("route = %q, want exact under a generous deadline", res.Route)
	}
	if res.Certainty != "exhaustively optimal" {
		t.Errorf("certainty = %q, want exhaustively optimal", res.Certainty)
	}
}

// TestSolveLogHook: Config.SolveLog observes every completed solve with
// its route, instance size and timing.
func TestSolveLogHook(t *testing.T) {
	var mu sync.Mutex
	var entries []SolveLogEntry
	srv := httptest.NewServer(New(Config{SolveLog: func(e SolveLogEntry) {
		mu.Lock()
		entries = append(entries, e)
		mu.Unlock()
	}}))
	defer srv.Close()

	res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", fig5Spec(t, "")))
	if res.Error != "" {
		t.Fatal(res.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(entries) != 1 {
		t.Fatalf("logged %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Route == "" || e.Route != res.Route {
		t.Errorf("entry route = %q, want %q", e.Route, res.Route)
	}
	if e.N <= 0 || e.M <= 0 {
		t.Errorf("entry instance size = %d×%d, want positive", e.N, e.M)
	}
	if e.Elapsed <= 0 {
		t.Errorf("entry elapsed = %v, want > 0", e.Elapsed)
	}
	if e.Err != "" || e.Partial {
		t.Errorf("unexpected error/partial in entry: %+v", e)
	}
}
