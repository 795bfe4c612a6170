package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

// fig5Spec renders the paper's Figure 5 instance as a request document,
// exercising the full JSON decode path (not just struct literals).
func fig5Spec(t *testing.T, extra string) []byte {
	t.Helper()
	p, pl := workload.Fig5()
	pj, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	plj, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"pipeline": %s, "platform": %s, "objective": "minFailureProb", "maxLatency": 22%s}`, pj, plj, extra)
	return []byte(doc)
}

func postJSON(t *testing.T, srv *httptest.Server, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSolveEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	res := decodeBody[SolveResult](t, resp)
	if res.Error != "" {
		t.Fatalf("unexpected solver error: %s", res.Error)
	}
	if res.Mapping == nil {
		t.Fatal("no mapping returned")
	}
	// The Figure 5 optimum: FP 0.196637 at latency 22 (paper §3).
	if math.Abs(res.FailureProb-0.196637) > 1e-5 {
		t.Errorf("failureProb = %v, want ≈0.196637", res.FailureProb)
	}
	if res.Latency > 22+1e-9 {
		t.Errorf("latency = %v exceeds the budget 22", res.Latency)
	}
	if res.Partial {
		t.Errorf("unexpected partial answer: %+v", res)
	}
	if res.CacheHit {
		t.Error("first request cannot be a cache hit")
	}
}

func TestBatchSolveEndToEnd(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	// A batch mixing objectives plus one infeasible and one malformed-free
	// problem; results must come back in request order with per-item
	// errors in-band.
	p, pl := workload.Fig5()
	pj, _ := json.Marshal(p)
	plj, _ := json.Marshal(pl)
	batch := fmt.Sprintf(`{"problems": [
		{"pipeline": %s, "platform": %s, "objective": "minFailureProb", "maxLatency": 22},
		{"pipeline": %s, "platform": %s, "objective": "minLatency"},
		{"pipeline": %s, "platform": %s, "objective": "minFailureProb", "maxLatency": 0.0001}
	]}`, pj, plj, pj, plj, pj, plj)

	resp := postJSON(t, srv, "/v1/solve/batch", []byte(batch))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeBody[BatchResponse](t, resp)
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Error != "" || math.Abs(out.Results[0].FailureProb-0.196637) > 1e-5 {
		t.Errorf("result 0 = %+v, want the Figure 5 optimum", out.Results[0])
	}
	if out.Results[1].Error != "" || out.Results[1].Mapping == nil {
		t.Errorf("result 1 = %+v, want a latency-minimal mapping", out.Results[1])
	}
	if out.Results[1].Latency >= out.Results[0].Latency {
		t.Errorf("unconstrained min latency %v should beat the FP-optimal mapping's %v",
			out.Results[1].Latency, out.Results[0].Latency)
	}
	if out.Results[2].Error == "" || !strings.Contains(out.Results[2].Error, "infeasible") {
		t.Errorf("result 2 = %+v, want an infeasibility error", out.Results[2])
	}

	// Identical instances across the batch share one warm session.
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.Requests != 3 {
		t.Errorf("requests = %d, want 3", stats.Requests)
	}
	if stats.CacheMisses != 1 || stats.CacheHits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1 (one warm session reused)", stats.CacheHits, stats.CacheMisses)
	}
}

// TestStatsEngineCounters: an exact-route solve must surface the search
// engine's counters in the stats Engine map and on /metrics. The fully
// heterogeneous instance skips the poly and DP routes and lands in the
// branch-and-bound, which registers the whole counter family on its
// first run. The replication solver behind this route scores candidates
// one at a time, so the batch and memo series are asserted present
// (registered at zero) rather than incremented — the batch path's >=1
// coverage lives in the engine and benchmark suites.
func TestStatsEngineCounters(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	preStats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if preStats.Engine != nil {
		t.Fatalf("engine counters = %v before any exact solve, want absent", preStats.Engine)
	}

	res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", hetInstanceSpec(t, "")))
	if res.Error != "" || res.Route != "exact" {
		t.Fatalf("result = %+v, want an exact-route answer", res)
	}

	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	for _, name := range []string{"exact_runs_total", "exact_nodes_total"} {
		if stats.Engine[name] < 1 {
			t.Errorf("engine counters = %v, want %s >= 1", stats.Engine, name)
		}
	}
	for _, name := range []string{"exact_batch_calls_total", "exact_batch_candidates_total", "exact_incumbent_prunes_total", "exact_memo_hits_total", "exact_memo_misses_total"} {
		if _, ok := stats.Engine[name]; !ok {
			t.Errorf("engine counters = %v, want the %s series present", stats.Engine, name)
		}
	}

	resp := mustGet(t, srv, "/metrics")
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "exact_nodes_total") {
		t.Error("/metrics does not export the exact-search counters")
	}
}

func TestSessionCacheReuseAcrossRequests(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, ""))
		res := decodeBody[SolveResult](t, resp)
		if res.Error != "" {
			t.Fatalf("request %d: %s", i, res.Error)
		}
		if want := i > 0; res.CacheHit != want {
			t.Errorf("request %d: cacheHit = %v, want %v", i, res.CacheHit, want)
		}
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.CacheSize != 1 || stats.CacheHits != 2 || stats.CacheMisses != 1 {
		t.Errorf("stats = %+v, want 1 warm session with 2 hits / 1 miss", stats)
	}
}

// hardInstanceDoc renders a fully heterogeneous 100×150 instance as a
// solve request with the given deadline. The instance is big enough that
// neither the exact enumeration nor the greedy/annealing fallback can
// finish within a 1ms deadline (even allowing for coarse timer
// granularity), so the solver must return a best-effort mapping marked
// partial instead of blocking. The latency bound is binding (full
// replication busts it), so greedy grows the mapping over many
// improvement rounds — the delta-evaluation rounds are fast enough that
// an unconstrained 40×40 instance now completes before a 1ms timer can
// even fire.
func hardInstanceDoc(t *testing.T, deadlineMillis int64) []byte {
	t.Helper()
	n, m := 100, 150
	w := make([]float64, n)
	delta := make([]float64, n+1)
	for i := range w {
		w[i] = float64(10 + i)
	}
	for i := range delta {
		delta[i] = float64(1 + i%3)
	}
	speed := make([]float64, m)
	fp := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	b := make([][]float64, m)
	for u := 0; u < m; u++ {
		speed[u] = float64(1 + u)
		fp[u] = 0.05 + 0.9*float64(u)/float64(m)
		bIn[u] = 1 + 0.1*float64(u)
		bOut[u] = 1 + 0.2*float64(u)
		b[u] = make([]float64, m)
		for v := 0; v < m; v++ {
			if u != v {
				b[u][v] = 1 + 0.05*float64(u+v)
			}
		}
	}
	doc, err := json.Marshal(map[string]any{
		"pipeline":       map[string]any{"w": w, "delta": delta},
		"platform":       map[string]any{"speed": speed, "failProb": fp, "b": b, "bIn": bIn, "bOut": bOut},
		"objective":      "minFailureProb",
		"maxLatency":     100,
		"deadlineMillis": deadlineMillis,
	})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestPerRequestDeadlineYieldsPartial(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	resp := postJSON(t, srv, "/v1/solve", hardInstanceDoc(t, 1))
	res := decodeBody[SolveResult](t, resp)
	if res.Error != "" {
		t.Fatalf("expected a best-effort mapping, got error: %s", res.Error)
	}
	if !res.Partial {
		t.Errorf("result should be partial under a 1ms deadline: %+v", res)
	}
	if res.Mapping == nil {
		t.Error("partial result must still carry a mapping")
	}
	if !strings.Contains(res.Certainty, "partial") {
		t.Errorf("certainty = %q, want a partial grade", res.Certainty)
	}
}

func TestBadRequests(t *testing.T) {
	srv := httptest.NewServer(New(Config{MaxBatch: 2}))
	defer srv.Close()

	if resp := postJSON(t, srv, "/v1/solve", []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, srv, "/v1/solve/batch", []byte(`{"problems": []}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", resp.StatusCode)
	}
	over := fmt.Sprintf(`{"problems": [%s, %s, %s]}`, fig5Spec(t, ""), fig5Spec(t, ""), fig5Spec(t, ""))
	if resp := postJSON(t, srv, "/v1/solve/batch", []byte(over)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", resp.StatusCode)
	}
	// Missing platform is well-formed JSON: in-band error, HTTP 200.
	resp := postJSON(t, srv, "/v1/solve", []byte(`{"pipeline": {"w": [1], "delta": [1, 1]}}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("missing platform: status = %d, want 200", resp.StatusCode)
	}
	if res := decodeBody[SolveResult](t, resp); res.Error == "" {
		t.Error("missing platform must report an in-band error")
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	resp := mustGet(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func mustGet(t *testing.T, srv *httptest.Server, path string) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestTrailingBytesAfterBody: a request body is one JSON value and
// optional whitespace. Bytes after the object get a 400 on every POST
// path — a streaming json.Decoder used to stop at the object's end and
// serve it — while a trailing newline is still accepted.
func TestTrailingBytesAfterBody(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	bodies := map[string][]byte{
		"/v1/solve":        fig5Spec(t, ""),
		"/v1/solve/batch":  []byte(fmt.Sprintf(`{"problems": [%s]}`, fig5Spec(t, ""))),
		"/v1/remap/stream": fig5RemapSpec(t, `, "randomEvents": 2`),
	}
	for path, body := range bodies {
		resp := postJSON(t, srv, path, append(append([]byte(nil), body...), "{}"...))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with bytes after the object: status = %d, want 400", path, resp.StatusCode)
		}
		if eb := decodeBody[errorBody](t, resp); !strings.Contains(eb.Error, "decoding") {
			t.Errorf("%s with bytes after the object: error = %q, want a decoding error", path, eb.Error)
		}

		resp = postJSON(t, srv, path, append(append([]byte(nil), body...), '\n'))
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with a trailing newline: status = %d, want 200", path, resp.StatusCode)
		}
	}
}
