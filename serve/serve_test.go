package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/workload"
)

// fig5Spec renders the paper's Figure 5 instance as a request document,
// exercising the full JSON decode path (not just struct literals). extra
// is appended after the "maxLatency": 22 member; a later "maxLatency"
// overrides it (the last member wins), which tests use to mint a
// distinct request key for the same instance.
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

	// Identical instances across the batch share one warm session. The
	// items fan out concurrently, so two of them may both miss and
	// coalesce onto one build: the hit/miss split depends on scheduling,
	// the single session and the lookup count do not.
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.Requests != 3 {
		t.Errorf("requests = %d, want 3", stats.Requests)
	}
	if stats.CacheSize != 1 {
		t.Errorf("cache size = %d, want 1 (one warm session shared by all items)", stats.CacheSize)
	}
	if stats.CacheHits+stats.CacheMisses != 3 || stats.CacheMisses < 1 {
		t.Errorf("cache hits/misses = %d/%d, want 3 lookups with at least one miss", stats.CacheHits, stats.CacheMisses)
	}
}

// TestStatsEngineCounters: an exact-route solve must surface the search
// engine's counters in the stats Engine map and on /metrics. The fully
// heterogeneous instance skips the poly route and lands in the
// branch-and-bound, which registers the whole counter family on its
// first run. The replication solver behind this route scores candidates
// one at a time, so the batch series are asserted present (registered
// at zero) rather than incremented — the batch path's >=1
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
	for _, name := range []string{"exact_batch_calls_total", "exact_batch_candidates_total", "exact_incumbent_prunes_total"} {
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

// tuningMembers ask for a worker count, an exact budget and a forced
// heuristic route. A request states what to solve, not how, so the
// service ignores them like any other unknown member.
const tuningMembers = `, "workers": 3, "exactBudget": 1e18, "forceHeuristic": true`

// TestSolveIgnoresTuningMembers: a solve body that carries the tuning
// members is answered from the same warm session, with the same answer,
// as the body without them.
func TestSolveIgnoresTuningMembers(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	plain := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", fig5Spec(t, "")))
	tuned := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", fig5Spec(t, tuningMembers)))
	if plain.Error != "" || tuned.Error != "" {
		t.Fatalf("errors: %q, %q", plain.Error, tuned.Error)
	}
	if !tuned.CacheHit {
		t.Error("the tuned request built a session of its own")
	}
	pm, _ := json.Marshal(plain.Mapping)
	tm, _ := json.Marshal(tuned.Mapping)
	if !bytes.Equal(pm, tm) || plain.Latency != tuned.Latency || plain.FailureProb != tuned.FailureProb ||
		plain.Route != tuned.Route || plain.Certainty != tuned.Certainty {
		t.Errorf("tuned answer %s (%v, %v, %s, %s), plain %s (%v, %v, %s, %s)",
			tm, tuned.Latency, tuned.FailureProb, tuned.Route, tuned.Certainty,
			pm, plain.Latency, plain.FailureProb, plain.Route, plain.Certainty)
	}
	if stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats")); stats.CacheSize != 1 {
		t.Errorf("cacheSize = %d, want 1 warm session", stats.CacheSize)
	}
}

// TestSessionCacheSkipsRemapStreams pins that a remap stream builds its
// own session: the warm-session LRU sees no lookup and keeps nothing.
func TestSessionCacheSkipsRemapStreams(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	status, events := postStream(t, srv, fig5RemapSpec(t, `, "events": [
		{"seq": 0, "time": 1, "proc": 0, "kind": 0},
		{"seq": 1, "time": 2, "proc": 0, "kind": 1}
	]`))
	if status != http.StatusOK || len(events) != 3 || !events[2].Done || events[2].Error != "" {
		t.Fatalf("stream: status %d, records %+v", status, events)
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.CacheSize != 0 || stats.CacheHits != 0 || stats.CacheMisses != 0 {
		t.Errorf("cacheSize %d, cacheHits %d, cacheMisses %d after a stream, want all 0",
			stats.CacheSize, stats.CacheHits, stats.CacheMisses)
	}
}

// TestSessionCacheSkipsUncanonicalizable posts, twice, a platform whose
// symmetry outruns the canonicalization budget: each request builds its
// own session and solves in its own labels, outside the session LRU, the
// solution cache and the singleflight.
func TestSessionCacheSkipsUncanonicalizable(t *testing.T) {
	defer func(old int) { canon.Budget = old }(canon.Budget)
	canon.Budget = 1

	// A 4-ring of links (ring 1, chords 2) over identical processors
	// survives refinement as one symmetric cell that must branch.
	p := pipeline.Uniform(2, 1, 1)
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 1, 1, 1},
		[]float64{0.5, 0.5, 0.5, 0.5},
		[][]float64{{0, 1, 2, 1}, {1, 0, 1, 2}, {2, 1, 0, 1}, {1, 2, 1, 0}},
		[]float64{7, 7, 7, 7},
		[]float64{7, 7, 7, 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := canon.Canonicalize(p, pl); !errors.Is(err, canon.ErrComplex) {
		t.Fatalf("canonicalize: %v, want ErrComplex", err)
	}

	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	for i := 0; i < 2; i++ {
		res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", solveSpecJSON(t, p, pl, `, "maxLatency": 20`)))
		if res.Error != "" {
			t.Fatalf("request %d: %s", i, res.Error)
		}
		if res.CacheHit || res.Cached || res.Coalesced {
			t.Errorf("request %d: cacheHit %v, cached %v, coalesced %v, want all false", i, res.CacheHit, res.Cached, res.Coalesced)
		}
		met, err := mapping.Evaluate(p, pl, res.Mapping)
		if err != nil {
			t.Fatalf("request %d: mapping invalid in the request's labels: %v", i, err)
		}
		if met.Latency != res.Latency || met.FailureProb != res.FailureProb {
			t.Errorf("request %d: mapping scores %+v, answer reports latency %g, FP %g", i, met, res.Latency, res.FailureProb)
		}
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.CacheSize != 0 || stats.SolutionHits != 0 || stats.SolutionMisses != 0 || stats.Solves != 2 {
		t.Errorf("cacheSize %d, solutionHits %d, solutionMisses %d, solves %d; want 0, 0, 0, 2",
			stats.CacheSize, stats.SolutionHits, stats.SolutionMisses, stats.Solves)
	}
}

// hardInstanceDoc renders a fully heterogeneous 100×150 instance as a
// solve request with the given deadline. The instance is big enough that
// neither the exact enumeration nor the greedy fallback can
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

// TestHugeDeadlineNotTruncated sends a deadline of about 584 years, whose
// nanosecond count overflows int64: it must act as a deadline that never
// fires, not wrap to a sub-millisecond one that cancels the solve.
func TestHugeDeadlineNotTruncated(t *testing.T) {
	const maxMs = math.MaxInt64 / int64(time.Millisecond)
	for ms, want := range map[int64]time.Duration{
		1:               time.Millisecond,
		maxMs:           time.Duration(maxMs) * time.Millisecond,
		maxMs + 1:       math.MaxInt64,
		18446744073710:  math.MaxInt64,
		-18446744073710: math.MinInt64,
	} {
		if got := millis(ms); got != want {
			t.Errorf("millis(%d) = %v, want %v", ms, got, want)
		}
	}

	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	inst := workload.Random(rand.New(rand.NewSource(3)), platform.CommHomogeneous, 5, 12)
	doc, err := json.Marshal(SolveSpec{
		Pipeline:       inst.Pipeline,
		Platform:       inst.Platform,
		Objective:      "minFailureProb",
		MaxLatency:     1000,
		DeadlineMillis: 18446744073710,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, srv, "/v1/solve", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	res := decodeBody[SolveResult](t, resp)
	if res.Partial || res.Certainty != "exhaustively optimal" {
		t.Errorf("certainty %q, partial %v: want an exhaustively optimal answer, as with no deadline", res.Certainty, res.Partial)
	}
}
