package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdmissionShedsQueueOverflow fills the single concurrency slot and
// the single queue position, then asserts the next request is shed with
// a structured 429 + Retry-After before any solver work, and that the
// stalled requests complete normally once the slot frees.
func TestAdmissionShedsQueueOverflow(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	gate := make(chan struct{})
	svc.solveGate = func(SolveSpec) { <-gate }
	srv := httptest.NewServer(svc)
	defer srv.Close()

	status := make(chan int, 2)
	// A takes the slot and stalls inside the solver gate.
	go func() {
		resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, ""))
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitUntil(t, "request A to hold the slot", func() bool { return svc.limiter.Stats().InUse == 1 })

	// B fills the one queue position.
	go func() {
		resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, `, "maxLatency": 30`))
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitUntil(t, "request B to queue", func() bool { return svc.limiter.Stats().Waiting == 1 })

	// C finds the queue full: shed up front.
	resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, `, "maxLatency": 40`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response carries no Retry-After header")
	}
	shedBody := decodeBody[errorBody](t, resp)
	if !strings.Contains(shedBody.Error, "overloaded") {
		t.Errorf("shed error = %q, want an overloaded message", shedBody.Error)
	}
	if shedBody.RetryAfterMillis < 1 {
		t.Errorf("retryAfterMillis = %d, want >= 1", shedBody.RetryAfterMillis)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-status; code != http.StatusOK {
			t.Errorf("stalled request finished with %d, want 200", code)
		}
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.Shed != 1 {
		t.Errorf("stats.Shed = %d, want 1", stats.Shed)
	}
	if stats.Requests != 2 {
		t.Errorf("stats.Requests = %d, want 2 (the shed request must not count)", stats.Requests)
	}
}

// TestCoalescedSolvesShareOneSolve piles four identical solves onto one
// in-flight computation and asserts exactly one underlying solver run.
func TestCoalescedSolvesShareOneSolve(t *testing.T) {
	svc := New(Config{MaxConcurrent: 8, MaxQueue: 8})
	gate := make(chan struct{})
	svc.solveGate = func(SolveSpec) { <-gate }
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Reconstruct the flight key solveOne derives for the fig5 request:
	// the request key is canonical, so relabeled copies of fig5 would land
	// on this same flight.
	p, pl := workload.Fig5()
	cn, err := repro.CanonicalizeInstance(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	key := flightKey(requestKey(canonicalSessionKey(cn.Bytes), repro.MinimizeFailureProb, SolveSpec{MaxLatency: 22}), 0, false)

	const callers = 4
	results := make(chan SolveResult, callers)
	for i := 0; i < callers; i++ {
		go func() {
			resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, ""))
			results <- decodeBody[SolveResult](t, resp)
		}()
	}
	// Wait for the leader plus all three duplicates to be registered on
	// the flight before releasing the solver.
	waitUntil(t, "four callers on one flight", func() bool { return svc.flight.Inflight(key) == callers })
	close(gate)

	coalesced := 0
	for i := 0; i < callers; i++ {
		res := <-results
		if res.Error != "" {
			t.Fatalf("solver error: %s", res.Error)
		}
		if res.Mapping == nil {
			t.Fatal("result carries no mapping")
		}
		if res.Coalesced {
			coalesced++
		}
	}
	if coalesced != callers-1 {
		t.Errorf("coalesced results = %d, want %d", coalesced, callers-1)
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.Solves != 1 {
		t.Errorf("stats.Solves = %d, want 1 (identical concurrent solves must share one run)", stats.Solves)
	}
	if stats.Coalesced != int64(callers-1) {
		t.Errorf("stats.Coalesced = %d, want %d", stats.Coalesced, callers-1)
	}
	if stats.Requests != callers {
		t.Errorf("stats.Requests = %d, want %d", stats.Requests, callers)
	}
}

// TestBreakerDegradesExactEscalation drives five straight budget-blown
// (partial) solves through the breaker, then asserts the next solve is
// degraded to the heuristic route with the breaker open.
func TestBreakerDegradesExactEscalation(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc)
	defer srv.Close()

	// Five consecutive partial answers: each counts as a breaker failure
	// (the deadline fired mid-search), hitting the default threshold.
	for i := 0; i < 5; i++ {
		resp := postJSON(t, srv, "/v1/solve", hardInstanceDoc(t, 1))
		res := decodeBody[SolveResult](t, resp)
		if res.Error != "" {
			t.Fatalf("request %d: %s", i, res.Error)
		}
		if !res.Partial {
			t.Fatalf("request %d should be partial under a 1ms deadline: %+v", i, res)
		}
		if res.Degraded {
			t.Fatalf("request %d degraded before the breaker tripped", i)
		}
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.BreakerState != "open" {
		t.Fatalf("breakerState = %q after 5 partials, want open", stats.BreakerState)
	}
	if stats.BreakerTrips != 1 {
		t.Errorf("breakerTrips = %d, want 1", stats.BreakerTrips)
	}

	// With the breaker open, the same request degrades to the heuristic
	// route — and the fast fig5 instance degrades too: the breaker guards
	// the shared CPU, not one instance.
	res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", hardInstanceDoc(t, 1)))
	if !res.Degraded {
		t.Errorf("open breaker must force the heuristic route: %+v", res)
	}
	res = decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", fig5Spec(t, "")))
	if res.Error != "" {
		t.Fatalf("degraded fig5 solve failed: %s", res.Error)
	}
	if !res.Degraded {
		t.Errorf("open breaker must degrade every exact-eligible solve: %+v", res)
	}
	if res.Mapping == nil {
		t.Error("degraded solve must still produce a mapping")
	}
}

// TestBatchCancelStopsSpawning cancels a batch request while its first
// problem holds the only fan-out slot, and asserts the handler returns
// (no deadlock on the semaphore) with the remaining problems marked
// canceled in-band instead of solved.
func TestBatchCancelStopsSpawning(t *testing.T) {
	svc := New(Config{BatchParallelism: 1})
	var once sync.Once
	entered := make(chan struct{})
	gate := make(chan struct{})
	svc.solveGate = func(SolveSpec) {
		once.Do(func() { close(entered) })
		<-gate
	}

	batch := fmt.Sprintf(`{"problems": [%s, %s, %s]}`, fig5Spec(t, ""), fig5Spec(t, ""), fig5Spec(t, ""))
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/solve/batch", bytes.NewReader([]byte(batch))).WithContext(ctx)
	rec := httptest.NewRecorder()

	go func() {
		<-entered // problem 0 holds the slot and is stalled in the solver
		cancel()
		// Give the fan-out loop time to observe the dead context at the
		// problem-1 semaphore wait (the slot is still held, so the cancel
		// arm is the only runnable one) before letting problem 0 finish.
		time.Sleep(100 * time.Millisecond)
		close(gate)
	}()
	done := make(chan struct{})
	go func() {
		svc.ServeHTTP(rec, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handleBatch did not return after cancellation: fan-out blocked on the semaphore")
	}

	resp := rec.Result()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	out := decodeBody[BatchResponse](t, resp)
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	for i := 1; i < 3; i++ {
		if !strings.Contains(out.Results[i].Error, "canceled before solve") {
			t.Errorf("result %d = %+v, want an in-band canceled-before-solve error", i, out.Results[i])
		}
	}
}

// TestMalformedBodyRejectedWithoutQueueing saturates the limiter — the
// one slot held by a stalled solve, the one queue position taken — and
// asserts that undecodable bodies still get their 400 at once: the body
// is decoded before admission, so a request that can never be served
// neither waits for a slot nor counts as a shed.
func TestMalformedBodyRejectedWithoutQueueing(t *testing.T) {
	svc := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	gate := make(chan struct{})
	svc.solveGate = func(SolveSpec) { <-gate }
	srv := httptest.NewServer(svc)
	defer srv.Close()

	status := make(chan int, 2)
	go func() {
		resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, ""))
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitUntil(t, "a solve to hold the slot", func() bool { return svc.limiter.Stats().InUse == 1 })
	go func() {
		resp := postJSON(t, srv, "/v1/solve", fig5Spec(t, `, "maxLatency": 30`))
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	waitUntil(t, "a solve to queue", func() bool { return svc.limiter.Stats().Waiting == 1 })

	for _, body := range [][]byte{
		[]byte("{not json"),
		append(fig5Spec(t, `, "maxLatency": 40`), "{}"...),
		[]byte(`{"pipeline": {"w": [1], "delta": [1, 1]}, "platform": {"speed": []}}`),
	} {
		resp := postJSON(t, srv, "/v1/solve", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.40q on a saturated limiter: status = %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if st := svc.limiter.Stats(); st.InUse != 1 || st.Waiting != 1 {
		t.Errorf("limiter in use %d, waiting %d after the rejected bodies, want 1 and 1", st.InUse, st.Waiting)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-status; code != http.StatusOK {
			t.Errorf("stalled request finished with %d, want 200", code)
		}
	}
	if shed := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats")).Shed; shed != 0 {
		t.Errorf("stats.Shed = %d, want 0 (a malformed body is a 400, not a shed)", shed)
	}
}
