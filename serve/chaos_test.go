package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// chaosInjector is the fault-injection middleware of the chaos harness:
// a seeded fraction of requests gets a latency spike before dispatch,
// and a seeded fraction is failed outright with a structured 500 tagged
// X-Chaos (so the campaign can tell injected failures from genuine
// server faults). Deterministic for a fixed seed and request order.
type chaosInjector struct {
	mu       sync.Mutex
	rng      *rand.Rand
	next     http.Handler
	injected atomic.Int64
}

func newChaosInjector(seed int64, next http.Handler) *chaosInjector {
	return &chaosInjector{rng: rand.New(rand.NewSource(seed)), next: next}
}

func (c *chaosInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	fail := c.rng.Float64() < 0.08
	spike := time.Duration(c.rng.Intn(3)) * time.Millisecond
	c.mu.Unlock()
	time.Sleep(spike)
	if fail {
		c.injected.Add(1)
		w.Header().Set("X-Chaos", "injected")
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "chaos: injected failure"})
		return
	}
	c.next.ServeHTTP(w, r)
}

// chaosStall returns a solveGate that stalls a seeded fraction of solver
// runs for a few milliseconds — the "solver briefly wedged" failure mode.
func chaosStall(seed int64) func(SolveSpec) {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(SolveSpec) {
		mu.Lock()
		stall := time.Duration(0)
		if rng.Float64() < 0.3 {
			stall = time.Duration(1+rng.Intn(3)) * time.Millisecond
		}
		mu.Unlock()
		time.Sleep(stall)
	}
}

// TestChaosCampaign runs a seeded chaos campaign against a deliberately
// small service (4 slots, 4 queue positions): concurrent workers mix
// single solves (identical ones to force coalescing), batches, hard
// deadline-blown solves and remap streams, while the injector adds
// latency spikes and 500s and the gate stalls solver runs. Afterwards it
// asserts the overload contract held for every response, the service
// counters are mutually consistent with the client-observed traffic, no
// handler panicked, and no goroutines leaked.
func TestChaosCampaign(t *testing.T) {
	baseline := runtime.NumGoroutine()

	svc := New(Config{
		MaxConcurrent:    4,
		MaxQueue:         4,
		BatchParallelism: 2,
		CacheSize:        8,
	})
	svc.solveGate = chaosStall(42)
	chaos := newChaosInjector(1234, svc)
	srv := httptest.NewServer(chaos)

	fig5 := fig5Spec(t, "")
	fig5Alt := fig5Spec(t, `, "maxLatency": 30`)
	hard := hardInstanceDoc(t, 1)
	batch := []byte(fmt.Sprintf(`{"problems": [%s, %s, %s]}`, fig5Spec(t, ""), fig5Spec(t, `, "objective": "minLatency", "maxLatency": 0`), fig5Spec(t, `, "maxLatency": 40`)))
	p, pl := fig5PipelinePlatformJSON(t)
	stream := []byte(fmt.Sprintf(`{"pipeline": %s, "platform": %s, "randomEvents": 3, "repairDeadlineMillis": 5, "deadlineMillis": 5000}`, p, pl))

	var (
		solveItems atomic.Int64 // solve results delivered in 200 responses
		streams200 atomic.Int64
		shed429    atomic.Int64
		shed503    atomic.Int64
		chaos500   atomic.Int64
	)
	client := srv.Client()

	checkShed := func(resp *http.Response) {
		defer resp.Body.Close()
		if resp.Header.Get("Retry-After") == "" {
			t.Error("shed response carries no Retry-After header")
		}
		var body errorBody
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.RetryAfterMillis < 1 {
			t.Errorf("malformed shed body (err=%v, body=%+v)", err, body)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shed429.Add(1)
		} else {
			shed503.Add(1)
		}
	}
	checkChaos500 := func(resp *http.Response) {
		defer resp.Body.Close()
		if resp.Header.Get("X-Chaos") != "injected" {
			t.Error("500 response without the X-Chaos tag: a genuine server fault")
			return
		}
		chaos500.Add(1)
	}

	const workers, opsPerWorker = 16, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < opsPerWorker; i++ {
				var path string
				var body []byte
				var kind string
				switch roll := rng.Intn(10); {
				case roll < 4:
					path, body, kind = "/v1/solve", fig5, "solve"
				case roll < 6:
					path, body, kind = "/v1/solve", fig5Alt, "solve"
				case roll < 7:
					path, body, kind = "/v1/solve", hard, "solve"
				case roll < 9:
					path, body, kind = "/v1/solve/batch", batch, "batch"
				default:
					path, body, kind = "/v1/remap/stream", stream, "stream"
				}
				resp, err := client.Post(srv.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("transport error: %v", err)
					continue
				}
				switch {
				case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
					checkShed(resp)
				case resp.StatusCode == http.StatusInternalServerError:
					checkChaos500(resp)
				case resp.StatusCode == http.StatusOK:
					switch kind {
					case "solve":
						var res SolveResult
						if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
							t.Errorf("malformed solve result: %v", err)
						} else if res.Mapping == nil && res.Error == "" {
							t.Errorf("solve result carries neither mapping nor error: %+v", res)
						} else {
							solveItems.Add(1)
						}
						resp.Body.Close()
					case "batch":
						var out BatchResponse
						if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
							t.Errorf("malformed batch response: %v", err)
						} else {
							solveItems.Add(int64(len(out.Results)))
						}
						resp.Body.Close()
					case "stream":
						sc := bufio.NewScanner(resp.Body)
						sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
						var last RemapEvent
						ok := true
						for sc.Scan() {
							var ev RemapEvent
							if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
								t.Errorf("malformed stream record: %v", err)
								ok = false
								break
							}
							last = ev
						}
						if ok && (sc.Err() != nil || !last.Done) {
							t.Errorf("stream did not end with a done record (scan err %v, last %+v)", sc.Err(), last)
						}
						streams200.Add(1)
						resp.Body.Close()
					}
				default:
					t.Errorf("unexpected status %d for %s", resp.StatusCode, path)
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()

	// Counter consistency, read off the service directly so the injector
	// cannot 500 the stats request itself.
	rec := httptest.NewRecorder()
	svc.handleStats(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var stats Stats
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	if stats.Panics != 0 {
		t.Errorf("stats.Panics = %d, want 0", stats.Panics)
	}
	if got, want := stats.Shed, shed429.Load()+shed503.Load(); got != want {
		t.Errorf("stats.Shed = %d, client observed %d sheds", got, want)
	}
	if got, want := stats.Solves+stats.Coalesced+stats.SolutionHits, solveItems.Load(); got != want {
		t.Errorf("stats.Solves+Coalesced+SolutionHits = %d+%d+%d = %d, client received %d solve results",
			stats.Solves, stats.Coalesced, stats.SolutionHits, got, want)
	}
	if got, want := stats.SolutionHits+stats.SolutionMisses, stats.Solves+stats.SolutionHits; got != want {
		t.Errorf("solution lookups = %d+%d = %d, want %d (every leader looks up exactly once)",
			stats.SolutionHits, stats.SolutionMisses, got, want)
	}
	if got, want := stats.Requests, solveItems.Load()+streams200.Load(); got != want {
		t.Errorf("stats.Requests = %d, want %d (solve items + streams)", got, want)
	}
	if got, want := chaos500.Load(), chaos.injected.Load(); got != want {
		t.Errorf("client saw %d injected 500s, injector counted %d", got, want)
	}
	t.Logf("campaign: %d solve items, %d streams, %d/%d sheds (429/503), %d injected 500s, %d solver runs, %d coalesced, breaker %s (%d trips)",
		solveItems.Load(), streams200.Load(), shed429.Load(), shed503.Load(), chaos500.Load(),
		stats.Solves, stats.Coalesced, stats.BreakerState, stats.BreakerTrips)

	// Goroutine accounting: after the server drains, the count must
	// settle back to (near) the pre-campaign baseline — no leaked solver
	// workers, stream pumps or queue waiters.
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			n := runtime.NumGoroutine()
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			t.Fatalf("goroutine leak: %d alive, baseline %d", n, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fig5PipelinePlatformJSON renders the Figure 5 instance's two halves.
func fig5PipelinePlatformJSON(t *testing.T) ([]byte, []byte) {
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
	return pj, plj
}
