package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// solveSpecJSON renders a solve request document for the given instance.
func solveSpecJSON(t *testing.T, p *pipeline.Pipeline, pl *platform.Platform, extra string) []byte {
	t.Helper()
	pj, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	plj, err := json.Marshal(pl)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf(`{"pipeline": %s, "platform": %s%s}`, pj, plj, extra))
}

// hetSolutionInstance builds a small fully heterogeneous instance with
// all-distinct processor attributes, so canonicalization is pure sorting
// (no search) and relabelings are easy to reason about. The stage work
// vector parameterizes distinct instances sharing one platform shape.
func hetSolutionInstance(t *testing.T, w []float64) (*pipeline.Pipeline, *platform.Platform) {
	t.Helper()
	const m = 6
	d := make([]float64, len(w)+1)
	for i := range d {
		d[i] = float64(1 + i%2)
	}
	speeds := make([]float64, m)
	fps := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	b := make([][]float64, m)
	for u := 0; u < m; u++ {
		speeds[u] = float64(1 + u)
		fps[u] = 0.05 * float64(1+u)
		bIn[u] = 1 + 0.5*float64(u)
		bOut[u] = 4 - 0.5*float64(u)
		b[u] = make([]float64, m)
	}
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			b[u][v] = 1 + 0.25*float64(u+v)
			b[v][u] = b[u][v]
		}
	}
	pl, err := platform.NewFullyHeterogeneous(speeds, fps, b, bIn, bOut)
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.MustNew(w, d), pl
}

// TestPermutedRequestServedFromSolutionCache is the end-to-end relabeling
// contract: after one solve, a request for the same instance with its
// processors permuted is answered from the cross-request solution cache —
// cached: true, bitwise-identical metrics — with the mapping translated
// into the permuted request's own processor ids, and it also lands on the
// same warm session (canonical session keying).
func TestPermutedRequestServedFromSolutionCache(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	p, pl := hetSolutionInstance(t, []float64{2, 1, 3, 2})
	const req = `, "objective": "minLatency", "maxFailProb": 0.9`

	res1 := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", solveSpecJSON(t, p, pl, req)))
	if res1.Error != "" {
		t.Fatal(res1.Error)
	}
	if res1.Cached {
		t.Fatal("first solve cannot be a solution-cache hit")
	}

	perm := []int{3, 1, 5, 0, 4, 2}
	plPerm := pl.Permute(perm)
	res2 := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", solveSpecJSON(t, p, plPerm, req)))
	if res2.Error != "" {
		t.Fatal(res2.Error)
	}
	if !res2.Cached {
		t.Fatalf("permuted request must be served from the solution cache: %+v", res2)
	}
	if !res2.CacheHit {
		t.Error("permuted request must reuse the canonical warm session")
	}
	if math.Float64bits(res2.Latency) != math.Float64bits(res1.Latency) ||
		math.Float64bits(res2.FailureProb) != math.Float64bits(res1.FailureProb) {
		t.Errorf("cached metrics (%v, %v) not bitwise-equal to the original (%v, %v)",
			res2.Latency, res2.FailureProb, res1.Latency, res1.FailureProb)
	}
	if res2.Route != res1.Route || res2.Certainty != res1.Certainty {
		t.Errorf("cached route/certainty %q/%q, want %q/%q", res2.Route, res2.Certainty, res1.Route, res1.Certainty)
	}

	// The translated mapping must be valid — and score the advertised
	// metrics — on the PERMUTED instance's own labeling.
	sess, err := repro.NewSession(p, plPerm)
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := sess.Evaluate(res2.Mapping)
	if err != nil {
		t.Fatalf("cached mapping invalid on the permuted instance: %v", err)
	}
	if math.Abs(metrics.Latency-res2.Latency) > 1e-9 || math.Abs(metrics.FailureProb-res2.FailureProb) > 1e-9 {
		t.Errorf("cached mapping re-scores to (%v, %v) on the permuted instance, response said (%v, %v)",
			metrics.Latency, metrics.FailureProb, res2.Latency, res2.FailureProb)
	}

	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.Solves != 1 || stats.SolutionHits != 1 || stats.SolutionMisses != 1 {
		t.Errorf("solves/solutionHits/solutionMisses = %d/%d/%d, want 1/1/1",
			stats.Solves, stats.SolutionHits, stats.SolutionMisses)
	}
	if stats.SolutionSize != 1 {
		t.Errorf("solutionSize = %d, want 1", stats.SolutionSize)
	}
	if stats.Translations < 1 {
		t.Errorf("translations = %d, want ≥ 1 (the permuted mapping was relabeled)", stats.Translations)
	}
	if stats.CacheSize != 1 {
		t.Errorf("cacheSize = %d, want 1 (permuted variants share one warm session)", stats.CacheSize)
	}
}

// TestSolutionCacheHammer floods the service from many goroutines with
// randomly relabeled variants of a few base instances and asserts, under
// the race detector, that the solver ran exactly once per canonical
// instance, that every lookup is counted (hits + misses == leader
// lookups), that all answers for one canonical instance are bitwise
// identical, and that the cache never exceeds its capacity.
func TestSolutionCacheHammer(t *testing.T) {
	svc := New(Config{MaxConcurrent: 32, MaxQueue: 128})
	var solverRuns atomic.Int64
	svc.solveGate = func(SolveSpec) { solverRuns.Add(1) }
	srv := httptest.NewServer(svc)
	defer srv.Close()

	works := [][]float64{
		{2, 1, 3, 2},
		{5, 5, 1},
		{1, 4, 2, 8, 1},
	}
	type instance struct {
		p  *pipeline.Pipeline
		pl *platform.Platform
	}
	instances := make([]instance, len(works))
	for i, w := range works {
		p, pl := hetSolutionInstance(t, w)
		instances[i] = instance{p, pl}
	}

	const (
		goroutines = 16
		perG       = 6
	)
	var mu sync.Mutex
	seen := make(map[int][2]uint64) // instance index -> metric bit patterns
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for r := 0; r < perG; r++ {
				k := (g + r) % len(instances)
				inst := instances[k]
				perm := rng.Perm(inst.pl.NumProcs())
				body := solveSpecJSON(t, inst.p, inst.pl.Permute(perm), `, "objective": "minLatency"`)
				res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", body))
				if res.Error != "" {
					t.Errorf("instance %d: %s", k, res.Error)
					return
				}
				if res.Mapping == nil {
					t.Errorf("instance %d: no mapping", k)
					return
				}
				bits := [2]uint64{math.Float64bits(res.Latency), math.Float64bits(res.FailureProb)}
				mu.Lock()
				if prev, ok := seen[k]; ok && prev != bits {
					t.Errorf("instance %d: metrics diverged across relabelings: %x vs %x", k, prev, bits)
				} else {
					seen[k] = bits
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if got := solverRuns.Load(); got != int64(len(instances)) {
		t.Errorf("solver ran %d times, want exactly %d (once per canonical instance)", got, len(instances))
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	total := int64(goroutines * perG)
	if stats.Requests != total {
		t.Errorf("requests = %d, want %d", stats.Requests, total)
	}
	if got := stats.Solves + stats.Coalesced + stats.SolutionHits; got != total {
		t.Errorf("solves+coalesced+solutionHits = %d+%d+%d = %d, want %d",
			stats.Solves, stats.Coalesced, stats.SolutionHits, got, total)
	}
	// Every flight leader performs exactly one lookup: a hit, or a miss
	// followed by a solve.
	if stats.SolutionMisses != stats.Solves {
		t.Errorf("solutionMisses = %d, want %d (one miss per underlying solve)", stats.SolutionMisses, stats.Solves)
	}
	if stats.SolutionSize != len(instances) {
		t.Errorf("solutionSize = %d, want %d", stats.SolutionSize, len(instances))
	}
	if stats.SolutionSize > 256 || stats.SolutionEvicted != 0 {
		t.Errorf("cache exceeded its bounds: size %d, evicted %d", stats.SolutionSize, stats.SolutionEvicted)
	}
	if stats.CacheSize != len(instances) {
		t.Errorf("warm sessions = %d, want %d (relabelings share canonical sessions)", stats.CacheSize, len(instances))
	}
}

// TestSolutionCacheEviction pins the LRU bound: with capacity 2, a third
// distinct instance evicts the least-recently-used answer, which must
// then re-solve on its next request while a retained answer still hits.
func TestSolutionCacheEviction(t *testing.T) {
	srv := httptest.NewServer(New(Config{SolutionCacheSize: 2}))
	defer srv.Close()

	works := [][]float64{{2, 1, 3, 2}, {5, 5, 1}, {1, 4, 2, 8, 1}}
	bodies := make([][]byte, len(works))
	for i, w := range works {
		p, pl := hetSolutionInstance(t, w)
		bodies[i] = solveSpecJSON(t, p, pl, `, "objective": "minLatency"`)
	}
	for i, body := range bodies {
		if res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", body)); res.Error != "" || res.Cached {
			t.Fatalf("instance %d: error %q cached %v", i, res.Error, res.Cached)
		}
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.SolutionSize != 2 || stats.SolutionEvicted != 1 {
		t.Fatalf("size/evicted = %d/%d after 3 inserts at cap 2, want 2/1", stats.SolutionSize, stats.SolutionEvicted)
	}

	// Instance 0 was evicted: a fresh solve. Instance 2 is retained: a hit.
	if res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", bodies[0])); res.Cached {
		t.Error("evicted answer must re-solve, not hit")
	}
	if res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", bodies[2])); !res.Cached {
		t.Error("retained answer must hit")
	}
}

// TestSolutionCacheIgnoresDeadline: a complete answer does not depend on
// the deadline it was solved under, so the same request sent again with
// another deadlineMillis is served from the solution cache.
func TestSolutionCacheIgnoresDeadline(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	p, pl := hetSolutionInstance(t, []float64{2, 1, 3, 2})
	first := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve",
		solveSpecJSON(t, p, pl, `, "objective": "minLatency", "deadlineMillis": 2000`)))
	if first.Error != "" || first.Cached || first.Partial {
		t.Fatalf("first solve: error %q cached %v partial %v", first.Error, first.Cached, first.Partial)
	}
	second := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve",
		solveSpecJSON(t, p, pl, `, "objective": "minLatency", "deadlineMillis": 3000`)))
	if second.Error != "" || !second.Cached {
		t.Fatalf("the same request under another deadline must hit the solution cache: error %q cached %v", second.Error, second.Cached)
	}
	if math.Float64bits(second.Latency) != math.Float64bits(first.Latency) ||
		math.Float64bits(second.FailureProb) != math.Float64bits(first.FailureProb) {
		t.Errorf("cached metrics (%v, %v), want (%v, %v)", second.Latency, second.FailureProb, first.Latency, first.FailureProb)
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.Solves != 1 || stats.SolutionHits != 1 {
		t.Errorf("solves/solutionHits = %d/%d, want 1/1", stats.Solves, stats.SolutionHits)
	}
}

// TestSolutionCacheDisabled: a negative SolutionCacheSize switches the
// cross-request cache off — identical repeated requests re-solve (the
// warm session still hits) and the solution counters stay zero.
func TestSolutionCacheDisabled(t *testing.T) {
	srv := httptest.NewServer(New(Config{SolutionCacheSize: -1}))
	defer srv.Close()

	p, pl := hetSolutionInstance(t, []float64{2, 1, 3, 2})
	body := solveSpecJSON(t, p, pl, `, "objective": "minLatency"`)
	for i := 0; i < 2; i++ {
		if res := decodeBody[SolveResult](t, postJSON(t, srv, "/v1/solve", body)); res.Error != "" || res.Cached {
			t.Fatalf("request %d: error %q cached %v", i, res.Error, res.Cached)
		}
	}
	stats := decodeBody[Stats](t, mustGet(t, srv, "/v1/stats"))
	if stats.Solves != 2 || stats.SolutionHits != 0 || stats.SolutionMisses != 0 {
		t.Errorf("solves/hits/misses = %d/%d/%d, want 2/0/0 with the cache disabled",
			stats.Solves, stats.SolutionHits, stats.SolutionMisses)
	}
}
