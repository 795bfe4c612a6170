package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// TestSessionCacheConcurrentHammer hammers getOrCreate from many
// goroutines (run under -race in CI) and asserts the cache invariants:
// every lookup counts exactly one hit or miss, the size never exceeds
// the capacity, and — with capacity >= distinct keys — each key is built
// exactly once no matter how many misses pile up concurrently.
func TestSessionCacheConcurrentHammer(t *testing.T) {
	const (
		keys       = 4
		goroutines = 16
		iters      = 200
	)
	cache := newSessionCache(8)
	var builds [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				sess, _, err := cache.getOrCreate(fmt.Sprintf("key-%d", k), func() (*repro.Session, error) {
					builds[k].Add(1)
					// Widen the window in which concurrent misses for the
					// same key race to build.
					time.Sleep(time.Millisecond)
					return &repro.Session{}, nil
				})
				if err != nil {
					t.Errorf("getOrCreate: %v", err)
					return
				}
				if sess == nil {
					t.Error("getOrCreate returned a nil session")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	hits, misses, evicted, size := cache.stats()
	if total := hits + misses; total != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d (every lookup counts exactly once)", total, goroutines*iters)
	}
	if size > 8 {
		t.Errorf("size = %d exceeds capacity 8", size)
	}
	if evicted != 0 {
		t.Errorf("evicted = %d, want 0 with capacity >= keys", evicted)
	}
	for k := range builds {
		if n := builds[k].Load(); n != 1 {
			t.Errorf("key %d built %d times, want exactly 1 (concurrent misses must coalesce)", k, n)
		}
	}
}

// TestSessionCacheEvictionUnderPressure keeps the capacity below the key
// count: the size bound and the lookup accounting must hold even while
// entries churn, and every key must have been built at least once.
func TestSessionCacheEvictionUnderPressure(t *testing.T) {
	const (
		keys       = 6
		capacity   = 2
		goroutines = 8
		iters      = 100
	)
	cache := newSessionCache(capacity)
	var builds [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*7 + i) % keys
				_, _, err := cache.getOrCreate(fmt.Sprintf("key-%d", k), func() (*repro.Session, error) {
					builds[k].Add(1)
					return &repro.Session{}, nil
				})
				if err != nil {
					t.Errorf("getOrCreate: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	hits, misses, evicted, size := cache.stats()
	if total := hits + misses; total != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d", total, goroutines*iters)
	}
	if size > capacity {
		t.Errorf("size = %d exceeds capacity %d", size, capacity)
	}
	if evicted == 0 {
		t.Error("expected evictions with capacity < keys")
	}
	for k := range builds {
		if builds[k].Load() == 0 {
			t.Errorf("key %d never built", k)
		}
	}
}

// TestCanonicalSessionKeyOptions pins the option half of the request
// keys: equal canonical bytes give equal session keys, and on one
// session key, changing any answer-shaping field gives a new request
// key, while the deadline and the breaker's verdict split only the
// flight key. The byte half (relabelings collide, distinct instances
// don't) is internal/canon's to test.
func TestCanonicalSessionKeyOptions(t *testing.T) {
	p, pl := workload.Fig5()
	cn, err := repro.CanonicalizeInstance(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	base := canonicalSessionKey(cn.Bytes)
	if got := canonicalSessionKey(append([]byte(nil), cn.Bytes...)); got != base {
		t.Fatal("equal bytes hash to different session keys")
	}

	spec := SolveSpec{MaxLatency: 22, MaxFailProb: 0.5, DeadlineMillis: 100}
	req := requestKey(base, repro.MinimizeFailureProb, spec)
	variant := func(edit func(*SolveSpec)) SolveSpec {
		v := spec
		edit(&v)
		return v
	}
	for name, key := range map[string]string{
		"objective":   requestKey(base, repro.MinimizeLatency, spec),
		"maxLatency":  requestKey(base, repro.MinimizeFailureProb, variant(func(v *SolveSpec) { v.MaxLatency = math.Nextafter(22, 0) })),
		"maxFailProb": requestKey(base, repro.MinimizeFailureProb, variant(func(v *SolveSpec) { v.MaxFailProb = 0.25 })),
	} {
		if key == req {
			t.Errorf("changing %s left the request key unchanged", name)
		}
	}
	if requestKey(base, repro.MinimizeFailureProb, variant(func(v *SolveSpec) { v.DeadlineMillis = 101 })) != req {
		t.Error("changing the deadline changed the request key")
	}
	flight := flightKey(req, 100, false)
	for name, key := range map[string]string{
		"request":  req,
		"deadline": flightKey(req, 101, false),
		"forced":   flightKey(req, 100, true),
	} {
		if key == flight {
			t.Errorf("the %s flight key equals the flight key of the request", name)
		}
	}
	if flightKey(req, 0, false) != req {
		t.Error("an unforced flight key without a deadline differs from its request key")
	}
}
