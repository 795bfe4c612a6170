package serve

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/pipeline"
	"repro/internal/platform"
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

// TestSessionKeyBits pins the raw-labeled session key: equal instances
// and options give equal keys; flipping any single float — every
// pipeline and platform value, the ignored B diagonal and the sign of a
// zero included — or any option gives a new key; and the raw and
// canonical key spaces stay apart even over identical payload bytes.
func TestSessionKeyBits(t *testing.T) {
	p, pl := workload.Fig5()
	const (
		workers = 2
		budget  = 5e6
		seed    = 3
	)
	base := sessionKey(p, pl, workers, budget, false, seed)
	if got := sessionKey(p.Clone(), pl.Clone(), workers, budget, false, seed); got != base {
		t.Fatal("equal instances and options hash to different keys")
	}

	floats := func(p *pipeline.Pipeline, pl *platform.Platform) []*float64 {
		var out []*float64
		for _, xs := range [][]float64{p.W, p.Delta, pl.Speed, pl.FailProb, pl.BIn, pl.BOut} {
			for i := range xs {
				out = append(out, &xs[i])
			}
		}
		for _, row := range pl.B {
			for i := range row {
				out = append(out, &row[i])
			}
		}
		return out
	}
	flips := map[string]func(uint64) uint64{
		"sign":         func(b uint64) uint64 { return b ^ 1<<63 },
		"lowest bit":   func(b uint64) uint64 { return b ^ 1 },
		"exponent bit": func(b uint64) uint64 { return b ^ 1<<52 },
	}
	n := len(floats(p, pl))
	for i := 0; i < n; i++ {
		for name, flip := range flips {
			cp, cpl := p.Clone(), pl.Clone()
			x := floats(cp, cpl)[i]
			*x = math.Float64frombits(flip(math.Float64bits(*x)))
			if sessionKey(cp, cpl, workers, budget, false, seed) == base {
				t.Errorf("flipping the %s of float %d of %d left the key unchanged", name, i, n)
			}
		}
	}

	for name, key := range map[string]string{
		"workers": sessionKey(p, pl, workers+1, budget, false, seed),
		"budget":  sessionKey(p, pl, workers, math.Nextafter(budget, 0), false, seed),
		"force":   sessionKey(p, pl, workers, budget, true, seed),
		"seed":    sessionKey(p, pl, workers, budget, false, seed+1),
	} {
		if key == base {
			t.Errorf("changing %s left the key unchanged", name)
		}
	}

	if canonicalSessionKey(rawInstanceBytes(p, pl), workers, budget, false, seed) == base {
		t.Error("raw and canonical keys collide over the same payload bytes")
	}
	cn, err := repro.CanonicalizeInstance(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalSessionKey(cn.Bytes, workers, budget, false, seed) == base {
		t.Error("the canonical key of an instance equals its raw key")
	}
}
