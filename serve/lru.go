package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"repro"
	"repro/internal/resilience"
)

// canonicalSessionKey derives the warm-session cache key from the
// instance's canonical encoding: every processor relabeling of one
// platform hashes identically, so permuted variants of the same request
// warm (and reuse) a single session. The session-level options are mixed
// in because they shape session construction.
func canonicalSessionKey(canonBytes []byte, workers int, budget float64, force bool) string {
	h := sha256.New()
	h.Write(canonBytes)
	fmt.Fprintf(h, "|%d|%x|%t", workers, math.Float64bits(budget), force)
	return hex.EncodeToString(h.Sum(nil))
}

// requestKey names one canonical solve request: the canonical session
// key (which already digests the canonical instance bytes and the
// session-level tuning) plus everything else that shapes the answer —
// objective, the bi-criteria bounds, and the deadline (the adaptive
// router steers by it, so different deadlines may legitimately produce
// different complete answers). Relabeled copies of one request therefore
// share one key. It keys the solution cache as it is and the singleflight
// through flightKey. Building on the session key avoids a second SHA-256
// pass over the O(m²) canonical bytes on the request path.
func requestKey(sessionKey string, objective repro.Objective, spec SolveSpec) string {
	h := sha256.New()
	h.Write([]byte(sessionKey))
	fmt.Fprintf(h, "|%d|%x|%x|%d",
		objective, math.Float64bits(spec.MaxLatency), math.Float64bits(spec.MaxFailProb),
		spec.DeadlineMillis)
	return hex.EncodeToString(h.Sum(nil))
}

// flightKey marks a request key with the breaker's verdict: a
// breaker-forced solve runs the heuristic route, so it must not share a
// flight with one that may escalate to the exact search.
func flightKey(reqKey string, forced bool) string {
	if forced {
		return reqKey + "|forced"
	}
	return reqKey
}

// sessionCache is a mutex-guarded LRU of warm sessions. Hits move the
// entry to the front; inserts past capacity evict the back. Builds run
// OUTSIDE the lock — a slow session construction must not serialize
// unrelated cache hits — with concurrent misses for the same key
// coalesced onto one build by a per-key singleflight.
type sessionCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	items   map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64

	flight resilience.Group[*repro.Session]
}

type cacheEntry struct {
	key  string
	sess *repro.Session
}

func newSessionCache(capacity int) *sessionCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &sessionCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// getOrCreate returns the warm session for key, building (and inserting)
// it with build on a miss. hit reports whether the session was already
// warm. Every call counts exactly one hit or one miss, so
// hits + misses == lookups holds at all times.
func (c *sessionCache) getOrCreate(key string, build func() (*repro.Session, error)) (sess *repro.Session, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		sess = el.Value.(*cacheEntry).sess
		c.mu.Unlock()
		return sess, true, nil
	}
	c.misses++
	c.mu.Unlock()

	sess, _, err = c.flight.Do(context.Background(), key, func() (*repro.Session, error) {
		// Re-check under the lock: a previous leader may have finished
		// (and left the flight group) between our miss and this call.
		if s := c.peek(key); s != nil {
			return s, nil
		}
		s, err := build()
		if err != nil {
			return nil, err
		}
		c.insert(key, s)
		return s, nil
	})
	return sess, false, err
}

// peek returns the cached session for key without counting a lookup
// (refreshing its LRU position), or nil.
func (c *sessionCache) peek(key string) *repro.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).sess
	}
	return nil
}

// insert adds a freshly built session and evicts past capacity; a racing
// insert of the same key keeps the existing entry.
func (c *sessionCache) insert(key string, sess *repro.Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, sess: sess})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// stats snapshots the cache counters.
func (c *sessionCache) stats() (hits, misses, evicted int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted, c.ll.Len()
}

// solutionCache is a mutex-guarded LRU of completed solve answers keyed
// by requestKey. Stored results carry canonical-labeled mappings; the
// serve layer translates them into each requester's processor ids on the
// way out, so one stored answer serves every relabeling of its instance.
// Lookups happen inside the singleflight leader, so hit/miss counting
// lives with the caller; the cache itself only tracks size and eviction.
type solutionCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	items   map[string]*list.Element
	evicted int64
}

type solutionEntry struct {
	key string
	res SolveResult
}

func newSolutionCache(capacity int) *solutionCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &solutionCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the stored answer for key, refreshing its LRU position.
func (c *solutionCache) get(key string) (SolveResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*solutionEntry).res, true
	}
	return SolveResult{}, false
}

// put stores (or refreshes) an answer and evicts past capacity.
func (c *solutionCache) put(key string, res SolveResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*solutionEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&solutionEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*solutionEntry).key)
		c.evicted++
	}
}

// stats snapshots the solution-cache counters.
func (c *solutionCache) stats() (evicted int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted, c.ll.Len()
}
