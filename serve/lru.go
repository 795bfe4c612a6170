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
// instance's canonical encoding alone: every processor relabeling of one
// platform hashes identically, so permuted variants of the same request
// warm (and reuse) a single session.
func canonicalSessionKey(canonBytes []byte) string {
	sum := sha256.Sum256(canonBytes)
	return hex.EncodeToString(sum[:])
}

// requestKey names one canonical solve request: the canonical session
// key (which already digests the canonical instance bytes) plus the
// objective and the bi-criteria bounds. Relabeled copies of one request
// therefore share one key. It keys the solution cache as it is and the
// singleflight through flightKey. The deadline is left out: only
// complete answers are stored, and a complete answer does not depend on
// the deadline it was solved under. Building on the session key avoids a
// second SHA-256 pass over the O(m²) canonical bytes on the request path.
func requestKey(sessionKey string, objective repro.Objective, spec SolveSpec) string {
	h := sha256.New()
	h.Write([]byte(sessionKey))
	fmt.Fprintf(h, "|%d|%x|%x",
		objective, math.Float64bits(spec.MaxLatency), math.Float64bits(spec.MaxFailProb))
	return hex.EncodeToString(h.Sum(nil))
}

// flightKey marks a request key with the request's deadline and the
// breaker's verdict. A duplicate gets its leader's answer, Partial
// included, so only requests with equal deadlines may share a flight; a
// breaker-forced solve runs the heuristic route, so it must not share a
// flight with one that may escalate to the exact search.
func flightKey(reqKey string, deadlineMillis int64, forced bool) string {
	if deadlineMillis == 0 && !forced {
		return reqKey
	}
	return fmt.Sprintf("%s|%d|%t", reqKey, deadlineMillis, forced)
}

// lru is a mutex-guarded least-recently-used map from string keys to
// V, shared by the session and solution caches: a lookup or a repeated
// store moves the entry to the front, and a store past capacity evicts
// the back. Lookups made with count set add exactly one hit or one miss
// under the same lock, so hits + misses equals the counted lookups at
// every snapshot.
type lru[V any] struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List
	items        map[string]*list.Element
	hits, misses int64
	evicted      int64
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the value stored under key, refreshing its LRU position;
// count adds the lookup to the hit or miss counter.
func (c *lru[V]) get(key string, count bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		if count {
			c.hits++
		}
		return el.Value.(*lruEntry[V]).val, true
	}
	if count {
		c.misses++
	}
	var zero V
	return zero, false
}

// put stores val under key and evicts past capacity. A key already
// present keeps its value and is only refreshed, so every caller that
// races to store one key ends up sharing the first value stored.
func (c *lru[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry[V]).key)
		c.evicted++
	}
}

// stats snapshots the counters and the entry count.
func (c *lru[V]) stats() (hits, misses, evicted int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted, c.ll.Len()
}

// sessionCache is the LRU of warm sessions. Builds run OUTSIDE the lock —
// a slow session construction must not serialize unrelated cache hits —
// with concurrent misses for the same key coalesced onto one build by a
// per-key singleflight.
type sessionCache struct {
	lru[*repro.Session]
	flight resilience.Group[*repro.Session]
}

func newSessionCache(capacity int) *sessionCache {
	return &sessionCache{lru: newLRU[*repro.Session](capacity)}
}

// getOrCreate returns the warm session for key, building (and inserting)
// it with build on a miss. hit reports whether the session was already
// warm. Every call counts exactly one hit or one miss, so
// hits + misses == lookups holds at all times.
func (c *sessionCache) getOrCreate(key string, build func() (*repro.Session, error)) (sess *repro.Session, hit bool, err error) {
	if sess, ok := c.get(key, true); ok {
		return sess, true, nil
	}
	sess, _, err = c.flight.Do(context.Background(), key, func() (*repro.Session, error) {
		// Re-check under the lock: a previous leader may have finished
		// (and left the flight group) between our miss and this call.
		if s, ok := c.get(key, false); ok {
			return s, nil
		}
		s, err := build()
		if err != nil {
			return nil, err
		}
		c.put(key, s)
		return s, nil
	})
	return sess, false, err
}
