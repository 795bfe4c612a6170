// Package serve exposes the session-based solver API as a JSON-over-HTTP
// service: single and batched bi-criteria solve requests with per-request
// deadlines mapped to context cancellation, answered from an LRU of warm
// Sessions keyed by instance hash so repeated traffic against the same
// (pipeline, platform) pair skips the evaluator precomputation.
//
// A request states what to solve — the instance, the minimized
// criterion, the bound on the other criterion and a deadline — and the
// service decides how: every session runs the library's default search
// tuning, and members a request carries beyond these are ignored, as
// encoding/json ignores them.
//
// Both the warm-session LRU and the cross-request solution cache key on
// the instance's canonical form (internal/canon): the mapping problem is
// invariant under processor relabeling, so two requests that differ only
// by a permutation of the platform's processors share one warm session,
// coalesce onto one in-flight solve, and reuse one completed answer —
// translated into each requester's own processor ids on the way out
// (SolveResult.Cached marks a solution-cache answer). A remap stream, and
// a solve whose instance has no canonical form, build a session of their
// own and bypass both caches and the coalescing.
//
// Endpoints (see Service):
//
//	POST /v1/solve         one SolveSpec  -> one SolveResult
//	POST /v1/solve/batch   BatchRequest   -> BatchResponse
//	POST /v1/remap/stream  RemapSpec      -> NDJSON stream of RemapEvent
//	GET  /healthz          liveness probe
//	GET  /v1/stats         request, session-cache and latency counters
//	GET  /metrics          Prometheus text exposition of the same telemetry
//
// Serve-tier robustness: request bodies are capped (structured 413 past
// MaxBodyBytes; a Content-Length past it is refused before any byte is
// read) and decoded once, before admission, into the endpoint's request
// type. Each body is read into a buffer recycled through a sync.Pool,
// grown only as its bytes arrive (a declared Content-Length reserves
// nothing), and returned to the pool when decode finishes: the decoded
// request copies every value it keeps.
// Solve and batch bodies decode in a single pass with
// internal/jsonread — envelope, Pipeline and Platform with their O(m²)
// numbers, validated as they are read — and remap-stream bodies with
// encoding/json. Malformed bodies, bytes after the request object and
// invalid instances get a 400 without taking an admission slot. Handler panics are recovered
// into structured 500s (and counted in /v1/stats), and the re-mapping
// stream degrades in-band — every record carries either a repair or an
// error, never a dropped status line.
//
// Overload resilience: every POST path runs behind an admission limiter
// (bounded concurrency, bounded wait queue, deadline-aware shedding with
// structured 429/503 bodies and Retry-After headers), identical in-flight
// solves are coalesced onto one underlying computation (singleflight on
// the request key), and exact-search escalation is guarded by a circuit
// breaker that degrades overloaded solves to the heuristic route. All of
// it is visible in /v1/stats (shed, coalesced, solves, breakerState).
// See docs/api.md for the overload contract and a client retry recipe.
//
// The wire format reuses the library's canonical JSON encodings of
// Pipeline, Platform and Mapping, so a pipemap problem document is a
// valid SolveSpec.
package serve

import (
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// SolveSpec is one bi-criteria solve request.
type SolveSpec struct {
	// Pipeline is the n-stage application: {"w": [...], "delta": [...]}.
	Pipeline *pipeline.Pipeline `json:"pipeline"`
	// Platform is the m-processor target: {"speed": [...], "failProb":
	// [...], "b": [[...]], "bIn": [...], "bOut": [...]}.
	Platform *platform.Platform `json:"platform"`
	// Objective is "minFailureProb" (default) or "minLatency".
	Objective string `json:"objective,omitempty"`
	// MaxLatency bounds the latency when minimizing failure probability
	// (0 = unconstrained).
	MaxLatency float64 `json:"maxLatency,omitempty"`
	// MaxFailProb bounds the failure probability when minimizing latency
	// (0 or 1 = unconstrained).
	MaxFailProb float64 `json:"maxFailProb,omitempty"`
	// DeadlineMillis caps this request's wall-clock time; past it the
	// solver returns its best-so-far answer marked partial. 0 falls back
	// to the service default.
	DeadlineMillis int64 `json:"deadlineMillis,omitempty"`
}

// SolveResult is the answer to one SolveSpec.
type SolveResult struct {
	// Mapping is the solved interval mapping (absent on error).
	Mapping *mapping.Mapping `json:"mapping,omitempty"`
	// Latency and FailureProb are the mapping's analytic metrics. Not
	// omitempty: a failure probability of exactly 0 is a legitimate
	// answer and must stay on the wire.
	Latency     float64 `json:"latency"`
	FailureProb float64 `json:"failureProb"`
	// Certainty grades the answer: "provably optimal", "exhaustively
	// optimal", "heuristic" or "partial (canceled)".
	Certainty string `json:"certainty,omitempty"`
	// Method names the algorithm that produced the mapping.
	Method string `json:"method,omitempty"`
	// Route names the solver route that produced the answer ("poly",
	// "exact", "heuristic"). Unlike Method (a
	// human-readable algorithm description), Route is a stable enum key
	// matching the per-class latency profiles in /v1/stats and /metrics.
	Route string `json:"route,omitempty"`
	// Partial is true when the deadline fired and the mapping is the
	// best found so far rather than the search's final answer.
	Partial bool `json:"partial,omitempty"`
	// CacheHit is true when the request was served by a warm session.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Coalesced is true when this answer was shared from an identical
	// concurrent solve rather than computed independently.
	Coalesced bool `json:"coalesced,omitempty"`
	// Cached is true when this answer was served from the cross-request
	// solution cache: a previously completed solve of the same canonical
	// instance — any processor labeling — under the same objective and
	// bounds, whatever its deadline. The mapping is translated into this
	// request's processor ids before the response is written.
	Cached bool `json:"cached,omitempty"`
	// Degraded is true when the circuit breaker forced the heuristic
	// route because exact escalation recently blew its budget; retry
	// later for a potentially exact answer.
	Degraded bool `json:"degraded,omitempty"`
	// Error carries the solver error (e.g. infeasibility) when no
	// mapping could be produced; the HTTP status is still 200 for
	// well-formed requests.
	Error string `json:"error,omitempty"`
	// ElapsedMillis is the server-side solve time.
	ElapsedMillis int64 `json:"elapsedMillis"`
}

// BatchRequest bundles several solve requests into one round trip; the
// service fans them out over a bounded worker pool.
type BatchRequest struct {
	Problems []SolveSpec `json:"problems"`
}

// BatchResponse carries one result per request, in request order.
type BatchResponse struct {
	Results []SolveResult `json:"results"`
}

// Stats reports service counters (GET /v1/stats).
type Stats struct {
	Requests     int64 `json:"requests"`     // solve requests processed (batch items count individually)
	CacheHits    int64 `json:"cacheHits"`    // served by a warm session
	CacheMisses  int64 `json:"cacheMisses"`  // session built for the request
	CacheSize    int   `json:"cacheSize"`    // sessions currently warm
	CacheEvicted int64 `json:"cacheEvicted"` // sessions evicted by the LRU
	Panics       int64 `json:"panics"`       // handler panics recovered by the middleware

	// Overload-resilience counters.
	Shed         int64  `json:"shed"`         // requests refused by admission control (429/503)
	Coalesced    int64  `json:"coalesced"`    // solves answered by sharing an identical in-flight solve
	Solves       int64  `json:"solves"`       // underlying solver invocations (requests - coalesced - errors)
	BreakerState string `json:"breakerState"` // exact-escalation breaker: "closed", "open" or "half-open"
	BreakerTrips int64  `json:"breakerTrips"` // times the breaker tripped open

	// Cross-request solution-cache counters: completed answers keyed by
	// the canonical (relabeling-invariant) instance hash and reused
	// across requests, with mappings translated into each requester's
	// processor labeling.
	SolutionHits    int64 `json:"solutionHits"`    // answers served from the solution cache
	SolutionMisses  int64 `json:"solutionMisses"`  // leader solves that found no stored answer
	SolutionSize    int   `json:"solutionSize"`    // answers currently stored
	SolutionEvicted int64 `json:"solutionEvicted"` // answers evicted by the LRU
	Translations    int64 `json:"translations"`    // mappings relabeled through a non-identity permutation

	// Engine holds the exact-search counters (prefix "exact_"): nodes
	// scored, incumbent prunes, batch-evaluation calls and candidates,
	// runs and enumerated mappings — the same series /metrics exports.
	// Absent until the first exact solve.
	Engine map[string]int64 `json:"engine,omitempty"`

	// Latency holds the per-instance-class solve-latency profiles, keyed
	// by class label (e.g. "n8.m16.het.lat") then route. They describe
	// past solves and steer none. Absent until the first recorded solve.
	Latency map[string]map[string]RouteLatency `json:"latency,omitempty"`
}

// RouteLatency summarizes one (instance class, route) latency profile.
type RouteLatency struct {
	// Count is the number of recorded attempts on this route.
	Count int64 `json:"count"`
	// P50Millis, P95Millis and P99Millis are interpolated quantiles of
	// the route's duration sketch, in milliseconds.
	P50Millis float64 `json:"p50Millis"`
	P95Millis float64 `json:"p95Millis"`
	P99Millis float64 `json:"p99Millis"`
}
