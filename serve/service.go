package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/resilience"
	"repro/internal/telemetry"
)

// Config tunes a Service. The zero value is ready to use.
type Config struct {
	// CacheSize caps the warm-session LRU (default 128).
	CacheSize int
	// SolutionCacheSize caps the cross-request solution cache — completed
	// answers keyed by canonical instance hash, reused across processor
	// relabelings (default 256; negative disables the cache).
	SolutionCacheSize int
	// DefaultDeadline bounds requests that carry no deadlineMillis of
	// their own (default 30s; negative disables the default).
	DefaultDeadline time.Duration
	// MaxBatch caps the problems accepted in one batch request
	// (default 64).
	MaxBatch int
	// BatchParallelism bounds how many problems of a batch solve
	// concurrently (default GOMAXPROCS).
	BatchParallelism int
	// MaxBodyBytes caps the accepted request body size (default 8 MiB);
	// oversized requests fail with a structured 413 instead of being
	// decoded in full.
	MaxBodyBytes int64
	// MaxConcurrent bounds the POST requests served at once; the rest
	// queue (default 4 × GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds the POST requests waiting for a slot; past it
	// requests are shed with 429 (default 4 × MaxConcurrent).
	MaxQueue int
	// SolveLog, when non-nil, observes every completed solve (including
	// in-band errors) right before its response is written. Hook for
	// structured per-solve logging; keep it fast — it runs on the request
	// path, possibly concurrently.
	SolveLog func(SolveLogEntry)
}

// SolveLogEntry is one completed solve as seen by Config.SolveLog.
type SolveLogEntry struct {
	// N and M are the instance's stage and processor counts (0 when the
	// request failed before the instance was decoded).
	N, M int
	// Objective is the wire-format objective of the request.
	Objective string
	// Route, Method and Certainty mirror the SolveResult fields.
	Route, Method, Certainty string
	// Elapsed is the server-side solve time.
	Elapsed time.Duration
	// CacheHit, Coalesced, Cached, Degraded and Partial mirror the
	// SolveResult flags.
	CacheHit, Coalesced, Cached, Degraded, Partial bool
	// Err carries the in-band solver error, if any.
	Err string
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 128
	}
	if c.SolutionCacheSize == 0 {
		c.SolutionCacheSize = 256
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BatchParallelism <= 0 {
		c.BatchParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	return c
}

// Service is the HTTP solve service. Create it with New and mount it as
// an http.Handler; it is safe for concurrent use.
type Service struct {
	cfg     Config
	cache   *sessionCache
	mux     *http.ServeMux
	limiter *resilience.Limiter
	breaker *resilience.Breaker
	flight  resilience.Group[SolveResult]

	// solutions is the cross-request solution cache (nil when disabled):
	// completed answers keyed by requestKey, looked up by the singleflight
	// leader and translated into each requester's processor labeling at
	// the response boundary (stored mappings stay in canonical labels, so
	// one answer serves every relabeling of its instance). Hit/miss
	// counting lives with the leader; the cache's own counters track size
	// and eviction only.
	solutions *lru[SolveResult]

	// rec is the service-wide telemetry recorder: the serve-tier counters
	// below live in its registry, and every session records its per-class
	// solve profiles into it. Exported via Recorder, /v1/stats and
	// /metrics.
	rec            *telemetry.Recorder
	requests       *telemetry.Counter
	panics         *telemetry.Counter
	shed           *telemetry.Counter
	coalesced      *telemetry.Counter
	solves         *telemetry.Counter
	solutionHits   *telemetry.Counter
	solutionMisses *telemetry.Counter
	translations   *telemetry.Counter

	// solveGate, when non-nil, runs on the singleflight leader right
	// before the underlying session solve. Test seam for the chaos
	// harness (injected solver stalls); set it before serving.
	solveGate func(spec SolveSpec)
}

// New builds a Service with its routes mounted. All POST paths sit
// behind the admission middleware (bounded concurrency, bounded queue,
// deadline-aware shedding — see admit); the exact-escalation circuit
// breaker degrades repeated budget-blown solves to the heuristic route.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		cache: newSessionCache(cfg.CacheSize),
		mux:   http.NewServeMux(),
		limiter: resilience.NewLimiter(resilience.LimiterConfig{
			MaxConcurrent: cfg.MaxConcurrent,
			MaxWaiting:    cfg.MaxQueue,
		}),
		breaker: resilience.NewBreaker(resilience.BreakerConfig{}),
		rec:     telemetry.NewRecorder(),
	}
	if cfg.SolutionCacheSize > 0 {
		solutions := newLRU[SolveResult](cfg.SolutionCacheSize)
		s.solutions = &solutions
	}
	// Resolve the hot-path counters once; registry lookups afterwards are
	// read-locked map hits, but the request path shouldn't pay even that.
	s.requests = s.rec.Counter("serve_requests_total")
	s.panics = s.rec.Counter("serve_panics_total")
	s.shed = s.rec.Counter("serve_shed_total")
	s.coalesced = s.rec.Counter("serve_coalesced_total")
	s.solves = s.rec.Counter("serve_solves_total")
	s.solutionHits = s.rec.Counter("serve_solution_hits_total")
	s.solutionMisses = s.rec.Counter("serve_solution_misses_total")
	s.translations = s.rec.Counter("serve_translations_total")
	s.mux.HandleFunc("POST /v1/solve", admit(s, "solve request", decodeSolveSpec,
		func(spec *SolveSpec) int64 { return spec.DeadlineMillis }, s.handleSolve))
	s.mux.HandleFunc("POST /v1/solve/batch", admit(s, "batch request", decodeBatchRequest, nil, s.handleBatch))
	s.mux.HandleFunc("POST /v1/remap/stream", admit(s, "remap request", decodeRemapSpec,
		func(spec *RemapSpec) int64 { return spec.DeadlineMillis }, s.handleRemapStream))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Recorder exposes the service-wide telemetry recorder: serve-tier
// counters plus every warm session's per-class route latency profiles.
// Useful for reading the profiles in tests and for embedding the service
// in a process that aggregates its own metrics.
func (s *Service) Recorder() *repro.Recorder { return s.rec }

// MetricsHandler returns the GET /metrics handler on its own, so callers
// can mount the Prometheus exposition on a separate (e.g. private)
// listener without exposing the solve API there.
func (s *Service) MetricsHandler() http.Handler {
	return http.HandlerFunc(s.handleMetrics)
}

// ServeHTTP implements http.Handler. Handler panics are recovered and
// answered with a structured 500 (best effort: a stream that already
// wrote its header keeps its status line), so one poisoned request never
// brings the server down; http.ErrAbortHandler is re-raised untouched.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Inc()
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: fmt.Sprintf("internal error: %v", rec)})
		}
	}()
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
	// MaxBodyBytes echoes the request-size cap on 413 responses.
	MaxBodyBytes int64 `json:"maxBodyBytes,omitempty"`
	// RetryAfterMillis carries the load-derived retry hint on 429/503
	// admission sheds (the Retry-After header rounds it up to seconds).
	RetryAfterMillis int64 `json:"retryAfterMillis,omitempty"`
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	hits, misses, evicted, size := s.cache.stats()
	st := Stats{
		Requests:     s.requests.Load(),
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheSize:    size,
		CacheEvicted: evicted,
		Panics:       s.panics.Load(),
		Shed:         s.shed.Load(),
		Coalesced:    s.coalesced.Load(),
		Solves:       s.solves.Load(),
		BreakerState: s.breaker.State().String(),
		BreakerTrips: s.breaker.Trips(),

		SolutionHits:   s.solutionHits.Load(),
		SolutionMisses: s.solutionMisses.Load(),
		Translations:   s.translations.Load(),
	}
	if s.solutions != nil {
		_, _, st.SolutionEvicted, st.SolutionSize = s.solutions.stats()
	}
	st.Engine = s.rec.CounterValues("exact_")
	for _, snap := range s.rec.SolveStats() {
		if st.Latency == nil {
			st.Latency = make(map[string]map[string]RouteLatency)
		}
		class := snap.Class.String()
		if st.Latency[class] == nil {
			st.Latency[class] = make(map[string]RouteLatency)
		}
		st.Latency[class][snap.Route.String()] = RouteLatency{
			Count:     snap.Count,
			P50Millis: float64(snap.P50) / float64(time.Millisecond),
			P95Millis: float64(snap.P95) / float64(time.Millisecond),
			P99Millis: float64(snap.P99) / float64(time.Millisecond),
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// syncGauges refreshes the registry gauges that mirror live state, so
// both exposition paths (/v1/stats renders them via its own fields,
// /metrics scrapes the registry) agree at read time.
func (s *Service) syncGauges() {
	_, _, _, size := s.cache.stats()
	s.rec.Gauge("serve_cache_sessions").Set(int64(size))
	s.rec.Gauge("serve_breaker_state").Set(int64(s.breaker.State()))
	s.rec.Gauge("serve_breaker_trips").Set(s.breaker.Trips())
	if s.solutions != nil {
		_, _, _, solSize := s.solutions.stats()
		s.rec.Gauge("serve_solution_cache_size").Set(int64(solSize))
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.syncGauges()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.rec.WritePrometheus(w)
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request, spec *SolveSpec) {
	writeJSON(w, http.StatusOK, s.solveOne(r.Context(), *spec))
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request, batch *BatchRequest) {
	if len(batch.Problems) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "batch carries no problems"})
		return
	}
	if len(batch.Problems) > s.cfg.MaxBatch {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch of %d exceeds the %d-problem cap", len(batch.Problems), s.cfg.MaxBatch)})
		return
	}
	results := make([]SolveResult, len(batch.Problems))
	sem := make(chan struct{}, s.cfg.BatchParallelism)
	ctx := r.Context()
	var wg sync.WaitGroup
fanout:
	for i, spec := range batch.Problems {
		// Waiting for a fan-out slot must not outlive the client: when
		// the request context dies (disconnect, deadline), stop spawning
		// solves and mark every remaining problem canceled in-band.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			for j := i; j < len(batch.Problems); j++ {
				results[j] = SolveResult{Error: fmt.Sprintf("canceled before solve: %v", context.Cause(ctx))}
			}
			break fanout
		}
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = s.solveOne(ctx, spec)
		}()
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// solveOne answers one spec: session from the warm cache (or built and
// inserted), per-request deadline mapped to context, solver errors
// reported in-band. Identical concurrent solves coalesce onto one
// underlying solver run (singleflight on the request key), and the
// exact-escalation circuit breaker degrades a train of budget-blown
// searches to the heuristic route instead of letting them pile up.
func (s *Service) solveOne(ctx context.Context, spec SolveSpec) SolveResult {
	s.requests.Inc()
	start := time.Now()
	finish := func(res SolveResult) SolveResult {
		elapsed := time.Since(start)
		res.ElapsedMillis = elapsed.Milliseconds()
		if logf := s.cfg.SolveLog; logf != nil {
			entry := SolveLogEntry{
				Objective: spec.Objective,
				Route:     res.Route,
				Method:    res.Method,
				Certainty: res.Certainty,
				Elapsed:   elapsed,
				CacheHit:  res.CacheHit,
				Coalesced: res.Coalesced,
				Cached:    res.Cached,
				Degraded:  res.Degraded,
				Partial:   res.Partial,
				Err:       res.Error,
			}
			if spec.Pipeline != nil {
				entry.N = spec.Pipeline.NumStages()
			}
			if spec.Platform != nil {
				entry.M = spec.Platform.NumProcs()
			}
			logf(entry)
		}
		return res
	}
	if spec.Pipeline == nil || spec.Platform == nil {
		return finish(SolveResult{Error: "request needs both \"pipeline\" and \"platform\""})
	}
	objective, err := parseObjective(spec.Objective)
	if err != nil {
		return finish(SolveResult{Error: err.Error()})
	}

	// Canonicalize the instance so every processor relabeling of one
	// platform collapses onto one warm session, one in-flight solve and
	// one stored answer. An instance that has no canonical form (it is
	// invalid, or its symmetry outruns the refinement budget) builds a
	// session of its own and solves in its own labels, neither coalesced
	// nor cached; an invalid one fails with NewSession's diagnostics.
	var (
		sess   *repro.Session
		reqKey string
		hit    bool
	)
	cn, cerr := repro.CanonicalizeInstance(spec.Pipeline, spec.Platform)
	if cerr == nil {
		key := canonicalSessionKey(cn.Bytes)
		// Materialize the canonical relabeling only on a build — a cache
		// hit must not pay the O(m²) platform copy.
		sess, hit, err = s.cache.getOrCreate(key, func() (*repro.Session, error) {
			return s.newSession(cn.Pipeline(), cn.Platform())
		})
		reqKey = requestKey(key, objective, spec)
	} else {
		sess, err = s.newSession(spec.Pipeline, spec.Platform)
	}
	if err != nil {
		return finish(SolveResult{Error: err.Error()})
	}
	// The solution cache takes only canonical answers: the stored mapping
	// is translated into each requester's labels.
	useSolutions := reqKey != "" && s.solutions != nil

	deadline := s.cfg.DefaultDeadline
	if spec.DeadlineMillis > 0 {
		deadline = millis(spec.DeadlineMillis)
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	// Breaker-guarded exact escalation: while open, the request runs
	// the heuristic route regardless of instance size, so a train of
	// deadline-blown exact searches degrades instead of stacking up.
	token, probing := s.breaker.Allow()
	forced := !probing

	leaderSolved := false
	solve := func() (SolveResult, error) {
		// Cross-request solution cache, checked by the flight leader:
		// a hit still coalesces its concurrent duplicates, and a miss
		// leaves no stampede window between lookup and solve — exactly
		// one solver run per request key.
		if useSolutions {
			if out, ok := s.solutions.get(reqKey, false); ok {
				s.solutionHits.Inc()
				out.Cached = true
				return out, nil
			}
			s.solutionMisses.Inc()
		}
		leaderSolved = true
		s.solves.Inc()
		if gate := s.solveGate; gate != nil {
			gate(spec)
		}
		r, err := sess.Solve(ctx, repro.SolveRequest{
			Objective:      objective,
			MaxLatency:     spec.MaxLatency,
			MaxFailProb:    spec.MaxFailProb,
			ForceHeuristic: forced,
		})
		if err != nil {
			out := SolveResult{Error: err.Error(), Degraded: forced}
			if errors.Is(err, repro.ErrInfeasible) {
				out.Error = "infeasible: " + err.Error()
			}
			return out, nil
		}
		out := SolveResult{
			Mapping:     r.Mapping,
			Latency:     r.Metrics.Latency,
			FailureProb: r.Metrics.FailureProb,
			Certainty:   r.Certainty.String(),
			Method:      r.Method,
			Route:       r.Route,
			Partial:     r.Certainty == repro.Partial,
			Degraded:    forced,
		}
		// Only completed, undegraded answers are worth reusing across
		// requests: partial and breaker-forced ones reflect transient
		// load, not the instance. The stored mapping stays in canonical
		// labels; translation happens per request below.
		if useSolutions && !out.Partial && !forced {
			s.solutions.put(reqKey, out)
		}
		return out, nil
	}
	// Coalesce identical in-flight canonical solves: only the leader
	// calls the solver; duplicates share its result.
	var (
		res    SolveResult
		shared bool
	)
	if reqKey != "" {
		res, shared, err = s.flight.Do(ctx, flightKey(reqKey, spec.DeadlineMillis, forced), solve)
	} else {
		res, err = solve()
	}
	if probing {
		if leaderSolved {
			// A partial answer means the deadline fired mid-search — the
			// overload signal the breaker counts. In-band solver errors
			// (infeasibility, …) are instance properties, not overload.
			s.breaker.Record(token, err == nil && !res.Partial)
		} else {
			// Coalesced duplicate or solution-cache hit: the guarded work
			// never ran under this token; free the half-open probe slot.
			s.breaker.Cancel(token)
		}
	}
	if shared {
		s.coalesced.Inc()
	}
	if err != nil {
		// Only duplicates see errors here: their context died while
		// waiting, or the leader panicked mid-solve.
		return finish(SolveResult{Error: fmt.Sprintf("coalesced solve: %v", err), Coalesced: shared, CacheHit: hit})
	}
	res.CacheHit = hit
	res.Coalesced = shared
	if res.Mapping != nil && cn != nil {
		// The session solved in canonical labels; translate the mapping
		// into this request's processor ids. ToOriginal clones, so
		// coalesced sharers and cached answers never alias a mapping.
		if !cn.IsIdentity() {
			s.translations.Inc()
		}
		res.Mapping = cn.ToOriginal(res.Mapping)
	}
	return finish(res)
}

// parseObjective maps the wire objective to the library's enum.
func parseObjective(name string) (repro.Objective, error) {
	switch name {
	case "minLatency":
		return repro.MinimizeLatency, nil
	case "minFailureProb", "minFP", "":
		return repro.MinimizeFailureProb, nil
	default:
		return 0, fmt.Errorf("unknown objective %q (want minLatency or minFailureProb)", name)
	}
}

// newSession builds a session for (p, pl) with the library's default
// tuning. Every session shares the service recorder, so its solves feed
// the per-class route profiles of /v1/stats and /metrics.
func (s *Service) newSession(p *repro.Pipeline, pl *repro.Platform) (*repro.Session, error) {
	return repro.NewSession(p, pl, repro.WithRecorder(s.rec))
}
