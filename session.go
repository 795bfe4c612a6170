package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/internal/throughput"
)

// Session is a long-lived, concurrency-safe solver bound to one
// (pipeline, platform) instance. It validates the instance and builds the
// mapping.Evaluator precomputation once at construction, so repeated
// solves, evaluations, Pareto sweeps and simulation campaigns against the
// same instance share that setup.
//
// Every long-running method takes a context.Context and stops early when
// it is done: a canceled Solve returns the best feasible mapping found so
// far graded Partial, a canceled Pareto/TriPareto returns the partial
// front, and canceled Monte-Carlo campaigns aggregate the trials actually
// run. Completed (uncanceled) calls are deterministic for a fixed
// configuration, including the worker count.
//
// A Session is immutable after construction and safe for concurrent use;
// the pipeline and platform must not be mutated while the session is
// alive.
type Session struct {
	pipe *Pipeline
	plat *Platform
	cfg  sessionConfig
	ev   *mapping.Evaluator
}

// sessionConfig carries the options applied at NewSession time.
type sessionConfig struct {
	workers        int
	exactBudget    float64
	deadline       time.Duration
	seed           int64
	forceHeuristic bool
	recorder       *Recorder
}

// SessionOption is a functional option for NewSession.
type SessionOption func(*sessionConfig)

// WithWorkers sets the goroutine count used by the exact enumeration
// fan-out and the Monte-Carlo campaigns (0, the default, means
// GOMAXPROCS; 1 forces sequential execution). Results are identical for
// every worker count.
func WithWorkers(n int) SessionOption {
	return func(c *sessionConfig) { c.workers = n }
}

// WithExactBudget sets the largest estimated interval-mapping count for
// which Solve and Pareto use exact enumeration on the hard platform
// classes (0 means the core default, currently 5,000,000). Solve takes
// the exact route on communication-homogeneous platforms with m ≤ 16
// whatever the count. Twice the budget caps the search nodes one exact
// search may visit; a search that runs out answers through the
// heuristics.
func WithExactBudget(budget float64) SessionOption {
	return func(c *sessionConfig) { c.exactBudget = budget }
}

// WithDeadline caps the wall-clock time of every call made through the
// session: each method derives its context with this timeout (on top of
// whatever deadline the caller's context already carries). Zero, the
// default, adds no per-call deadline.
func WithDeadline(d time.Duration) SessionOption {
	return func(c *sessionConfig) { c.deadline = d }
}

// WithSeed sets the seed of the session's stochastic calls, making their
// results reproducible (default 1): the annealing archive of Pareto's
// heuristic front, which otherwise runs the annealer's defaults, and the
// sampling of MonteCarloCampaign and EstimateFailureProb. Solve is
// deterministic without it: its heuristic route is greedy.
func WithSeed(seed int64) SessionOption {
	return func(c *sessionConfig) { c.seed = seed }
}

// WithForceHeuristic makes Solve and Pareto skip exact enumeration even
// on small instances (useful to bound tail latency under load).
func WithForceHeuristic(force bool) SessionOption {
	return func(c *sessionConfig) { c.forceHeuristic = force }
}

// WithRecorder attaches a telemetry recorder to every solve made through
// the session: each call reports its route attempts, phase durations,
// outcome and certainty. The recorder only observes: every answer is the
// same with or without one. A shared recorder (e.g. one per serving
// process) accumulates the latency profiles across sessions. Nil (the
// default) disables telemetry with zero overhead.
func WithRecorder(rec *Recorder) SessionOption {
	return func(c *sessionConfig) { c.recorder = rec }
}

// NewSession validates the instance, builds the cached evaluator state,
// and returns a Session ready for concurrent use.
func NewSession(p *Pipeline, pl *Platform, opts ...SessionOption) (*Session, error) {
	if p == nil || pl == nil {
		return nil, fmt.Errorf("repro: session needs both a pipeline and a platform")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	s := &Session{pipe: p, plat: pl, cfg: sessionConfig{seed: 1}}
	for _, o := range opts {
		o(&s.cfg)
	}
	// The evaluator covers every platform width: replica sets are rows of
	// bitset words (one word up to 64 processors), zero-allocation in the
	// solvers' hot paths.
	ev, err := mapping.NewEvaluator(p, pl)
	if err != nil {
		return nil, err
	}
	s.ev = ev
	return s, nil
}

// Pipeline returns the session's pipeline (shared, do not mutate).
func (s *Session) Pipeline() *Pipeline { return s.pipe }

// Platform returns the session's platform (shared, do not mutate).
func (s *Session) Platform() *Platform { return s.plat }

// callCtx derives the per-call context: the caller's context bounded by
// the session deadline when one was configured.
func (s *Session) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.deadline > 0 {
		return context.WithTimeout(ctx, s.cfg.deadline)
	}
	return ctx, func() {}
}

// coreOptions materializes the session configuration as solver options.
func (s *Session) coreOptions() core.Options {
	return core.Options{
		ExactBudget:    s.cfg.exactBudget,
		Workers:        s.cfg.workers,
		Seed:           s.cfg.seed,
		ForceHeuristic: s.cfg.forceHeuristic,
		Eval:           s.ev,
		Recorder:       s.cfg.recorder,
	}
}

// exactOptions materializes the session configuration for the exact /
// throughput enumerations under ctx.
func (s *Session) exactOptions(ctx context.Context) exact.Options {
	return exact.Options{Workers: s.cfg.workers, Ctx: ctx, Eval: s.ev, Recorder: s.cfg.recorder}
}

// SolveRequest states one bi-criteria query against the session's
// instance: the criterion to minimize and the bound on the other.
type SolveRequest struct {
	// Objective selects the minimized criterion.
	Objective Objective
	// MaxLatency bounds the latency when minimizing failure probability
	// (0 or +Inf: unconstrained).
	MaxLatency float64
	// MaxFailProb bounds the failure probability when minimizing latency
	// (0 or 1: unconstrained).
	MaxFailProb float64
	// ForceHeuristic skips exact enumeration for this call only,
	// regardless of instance size — a per-request override of
	// WithForceHeuristic that lets a serving tier degrade a single
	// solve (e.g. while a circuit breaker on the exact route is open)
	// without building a second session.
	ForceHeuristic bool
}

// Solve routes the request to the strongest method for the platform class
// (the paper's Algorithms 1–4 when provably optimal, pruned exhaustive
// enumeration when small, heuristics otherwise). Under a canceled or
// expired context it returns the best feasible mapping found so far with
// Certainty == Partial; the error is non-nil only when no feasible
// mapping could be produced at all.
func (s *Session) Solve(ctx context.Context, req SolveRequest) (Result, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	opts := s.coreOptions()
	opts.ForceHeuristic = opts.ForceHeuristic || req.ForceHeuristic
	return core.SolveCtx(ctx, core.Problem{
		Pipeline:    s.pipe,
		Platform:    s.plat,
		Objective:   req.Objective,
		MaxLatency:  req.MaxLatency,
		MaxFailProb: req.MaxFailProb,
	}, opts)
}

// Pareto computes the latency/FP trade-off front: exhaustively on small
// instances, by annealing archive otherwise. A canceled call returns the
// non-dominated set of candidates visited so far graded Partial.
func (s *Session) Pareto(ctx context.Context) (*Front, Certainty, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	return core.ParetoCtx(ctx, s.pipe, s.plat, s.coreOptions())
}

// Evaluate computes both metrics of an interval mapping through the
// session's cached evaluator. The mapping is validated.
func (s *Session) Evaluate(m *Mapping) (Metrics, error) {
	return s.ev.EvaluateMapping(m)
}

// BeamSearchMinLatency runs the scalable beam-search heuristic for
// latency-minimal interval mappings (beamWidth ≤ 0 selects the default).
// On cancellation the best complete mapping reached so far is returned
// together with an error wrapping the context's cause.
func (s *Session) BeamSearchMinLatency(ctx context.Context, beamWidth int) (*Mapping, Metrics, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	res, err := heuristics.BeamSearchMinLatency(ctx, &heuristics.Problem{Pipe: s.pipe, Plat: s.plat, Eval: s.ev, Recorder: s.cfg.recorder}, beamWidth)
	if res.Mapping == nil {
		return nil, Metrics{}, err
	}
	return res.Mapping, res.Metrics, err
}

// MonteCarloCampaign runs trials independent Monte-Carlo simulations
// across the session's worker count and aggregates failure rate and
// latency statistics. A canceled campaign aggregates the trials actually
// executed (MCSummary.Trials reports how many) and returns them together
// with an error wrapping the context's cause.
func (s *Session) MonteCarloCampaign(ctx context.Context, m *Mapping, cfg SimConfig, trials int) (MCSummary, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	return sim.MonteCarloLatencyParallel(ctx, s.pipe, s.plat, m, cfg, trials, s.cfg.workers, s.cfg.seed)
}

// EstimateFailureProb estimates a mapping's failure probability by
// parallel Monte-Carlo sampling of crash patterns with deterministic
// per-worker RNG streams. A canceled estimate covers the trials actually
// performed and is returned with an error wrapping the context's cause.
func (s *Session) EstimateFailureProb(ctx context.Context, m *Mapping, trials int) (FPEstimate, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	return sim.EstimateFPParallel(ctx, s.plat, m, trials, s.cfg.workers, s.cfg.seed)
}

// MinPeriod exhaustively finds the RR mapping of minimum period with
// latency ≤ maxLatency and FP ≤ maxFailProb (small instances; a latency
// bound of 0 or +Inf and an FP bound of 0 or 1 leave the criterion
// unconstrained, as in SolveRequest). On cancellation
// the best RR mapping found so far is returned with a non-nil error
// wrapping the context's cause.
func (s *Session) MinPeriod(ctx context.Context, maxLatency, maxFailProb float64) (TriResult, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	return throughput.MinPeriodUnderConstraints(s.pipe, s.plat, maxLatency, maxFailProb, s.exactOptions(ctx))
}

// GreedyRoundRobin splits bottleneck groups round-robin as long as the
// period improves within both constraints (scalable heuristic; bounds as
// in MinPeriod).
func (s *Session) GreedyRoundRobin(ctx context.Context, m *Mapping, maxLatency, maxFailProb float64) (TriResult, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	return throughput.GreedyRR(ctx, s.pipe, s.plat, m, maxLatency, maxFailProb)
}

// TriPareto enumerates the three-criteria Pareto front (latency, FP,
// period) over RR mappings of a small instance. A canceled enumeration
// returns the partial front together with a non-nil error wrapping the
// context's cause.
func (s *Session) TriPareto(ctx context.Context) (*TriFront, error) {
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	return throughput.TriPareto(s.pipe, s.plat, s.exactOptions(ctx))
}
