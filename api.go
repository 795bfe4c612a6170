// The top-level functions in this file are the legacy per-call surface:
// each builds a throwaway Session (revalidating the instance and
// rebuilding the evaluator) and forwards under context.Background(). New
// code — and anything issuing repeated calls against one instance or
// needing cancellation — should create a Session once and use its
// methods instead.
package repro

import (
	"context"
	"math/rand"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/frontier"
	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/poly"
	"repro/internal/remap"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/throughput"
	"repro/internal/workload"
)

// Model types re-exported from the implementation packages.
type (
	// Pipeline is an n-stage workflow (stage computations W, inter-stage
	// communication volumes Delta).
	Pipeline = pipeline.Pipeline
	// Platform is an m-processor target with speeds, failure
	// probabilities and a full bandwidth matrix.
	Platform = platform.Platform
	// PlatformClass is one of the paper's three platform families.
	PlatformClass = platform.Class
	// Interval is an inclusive range of 0-based stage indices.
	Interval = mapping.Interval
	// Mapping is an interval mapping with replication.
	Mapping = mapping.Mapping
	// GeneralMapping assigns stages to processors with no interval or
	// replication structure (Theorem 4's mapping family).
	GeneralMapping = mapping.GeneralMapping
	// Metrics bundles the two objectives: latency and failure probability.
	Metrics = mapping.Metrics
	// Problem is a bi-criteria mapping instance for Solve.
	Problem = core.Problem
	// Objective selects which criterion is minimized.
	Objective = core.Objective
	// Certainty grades the provenance of a Result.
	Certainty = core.Certainty
	// Result is a solved problem.
	Result = core.Result
	// SolveOptions tunes exact-versus-heuristic routing.
	SolveOptions = core.Options
	// Recorder aggregates solve telemetry — counters, gauges, streaming
	// latency sketches and per-instance-class route profiles — and powers
	// deadline-adaptive routing (see WithRecorder). Create one with
	// NewRecorder and share it across sessions.
	Recorder = telemetry.Recorder
	// RouteSnapshot is one (instance class, route) latency profile cell
	// exported by Recorder.SolveStats.
	RouteSnapshot = telemetry.RouteSnapshot
	// AnnealConfig tunes the simulated-annealing archive of heuristic
	// Pareto fronts.
	AnnealConfig = heuristics.AnnealConfig
	// Front is a Pareto front over (latency, failure probability).
	Front = frontier.Front
	// SimConfig parameterizes a simulation run.
	SimConfig = sim.Config
	// SimMode selects worst-case or Monte-Carlo execution.
	SimMode = sim.Mode
	// SimResult reports a simulation run.
	SimResult = sim.RunResult
	// FPEstimate is a Monte-Carlo estimate of the failure probability.
	FPEstimate = sim.FPEstimate
	// MCSummary aggregates a parallel Monte-Carlo campaign.
	MCSummary = sim.MCSummary
	// SimTrace is a resource-occupation trace (render with Gantt).
	SimTrace = sim.Trace
	// FaultKind is the type of a fault event (crash or recovery).
	FaultKind = sim.FaultKind
	// FaultEvent is one crash/recovery transition of a fault-injection
	// campaign.
	FaultEvent = sim.FaultEvent
	// FaultSchedule is a time-ordered fault-event stream.
	FaultSchedule = sim.FaultSchedule
	// RandomFaultConfig tunes the stochastic fault-schedule generator.
	RandomFaultConfig = sim.RandomFaultConfig
	// RemapConfig tunes the failure-reactive re-mapping controller.
	RemapConfig = remap.Config
	// RemapResult reports one reaction of the re-mapping controller: the
	// installed mapping, its metrics and provenance, and the repair time.
	RemapResult = remap.Repair
	// RemapViolation reports a bound the surviving platform cannot meet.
	RemapViolation = remap.Violation
	// RemapController is the failure-reactive re-mapping loop (see
	// Session.NewRemapController).
	RemapController = remap.Controller
	// RRMapping combines reliability replication with round-robin data
	// parallelism (the paper's future-work §5 extension).
	RRMapping = throughput.RRMapping
	// TriMetrics bundles latency, failure probability and period.
	TriMetrics = throughput.Metrics
	// TriFront is a three-criteria Pareto front.
	TriFront = throughput.TriFront
	// TriResult is a solved tri-criteria instance.
	TriResult = throughput.TriResult
	// CanonicalInstance is the canonical form of a (pipeline, platform)
	// instance: relabeling-invariant bytes plus the permutation that
	// translates mappings between the canonical and original processor
	// ids (see CanonicalizeInstance).
	CanonicalInstance = canon.Canonical
)

// NewRecorder returns an empty telemetry recorder ready to share across
// sessions via WithRecorder; see Recorder.
func NewRecorder() *Recorder { return telemetry.NewRecorder() }

// Platform classes.
const (
	FullyHomogeneous   = platform.FullyHomogeneous
	CommHomogeneous    = platform.CommHomogeneous
	FullyHeterogeneous = platform.FullyHeterogeneous
)

// Objectives.
const (
	MinimizeLatency     = core.MinimizeLatency
	MinimizeFailureProb = core.MinimizeFailureProb
)

// Certainty grades.
const (
	ProvablyOptimal     = core.ProvablyOptimal
	ExhaustivelyOptimal = core.ExhaustivelyOptimal
	Heuristic           = core.Heuristic
	// Partial marks a result returned after context cancellation: the
	// best feasible mapping found before the deadline, no optimality
	// claim.
	Partial = core.Partial
)

// Simulation modes.
const (
	WorstCase  = sim.WorstCase
	MonteCarlo = sim.MonteCarlo
)

// Fault-event kinds.
const (
	FaultCrash   = sim.FaultCrash
	FaultRecover = sim.FaultRecover
)

// Sentinel errors.
var (
	// ErrInfeasible: no interval mapping satisfies the constraint
	// (certain).
	ErrInfeasible = core.ErrInfeasible
	// ErrNotFound: the heuristic search found no feasible mapping
	// (infeasibility not proven).
	ErrNotFound = core.ErrNotFound
	// ErrAllFailed: every processor is down; no valid mapping exists until
	// a recovery arrives.
	ErrAllFailed = remap.ErrAllFailed
	// ErrCanonicalizeComplex: the platform's link symmetry exceeded the
	// canonicalization search budget; solve with the raw labeling instead.
	ErrCanonicalizeComplex = canon.ErrComplex
)

// CanonicalizeInstance computes the canonical form of an instance: two
// instances whose platforms differ only by a processor relabeling get
// byte-identical canonical forms (the paper's mapping problem is
// invariant under such relabelings), which is what lets serving tiers
// share cached solutions across structurally identical requests. The
// returned permutation translates mappings back to the original ids.
func CanonicalizeInstance(p *Pipeline, pl *Platform) (*CanonicalInstance, error) {
	return canon.Canonicalize(p, pl)
}

// TranslateMapping returns a copy of m with every processor id u replaced
// by procMap[u] (alloc sets re-sorted); use a CanonicalInstance's Perm or
// Inv to move mappings between labelings.
func TranslateMapping(m *Mapping, procMap []int) *Mapping {
	return canon.TranslateMapping(m, procMap)
}

// ScriptedCrashes builds a deterministic schedule crashing the given
// processors one after another (unit-spaced virtual times).
func ScriptedCrashes(procs ...int) FaultSchedule { return sim.ScriptedCrashes(procs...) }

// NewRandomFaultSchedule draws a reproducible stochastic crash/recovery
// schedule for an m-processor platform from rng.
func NewRandomFaultSchedule(rng *rand.Rand, m int, cfg RandomFaultConfig) FaultSchedule {
	return sim.RandomFaultSchedule(rng, m, cfg)
}

// NewPipeline builds and validates an n-stage pipeline; len(delta) must be
// len(w)+1 (delta[0] is the initial input, delta[n] the final output).
func NewPipeline(w, delta []float64) (*Pipeline, error) { return pipeline.New(w, delta) }

// UniformPipeline builds an n-stage pipeline with constant stage cost w
// and constant communication volume d.
func UniformPipeline(n int, w, d float64) *Pipeline { return pipeline.Uniform(n, w, d) }

// JPEGPipeline builds the 7-stage JPEG encoder pipeline of the companion
// report [3] for a width×height image.
func JPEGPipeline(width, height int) *Pipeline { return workload.JPEG(width, height) }

// NewFullyHomogeneousPlatform builds m identical processors (speed s,
// failure probability fp) with uniform bandwidth b.
func NewFullyHomogeneousPlatform(m int, s, b, fp float64) (*Platform, error) {
	return platform.NewFullyHomogeneous(m, s, b, fp)
}

// NewCommHomogeneousPlatform builds a platform with per-processor speeds
// and failure probabilities and a single bandwidth for every link.
func NewCommHomogeneousPlatform(speeds, failProbs []float64, b float64) (*Platform, error) {
	return platform.NewCommHomogeneous(speeds, failProbs, b)
}

// NewFullyHeterogeneousPlatform builds a platform from explicit parameter
// slices; b is the m×m inter-processor bandwidth matrix, bIn and bOut the
// input/output link bandwidths.
func NewFullyHeterogeneousPlatform(speeds, failProbs []float64, b [][]float64, bIn, bOut []float64) (*Platform, error) {
	return platform.NewFullyHeterogeneous(speeds, failProbs, b, bIn, bOut)
}

// SingleIntervalMapping maps the whole n-stage pipeline as one interval
// replicated on procs.
func SingleIntervalMapping(n int, procs []int) *Mapping {
	return mapping.NewSingleInterval(n, procs)
}

// Evaluate computes latency and failure probability of an interval
// mapping, selecting the applicable latency formula (Eq. (1) on
// communication-homogeneous platforms, Eq. (2) otherwise).
func Evaluate(p *Pipeline, pl *Platform, m *Mapping) (Metrics, error) {
	return mapping.Evaluate(p, pl, m)
}

// Latency computes the worst-case latency of an interval mapping.
func Latency(p *Pipeline, pl *Platform, m *Mapping) (float64, error) {
	return mapping.Latency(p, pl, m)
}

// FailureProb computes the global failure probability
// 1 − Π_j (1 − Π_{u∈alloc(j)} fp_u).
func FailureProb(pl *Platform, m *Mapping) float64 { return mapping.FailureProb(pl, m) }

// FailureProbLog computes the failure probability through log space,
// which stays accurate when replica products approach the precision of
// float64 (see the Theorem 7 gadget for why this matters).
func FailureProbLog(pl *Platform, m *Mapping) float64 { return mapping.FailureProbLog(pl, m) }

// Solve routes a bi-criteria problem to the strongest method for its
// platform class (the paper's Algorithms 1–4 when provably optimal,
// exhaustive enumeration when small, heuristics otherwise). It is a
// per-call wrapper over a default Session; create a Session directly to
// reuse the evaluator across calls or to cancel via context.
func Solve(pr Problem) (Result, error) { return SolveWithOptions(pr, SolveOptions{}) }

// SolveWithOptions is Solve with explicit routing options.
func SolveWithOptions(pr Problem, opts SolveOptions) (Result, error) {
	s, err := NewSession(pr.Pipeline, pr.Platform, sessionOptionsFrom(opts)...)
	if err != nil {
		return Result{}, err
	}
	return s.Solve(context.Background(), SolveRequest{
		Objective:   pr.Objective,
		MaxLatency:  pr.MaxLatency,
		MaxFailProb: pr.MaxFailProb,
	})
}

// sessionOptionsFrom translates legacy SolveOptions into session options.
func sessionOptionsFrom(opts SolveOptions) []SessionOption {
	return []SessionOption{
		WithWorkers(opts.Workers),
		WithExactBudget(opts.ExactBudget),
		WithAnneal(opts.Anneal),
		WithForceHeuristic(opts.ForceHeuristic),
	}
}

// MinLatencyGeneralMapping computes the latency-optimal general mapping by
// Theorem 4's layered-graph shortest path (polynomial on every platform).
func MinLatencyGeneralMapping(p *Pipeline, pl *Platform) (*GeneralMapping, float64, error) {
	res, err := core.MinLatencyGeneral(p, pl)
	if err != nil {
		return nil, 0, err
	}
	return res.Mapping, res.Latency, nil
}

// IntervalBounds is a two-sided bound on the open problem of
// latency-minimal interval mappings on Fully Heterogeneous platforms.
type IntervalBounds = poly.IntervalBounds

// IntervalLatencyBounds computes polynomial two-sided bounds on the
// latency-optimal interval mapping of a Fully Heterogeneous platform
// (paper §4.1 leaves the exact complexity open): Theorem 4's general
// optimum from below, a repaired interval mapping from above, with a
// provable-optimality certificate when the two coincide.
func IntervalLatencyBounds(p *Pipeline, pl *Platform) (IntervalBounds, error) {
	return poly.IntervalLatencyBounds(p, pl)
}

// BeamSearchMinLatency runs the scalable beam-search heuristic for
// latency-minimal interval mappings on heterogeneous platforms (the
// §4.1 open problem); beamWidth ≤ 0 selects the default (16).
func BeamSearchMinLatency(p *Pipeline, pl *Platform, beamWidth int) (*Mapping, Metrics, error) {
	res, err := heuristics.BeamSearchMinLatency(context.Background(), &heuristics.Problem{Pipe: p, Plat: pl}, beamWidth)
	if err != nil {
		return nil, Metrics{}, err
	}
	return res.Mapping, res.Metrics, nil
}

// MinFailureProb returns Theorem 1's optimum: the whole pipeline
// replicated on every processor.
func MinFailureProb(p *Pipeline, pl *Platform) (Result, error) {
	return Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb})
}

// ParetoFront computes the latency/FP trade-off curve: exhaustively on
// small instances, by annealing archive otherwise.
func ParetoFront(p *Pipeline, pl *Platform, opts SolveOptions) (*Front, Certainty, error) {
	s, err := NewSession(p, pl, sessionOptionsFrom(opts)...)
	if err != nil {
		return nil, 0, err
	}
	return s.Pareto(context.Background())
}

// Simulate executes a mapped workflow on the discrete-event simulator.
// WorstCase mode reproduces the analytic latency exactly; MonteCarlo mode
// draws a crash pattern from the failure probabilities.
func Simulate(p *Pipeline, pl *Platform, m *Mapping, cfg SimConfig) (SimResult, error) {
	return sim.Run(p, pl, m, cfg)
}

// SimulateInjected executes the workflow under an explicit crash pattern
// (failed[u] = true kills processor u for the whole run).
func SimulateInjected(p *Pipeline, pl *Platform, m *Mapping, cfg SimConfig, failed []bool) (SimResult, error) {
	return sim.RunInjected(p, pl, m, cfg, failed)
}

// EstimateFailureProb estimates a mapping's failure probability by
// Monte-Carlo sampling of crash patterns.
func EstimateFailureProb(pl *Platform, m *Mapping, trials int, rng *rand.Rand) (FPEstimate, error) {
	return sim.EstimateFP(pl, m, trials, rng)
}

// EstimateFailureProbParallel fans the sampling out over worker
// goroutines with deterministic per-worker RNG streams (workers ≤ 0 uses
// GOMAXPROCS).
func EstimateFailureProbParallel(pl *Platform, m *Mapping, trials, workers int, seed int64) (FPEstimate, error) {
	return sim.EstimateFPParallel(context.Background(), pl, m, trials, workers, seed)
}

// MonteCarloCampaign runs trials independent Monte-Carlo simulations in
// parallel and aggregates failure rate and latency statistics.
func MonteCarloCampaign(p *Pipeline, pl *Platform, m *Mapping, cfg SimConfig, trials, workers int, seed int64) (MCSummary, error) {
	return sim.MonteCarloLatencyParallel(context.Background(), p, pl, m, cfg, trials, workers, seed)
}

// Lemma1SingleInterval applies the paper's Lemma 1 transformation: on
// Fully Homogeneous (any failures) or CommHom+FailureHom platforms it
// returns a single-interval mapping at least as good as m in both
// criteria.
func Lemma1SingleInterval(p *Pipeline, pl *Platform, m *Mapping) (*Mapping, error) {
	return poly.Lemma1Transform(p, pl, m)
}

// Period computes the worst-case steady-state period (inverse throughput)
// of an interval mapping under the overlap model; it equals the
// simulator's steady-state inter-completion gap exactly. This implements
// the throughput criterion of the paper's future work (§5).
func Period(p *Pipeline, pl *Platform, m *Mapping) (float64, error) {
	return throughput.PeriodOverlap(p, pl, m)
}

// PeriodSustainable includes every hot standby's compute cycle: the
// smallest period at which no replica's queue diverges.
func PeriodSustainable(p *Pipeline, pl *Platform, m *Mapping) (float64, error) {
	return throughput.PeriodSustainable(p, pl, m)
}

// PeriodNoOverlap is the period under the sequential receive/compute/send
// machine model of the multi-criteria companion papers.
func PeriodNoOverlap(p *Pipeline, pl *Platform, m *Mapping) (float64, error) {
	return throughput.PeriodNoOverlap(p, pl, m)
}

// RoundRobinMapping wraps a reliability mapping as an RRMapping with one
// group per interval; split groups to trade reliability for throughput.
func RoundRobinMapping(m *Mapping) *RRMapping { return throughput.FromMapping(m) }

// MinPeriodUnderConstraints exhaustively finds the RR mapping of minimum
// period with latency ≤ maxLatency and FP ≤ maxFailProb (small instances).
func MinPeriodUnderConstraints(p *Pipeline, pl *Platform, maxLatency, maxFailProb float64) (TriResult, error) {
	return throughput.MinPeriodUnderConstraints(p, pl, maxLatency, maxFailProb, exact.Options{})
}

// GreedyRoundRobin splits bottleneck groups round-robin as long as the
// period improves within both constraints (scalable heuristic).
func GreedyRoundRobin(p *Pipeline, pl *Platform, m *Mapping, maxLatency, maxFailProb float64) (TriResult, error) {
	return throughput.GreedyRR(context.Background(), p, pl, m, maxLatency, maxFailProb)
}

// TriParetoFront enumerates the three-criteria Pareto front (latency, FP,
// period) over RR mappings of a small instance.
func TriParetoFront(p *Pipeline, pl *Platform) (*TriFront, error) {
	return throughput.TriPareto(p, pl, exact.Options{})
}

// Fig34Instance returns the paper's Section 3 motivating example
// (Figures 3 and 4): splitting beats any single processor, 7 versus 105.
func Fig34Instance() (*Pipeline, *Platform) { return workload.Fig34() }

// Fig5Instance returns the paper's Figure 5 example (CommHom+FailureHet,
// where the bi-criteria optimum needs two intervals).
func Fig5Instance() (*Pipeline, *Platform) { return workload.Fig5() }
