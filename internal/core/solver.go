// Package core is the solver facade of the library: it routes a
// bi-criteria mapping problem to the strongest method available for its
// platform class, mirroring the paper's complexity map.
//
//	platform class              method                      certainty
//	─────────────────────────   ─────────────────────────   ───────────
//	Fully Homogeneous           Algorithm 1 / Algorithm 2   provably optimal
//	CommHom + FailureHom        Algorithm 3 / Algorithm 4   provably optimal
//	CommHom + FailureHet        exact search (small) or     exhaustive /
//	(open problem, §4.4)        greedy                      heuristic
//	Fully Heterogeneous         exact search (small) or     exhaustive /
//	(NP-hard, Theorem 7)        greedy                      heuristic
//
// Mono-criterion queries (no constraint) route to Theorem 1 (minimum
// failure probability, any platform) and Theorem 2 (minimum latency,
// communication-homogeneous platforms). Unconstrained minimum latency on
// fully heterogeneous platforms takes Theorem 4's relaxation: its
// repaired path is provably optimal when the general optimum is
// interval-shaped, and otherwise competes with the exact or heuristic
// search above, the better answer winning. Latency minimization over
// *general* mappings — Theorem 4's shortest-path algorithm — is exposed
// separately as MinLatencyGeneral since it leaves the interval-mapping
// space.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/exact"
	"repro/internal/frontier"
	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/poly"
	"repro/internal/telemetry"
)

// Objective selects the minimized criterion.
type Objective int

const (
	// MinimizeLatency minimizes the response time, optionally under a
	// failure-probability bound.
	MinimizeLatency Objective = iota
	// MinimizeFailureProb minimizes the failure probability, optionally
	// under a latency bound.
	MinimizeFailureProb
)

func (o Objective) String() string {
	if o == MinimizeLatency {
		return "minimize latency"
	}
	return "minimize failure probability"
}

// Problem is a bi-criteria interval-mapping instance. Leave the
// constraint at its zero value (or +Inf / 1 respectively) for
// mono-criterion queries.
type Problem struct {
	Pipeline  *pipeline.Pipeline
	Platform  *platform.Platform
	Objective Objective
	// MaxLatency bounds the latency when minimizing failure probability.
	// 0 or +Inf means unconstrained.
	MaxLatency float64
	// MaxFailProb bounds the failure probability when minimizing latency.
	// 0 or 1 means unconstrained (every mapping has FP ≤ 1).
	MaxFailProb float64
}

// Certainty grades how strong the returned answer is.
type Certainty int

const (
	// ProvablyOptimal: produced by one of the paper's polynomial
	// algorithms on its platform class.
	ProvablyOptimal Certainty = iota
	// ExhaustivelyOptimal: produced by complete enumeration.
	ExhaustivelyOptimal
	// Heuristic: best mapping found by the heuristic search; optimality
	// is not guaranteed (the underlying problem is NP-hard or open).
	Heuristic
	// Partial: the solve was canceled (context deadline or explicit
	// cancellation) before the search completed; the result is the best
	// feasible mapping found so far and carries no optimality claim.
	Partial
)

func (c Certainty) String() string {
	switch c {
	case ProvablyOptimal:
		return "provably optimal"
	case ExhaustivelyOptimal:
		return "exhaustively optimal"
	case Partial:
		return "partial (canceled)"
	default:
		return "heuristic"
	}
}

// Result is a solved problem: the mapping, its metrics, and the provenance
// of the answer.
type Result struct {
	Mapping   *mapping.Mapping
	Metrics   mapping.Metrics
	Certainty Certainty
	Method    string
	// Route names the solver family that produced the answer — "poly",
	// "exact" or "heuristic" — the routing decision in
	// machine-readable form (Method carries the human-readable detail).
	Route string
}

// ErrInfeasible is returned when it is certain that no interval mapping
// satisfies the constraint.
var ErrInfeasible = errors.New("core: no mapping satisfies the constraint")

// ErrNotFound is returned when the heuristic search found no feasible
// mapping; unlike ErrInfeasible this does not prove none exists.
var ErrNotFound = errors.New("core: no feasible mapping found (heuristic search; instance may still be feasible)")

// Options tunes the solver.
type Options struct {
	// ExactBudget is the largest interval-mapping count for which the
	// exact enumerator is used on the hard classes (default 5,000,000).
	// The pruned branch-and-bound engine solves instances of that size in
	// well under a second on commodity hardware (the 1.94M-mapping Figure 5
	// instance enumerates in ~2 ms), so the default is set by answer
	// latency, not by enumeration feasibility. Communication-homogeneous
	// platforms with m ≤ 16 take the exact route at any count; twice the
	// budget caps the mappings one exact search may evaluate.
	ExactBudget float64
	// Workers is the goroutine count for the exact enumeration fan-out
	// (0 = GOMAXPROCS, 1 = sequential). Forwarded to exact.Options.Workers;
	// results are identical for every worker count.
	Workers int
	// Anneal configures the annealing archive of the heuristic Pareto
	// front (Pareto only; Solve never anneals).
	Anneal heuristics.AnnealConfig
	// ForceHeuristic skips exact enumeration even on small instances.
	ForceHeuristic bool
	// Eval, when non-nil, is a prebuilt evaluator for the problem's
	// (pipeline, platform) pair; long-lived sessions use it to amortize the
	// evaluator precomputation across calls. It is forwarded to the exact
	// solvers, which otherwise rebuild it per call.
	Eval *mapping.Evaluator
	// Recorder, when non-nil, receives per-solve telemetry (route attempts
	// with phase durations, outcome, certainty) and powers deadline-adaptive
	// routing: on the hard classes, a route whose warm per-class p95 exceeds
	// the context's remaining deadline budget is skipped up front in favor
	// of a faster route, instead of starting a search that is statistically
	// certain to be truncated to a Partial answer. Nil keeps the purely
	// structural routing and adds no overhead.
	Recorder *telemetry.Recorder
}

func (o Options) exactBudget() float64 {
	if o.ExactBudget > 0 {
		return o.ExactBudget
	}
	return 5_000_000
}

// Solve routes the problem with default options.
func Solve(pr Problem) (Result, error) { return SolveWithOptions(pr, Options{}) }

// SolveWithOptions routes the problem to the strongest applicable method.
func SolveWithOptions(pr Problem, opts Options) (Result, error) {
	return SolveCtx(context.Background(), pr, opts)
}

// SolveCtx is SolveWithOptions under a context: the exact enumeration
// and the greedy fallback poll ctx and stop early when it is done. A
// canceled solve returns the best feasible mapping found so far graded
// Partial (greedy's seed when cancellation struck before the search saw
// any candidate); the error is non-nil only when no feasible mapping
// could be produced at all. Uncanceled solves are deterministic and
// behave exactly like SolveWithOptions.
func SolveCtx(ctx context.Context, pr Problem, opts Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(pr); err != nil {
		return Result{}, err
	}
	tr := startTrace(ctx, pr, opts)
	var res Result
	var err error
	if pr.Objective == MinimizeFailureProb {
		res, err = solveMinFP(ctx, pr, opts, tr)
	} else {
		res, err = solveMinLatency(ctx, pr, opts, tr)
	}
	tr.finish(&res, err)
	return res, err
}

func validate(pr Problem) error {
	if pr.Pipeline == nil || pr.Platform == nil {
		return fmt.Errorf("core: problem needs both a pipeline and a platform")
	}
	if err := pr.Pipeline.Validate(); err != nil {
		return err
	}
	if err := pr.Platform.Validate(); err != nil {
		return err
	}
	if pr.MaxLatency < 0 || math.IsNaN(pr.MaxLatency) {
		return fmt.Errorf("core: invalid MaxLatency %v", pr.MaxLatency)
	}
	if pr.MaxFailProb < 0 || pr.MaxFailProb > 1 || math.IsNaN(pr.MaxFailProb) {
		return fmt.Errorf("core: invalid MaxFailProb %v", pr.MaxFailProb)
	}
	return nil
}

func (pr Problem) latencyUnconstrained() bool {
	return pr.MaxLatency == 0 || math.IsInf(pr.MaxLatency, 1)
}

func (pr Problem) fpUnconstrained() bool {
	return pr.MaxFailProb == 0 || pr.MaxFailProb == 1
}

func solveMinFP(ctx context.Context, pr Problem, opts Options, tr *solveTrace) (Result, error) {
	// Unconstrained: Theorem 1 on every platform class.
	if pr.latencyUnconstrained() {
		res, err := poly.MinFailureProb(pr.Pipeline, pr.Platform)
		if err != nil {
			return Result{}, err
		}
		return Result{res.Mapping, res.Metrics, ProvablyOptimal, "Theorem 1: replicate the whole pipeline on all processors", "poly"}, nil
	}
	cls := pr.Platform.Classify()
	switch {
	case cls == platform.FullyHomogeneous:
		res, err := poly.Algorithm1(pr.Pipeline, pr.Platform, pr.MaxLatency)
		if errors.Is(err, poly.ErrInfeasible) {
			return Result{}, fmt.Errorf("Algorithm 1: %w", ErrInfeasible)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{res.Mapping, res.Metrics, ProvablyOptimal, "Algorithm 1 (Theorem 5)", "poly"}, nil
	case cls == platform.CommHomogeneous && pr.Platform.FailureHomogeneous():
		res, err := poly.Algorithm3(pr.Pipeline, pr.Platform, pr.MaxLatency)
		if errors.Is(err, poly.ErrInfeasible) {
			return Result{}, fmt.Errorf("Algorithm 3: %w", ErrInfeasible)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{res.Mapping, res.Metrics, ProvablyOptimal, "Algorithm 3 (Theorem 6)", "poly"}, nil
	}
	return solveHard(ctx, pr, opts, tr)
}

func solveMinLatency(ctx context.Context, pr Problem, opts Options, tr *solveTrace) (Result, error) {
	cls := pr.Platform.Classify()
	if pr.fpUnconstrained() {
		if cls == platform.FullyHomogeneous || cls == platform.CommHomogeneous {
			res, err := poly.MinLatencyCommHom(pr.Pipeline, pr.Platform)
			if err != nil {
				return Result{}, err
			}
			return Result{res.Mapping, res.Metrics, ProvablyOptimal, "Theorem 2: whole pipeline on the fastest processor", "poly"}, nil
		}
		// Fully heterogeneous latency minimization over interval mappings:
		// complexity open (the paper suspects NP-hard). The Theorem 4
		// relaxation gives two-sided bounds; when the shortest general
		// path is already interval-shaped the repaired mapping is provably
		// optimal. Otherwise fall back to exact/heuristic search and keep
		// the better of the two answers.
		bounds, bErr := poly.IntervalLatencyBounds(pr.Pipeline, pr.Platform)
		if bErr == nil && bounds.Tight {
			return Result{bounds.Upper.Mapping, bounds.Upper.Metrics, ProvablyOptimal,
				"Theorem 4 relaxation (general optimum is interval-shaped)", "poly"}, nil
		}
		res, err := solveHard(ctx, pr, opts, tr)
		if bErr == nil && (err != nil || bounds.Upper.Metrics.Latency < res.Metrics.Latency) {
			cert := Heuristic
			if ctx.Err() != nil {
				cert = Partial
			}
			res = Result{bounds.Upper.Mapping, bounds.Upper.Metrics, cert,
				"Theorem 4 relaxation + path repair", "poly"}
			err = nil
		}
		return res, err
	}
	switch {
	case cls == platform.FullyHomogeneous:
		res, err := poly.Algorithm2(pr.Pipeline, pr.Platform, pr.MaxFailProb)
		if errors.Is(err, poly.ErrInfeasible) {
			return Result{}, fmt.Errorf("Algorithm 2: %w", ErrInfeasible)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{res.Mapping, res.Metrics, ProvablyOptimal, "Algorithm 2 (Theorem 5)", "poly"}, nil
	case cls == platform.CommHomogeneous && pr.Platform.FailureHomogeneous():
		res, err := poly.Algorithm4(pr.Pipeline, pr.Platform, pr.MaxFailProb)
		if errors.Is(err, poly.ErrInfeasible) {
			return Result{}, fmt.Errorf("Algorithm 4: %w", ErrInfeasible)
		}
		if err != nil {
			return Result{}, err
		}
		return Result{res.Mapping, res.Metrics, ProvablyOptimal, "Algorithm 4 (Theorem 6)", "poly"}, nil
	}
	return solveHard(ctx, pr, opts, tr)
}

// commHomExactProcs admits communication-homogeneous platforms with up
// to this many processors to the exact route whatever their
// EstimateMappingCount: branch and bound prunes them far below the
// unpruned count, which would otherwise send instances it solves in
// tens of milliseconds (n = 5, m = 12 counts ~2·10⁹ mappings) to the
// heuristics. The enumeration cap (twice the exact budget) and the
// ErrBudget fall-through to the heuristics still bound the work of an
// instance that does not prune.
const commHomExactProcs = 16

// solveHard handles the open and NP-hard classes: exact branch and bound
// when the instance is small enough (communication-homogeneous platforms
// with m ≤ commHomExactProcs, or an estimated mapping count within the
// exact budget), and greedy otherwise. Cancellation during the exact
// search yields the incumbent graded Partial; when the context fired
// before any candidate was seen, greedy serves its seed (the better of
// the single-interval sweep and full replication) graded Partial.
//
// With a warm telemetry profile, each structural gate is additionally
// conditioned on tr.fits: a route whose per-class p95 latency exceeds the
// remaining deadline budget is skipped up front — the next route serves a
// complete (if weaker-certainty) answer instead of a truncated Partial.
func solveHard(ctx context.Context, pr Problem, opts Options, tr *solveTrace) (Result, error) {
	n, m := pr.Pipeline.NumStages(), pr.Platform.NumProcs()
	// An already-done context must not start the exact search; greedy
	// then returns its seed without searching.
	if !opts.ForceHeuristic && ctx.Err() == nil {
		_, commHom := pr.Platform.CommHomogeneous()
		if (commHom && m <= commHomExactProcs || EstimateMappingCount(n, m) <= opts.exactBudget()) && tr.fits(telemetry.RouteExact) {
			began := tr.begin()
			res, err := solveExact(ctx, pr, opts)
			if err == nil || errors.Is(err, ErrInfeasible) {
				tr.end(telemetry.RouteExact, began, attemptOutcome(err, res.Certainty == Partial))
				return res, err
			}
			// Canceled before any incumbent, or failed for another
			// reason: fall through to greedy.
			out := telemetry.OutcomeError
			if errors.Is(err, exact.ErrCanceled) {
				out = telemetry.OutcomePartial
			}
			tr.end(telemetry.RouteExact, began, out)
		}
	}
	return solveHeuristic(ctx, pr, opts, tr)
}

func solveExact(ctx context.Context, pr Problem, opts Options) (Result, error) {
	exOpts := exact.Options{MaxEnum: int64(opts.exactBudget()) * 2, Workers: opts.Workers, Ctx: ctx, Eval: opts.Eval, Recorder: opts.Recorder}
	var res exact.Result
	var err error
	var method string
	if pr.Objective == MinimizeFailureProb {
		res, err = exact.MinFPUnderLatency(pr.Pipeline, pr.Platform, pr.MaxLatency, exOpts)
		method = "exhaustive search (min FP s.t. latency)"
	} else {
		bound := pr.MaxFailProb
		if pr.fpUnconstrained() {
			bound = 1
		}
		res, err = exact.MinLatencyUnderFP(pr.Pipeline, pr.Platform, bound, exOpts)
		method = "exhaustive search (min latency s.t. FP)"
	}
	if errors.Is(err, exact.ErrCanceled) {
		if res.Mapping != nil {
			return Result{res.Mapping, res.Metrics, Partial, method + " (canceled: best-so-far)", "exact"}, nil
		}
		return Result{}, err
	}
	if errors.Is(err, exact.ErrInfeasible) {
		return Result{}, fmt.Errorf("%s: %w", method, ErrInfeasible)
	}
	if err != nil {
		return Result{}, err
	}
	return Result{res.Mapping, res.Metrics, ExhaustivelyOptimal, method, "exact"}, nil
}

// heuristicProblem translates the core problem into the heuristics
// package's goal/bound form, handing down the Session-cached evaluator
// (when one is configured) so every heuristic scores candidates through
// the shared precomputed state instead of rebuilding it per call.
func heuristicProblem(pr Problem, opts Options) *heuristics.Problem {
	hp := &heuristics.Problem{Pipe: pr.Pipeline, Plat: pr.Platform, Eval: opts.Eval, Recorder: opts.Recorder}
	if pr.Objective == MinimizeFailureProb {
		hp.Goal = heuristics.MinFP
		hp.Bound = pr.MaxLatency
	} else {
		hp.Goal = heuristics.MinLatency
		hp.Bound = pr.MaxFailProb
		if pr.fpUnconstrained() {
			hp.Bound = 1
		}
	}
	return hp
}

// solveHeuristic runs greedy local improvement. Under a done context
// greedy returns its seed without searching, so the same call serves the
// canceled-solve fallback; its answer is then graded Partial.
func solveHeuristic(ctx context.Context, pr Problem, opts Options, tr *solveTrace) (Result, error) {
	began := tr.begin()
	// Greedy returns its best-so-far mapping alongside a non-nil error
	// when canceled; that mapping is usable.
	g, err := heuristics.Greedy(ctx, heuristicProblem(pr, opts))
	if g.Mapping == nil {
		tr.end(telemetry.RouteHeuristic, began, telemetry.OutcomeNotFound)
		if cause := context.Cause(ctx); cause != nil {
			return Result{}, fmt.Errorf("%w: %w", ErrNotFound, cause)
		}
		return Result{}, fmt.Errorf("greedy: %w", ErrNotFound)
	}
	cert := Heuristic
	if err != nil || ctx.Err() != nil {
		cert = Partial
	}
	tr.end(telemetry.RouteHeuristic, began, attemptOutcome(nil, cert == Partial))
	return Result{g.Mapping, g.Metrics, cert, "greedy local improvement", "heuristic"}, nil
}

// MinLatencyGeneral exposes Theorem 4: the latency-optimal general
// (non-interval, non-replicated) mapping via the layered-graph shortest
// path. Valid on every platform class.
func MinLatencyGeneral(p *pipeline.Pipeline, pl *platform.Platform) (poly.GeneralResult, error) {
	if err := p.Validate(); err != nil {
		return poly.GeneralResult{}, err
	}
	if err := pl.Validate(); err != nil {
		return poly.GeneralResult{}, err
	}
	return poly.MinLatencyGeneral(p, pl), nil
}

// EstimateMappingCount returns the number of interval mappings of n
// stages on m processors with replication: Σ_p C(n−1, p−1)·A(p, m), where
// A(p, m) = Σ_i (−1)^i C(p, i)·(p+1−i)^m counts (by inclusion–exclusion
// over empty intervals) the assignments of each processor to one of the p
// intervals or to none, with every interval non-empty. Used to decide
// exact-vs-heuristic routing against Options.ExactBudget.
//
// Earlier revisions upper-bounded A(p, m) by (p+1)^m, which overshoots by
// orders of magnitude for p close to m and made the router fall back to
// heuristics on instances the pruned enumerator dispatches in
// milliseconds; the count here is exact (up to float64 rounding), so the
// budget now measures real enumeration work.
func EstimateMappingCount(n, m int) float64 {
	total := 0.0
	for p := 1; p <= n && p <= m; p++ {
		total += binom(n-1, p-1) * surjectiveAssignments(p, m)
		if total > 1e18 {
			return total
		}
	}
	return total
}

// surjectiveAssignments counts the ways to give each of m processors one
// of p interval labels or the "unused" label such that no interval label
// is missing.
func surjectiveAssignments(p, m int) float64 {
	total := 0.0
	sign := 1.0
	for i := 0; i <= p; i++ {
		total += sign * binom(p, i) * math.Pow(float64(p+1-i), float64(m))
		sign = -sign
	}
	return total
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	r := 1.0
	for i := 0; i < k; i++ {
		r = r * float64(n-i) / float64(i+1)
	}
	return r
}

// Pareto computes the latency/FP trade-off front: exhaustively on small
// instances, by annealing archive otherwise.
func Pareto(p *pipeline.Pipeline, pl *platform.Platform, opts Options) (*frontier.Front, Certainty, error) {
	return ParetoCtx(context.Background(), p, pl, opts)
}

// ParetoCtx is Pareto under a context. A canceled enumeration returns the
// non-dominated set of the candidates visited so far graded Partial (the
// metric points are genuine mappings, but the front may be incomplete);
// the heuristic fallback is graded Partial likewise when its annealing
// walks were cut short.
func ParetoCtx(ctx context.Context, p *pipeline.Pipeline, pl *platform.Platform, opts Options) (*frontier.Front, Certainty, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	if err := pl.Validate(); err != nil {
		return nil, 0, err
	}
	n, m := p.NumStages(), pl.NumProcs()
	if !opts.ForceHeuristic && EstimateMappingCount(n, m) <= opts.exactBudget() {
		results, err := exact.ParetoFront(p, pl, exact.Options{MaxEnum: int64(opts.exactBudget()) * 2, Workers: opts.Workers, Ctx: ctx, Eval: opts.Eval})
		if err == nil || (errors.Is(err, exact.ErrCanceled) && len(results) > 0) {
			front := &frontier.Front{}
			for _, r := range results {
				front.Insert(r.Metrics, r.Mapping)
			}
			if err != nil {
				return front, Partial, nil
			}
			return front, ExhaustivelyOptimal, nil
		}
	}
	front, hErr := heuristics.ParetoSearch(ctx, &heuristics.Problem{Pipe: p, Plat: pl, Eval: opts.Eval}, opts.Anneal)
	if hErr != nil || ctx.Err() != nil {
		// A truncated sweep that archived nothing is a failure, not an
		// empty trade-off curve: mirror Solve's contract (result or
		// error, never a silent empty success).
		if front.Len() == 0 {
			return nil, 0, fmt.Errorf("core: pareto canceled before any feasible mapping: %w", context.Cause(ctx))
		}
		return front, Partial, nil
	}
	return front, Heuristic, nil
}
