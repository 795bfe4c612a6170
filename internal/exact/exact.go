// Package exact provides exponential-time exhaustive solvers used as
// ground truth on small instances: they enumerate every interval mapping
// (optionally with replication), every one-to-one mapping, or every
// general mapping, and optimize either criterion under a threshold on the
// other. The polynomial algorithms of package poly and the heuristics of
// package heuristics are validated against these oracles, and the
// NP-hardness reductions of package npc use them as decision procedures.
//
// All four interval-mapping solvers (MinLatencyInterval, MinFPUnderLatency,
// MinLatencyUnderFP, ParetoFront) run on the shared bitmask enumeration
// engine of engine.go: candidates are interval boundaries plus replica
// bitmasks evaluated through mapping.Evaluator with zero heap
// allocations, subtrees provably worse than the incumbent (or outside the
// constraint) are pruned, and the search fans out over Options.Workers
// goroutines by first-interval subtree. Platforms up to 64 processors
// (62 with replication) run the uint64-register narrow search; wider
// platforms run the multi-word bitset search of enginewide.go — same
// pruning, budget, cancellation and determinism guarantees for any m.
// Results are deterministic and independent of the worker count.
//
// Bound sharing: workers publish every strictly better incumbent through
// one atomic word (incumbent.go) and read it once per node, so each
// subtree prunes against the global best rather than its own. The
// discipline that keeps this deterministic — prune only strictly beyond
// tolerance, break metric ties by task order, treat a stale bound as
// costing work but never correctness — is documented in incumbent.go and
// enforced by the determinism property tests across worker counts.
//
// Batch evaluation: on non-replication levels the engines score every
// singleton sibling of a shared interval prefix in one
// mapping.EvaluateMany(W) call, hoisting sibling-invariant subterms while
// preserving the single-candidate association order bitwise (see
// internal/mapping/evalmany.go for the contract).
//
// Invariants the tests enforce: complete-candidate metrics are bitwise
// identical to the slice-based mapping.Evaluate on both search paths;
// batch-scored siblings are bitwise identical to the single-candidate
// push arithmetic; the enumeration inner loop performs zero heap
// allocations per visited node; solver outputs (mapping and metrics) are
// bitwise identical for every worker count; and canceling Options.Ctx
// aborts within one sibling block, returning the best incumbent found so
// far.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/frontier"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// ErrBudget is returned when an enumeration would exceed Options.MaxEnum
// evaluated mappings; callers should shrink the instance or raise the cap.
var ErrBudget = errors.New("exact: enumeration budget exceeded")

// ErrInfeasible is returned when no enumerated mapping satisfies the
// constraint.
var ErrInfeasible = errors.New("exact: no mapping satisfies the constraint")

// ErrCanceled is returned when Options.Ctx was canceled before the
// enumeration completed. Errors carrying it also wrap the context's cause,
// so errors.Is works against both ErrCanceled and context.Canceled /
// context.DeadlineExceeded. The four interval-mapping solvers return their
// best-so-far incumbent alongside this error when one was found; such a
// result is feasible but not proven optimal.
var ErrCanceled = errors.New("exact: enumeration canceled")

// Options tunes the enumeration.
type Options struct {
	// Replication enumerates every assignment of disjoint processor
	// subsets to intervals. When false, only one processor per interval is
	// considered (sufficient for latency-only optimization: replication
	// can only increase latency).
	Replication bool
	// MaxEnum caps the number of evaluated mappings (default
	// DefaultMaxEnum). Branch-and-bound pruned subtrees are not charged,
	// so the same budget now covers far larger instances than full
	// enumeration did.
	MaxEnum int64
	// Workers is the number of enumeration goroutines used by the four
	// interval-mapping solvers and ForEachMappingParallel: 0 means
	// GOMAXPROCS, 1 forces a sequential search. Results are identical for
	// every worker count.
	Workers int
	// Ctx cancels the enumeration early: when it is done, every worker
	// aborts at its next search node and the solvers return the best
	// incumbent found so far wrapped in ErrCanceled. nil means
	// context.Background() (never canceled). Results remain deterministic
	// whenever the enumeration runs to completion.
	Ctx context.Context
	// Eval, when non-nil, is a prebuilt evaluator for the same
	// (pipeline, platform) pair, letting long-lived sessions amortize the
	// precomputation across calls. The caller is responsible for the pair
	// actually matching the solver arguments.
	Eval *mapping.Evaluator
	// Recorder, when non-nil, receives per-run engine telemetry: run and
	// enumerated-mapping counters plus a search-duration sketch. The
	// enumeration inner loop is untouched either way — recording happens
	// once per run, outside the hot path.
	Recorder *telemetry.Recorder

	// forceWide (tests only) runs the multi-word wide search even on
	// platforms the narrow uint64 search covers, so the wide path can be
	// property-tested exhaustively against the slice reference on small
	// instances.
	forceWide bool
}

// DefaultMaxEnum is the enumeration budget applied when Options.MaxEnum
// is zero. Exported so callers layering their own enumeration on top
// (throughput's RR grouping sweep) can charge the same budget.
const DefaultMaxEnum = 5_000_000

func (o Options) maxEnum() int64 {
	if o.MaxEnum > 0 {
		return o.MaxEnum
	}
	return DefaultMaxEnum
}

// evaluator returns the cached evaluator when the caller supplied one and
// builds (validating the instance) otherwise.
func (o Options) evaluator(p *pipeline.Pipeline, pl *platform.Platform) (*mapping.Evaluator, error) {
	if o.Eval != nil {
		return o.Eval, nil
	}
	return mapping.NewEvaluator(p, pl)
}

// canceledErr wraps both ErrCanceled and the context's cancellation cause.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// WorkerCount resolves Workers to the effective goroutine count.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return defaultWorkers()
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// latencyTol mirrors package poly: thresholds sitting exactly on an
// achievable latency stay feasible despite float accumulation.
const latencyTol = 1e-9

func leqTol(x, bound float64) bool {
	return x <= bound+latencyTol*math.Max(1, math.Abs(bound))
}

// ForEachMapping enumerates every valid interval mapping of n stages onto
// m processors, invoking visit for each. The *mapping.Mapping passed to
// visit is reused between calls — clone it to retain it. Enumeration stops
// early when visit returns false. The error is ErrBudget if the cap was
// hit.
//
// This is the original slice-based enumerator. It survives purely as the
// reference implementation the bitmask engine (narrow and wide) is
// property-tested against; production enumeration — any m — goes through
// ForEachMappingParallel and the engine.
func ForEachMapping(n, m int, opts Options, visit func(*mapping.Mapping) bool) error {
	budget := opts.maxEnum()
	count := int64(0)
	stopped := false
	canceled := false
	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}

	intervals := make([]mapping.Interval, 0, n)
	// assign[u] = interval index of processor u, or -1 when unused.
	assign := make([]int, m)

	var emit func(p int) bool // builds alloc from assign and visits
	emit = func(p int) bool {
		alloc := make([][]int, p)
		for u, j := range assign {
			if j >= 0 {
				alloc[j] = append(alloc[j], u)
			}
		}
		for j := 0; j < p; j++ {
			if len(alloc[j]) == 0 {
				return true // not a valid mapping; skip silently
			}
		}
		count++
		if done != nil && count&1023 == 0 {
			select {
			case <-done:
				canceled = true
				return false
			default:
			}
		}
		if count > budget {
			return false
		}
		mp := &mapping.Mapping{Intervals: intervals, Alloc: alloc}
		if !visit(mp) {
			stopped = true
			return false
		}
		return true
	}

	var assignProcs func(u, p int) bool
	assignProcs = func(u, p int) bool {
		if u == m {
			return emit(p)
		}
		for j := -1; j < p; j++ {
			assign[u] = j
			if !opts.Replication && j >= 0 {
				// at most one processor per interval
				dup := false
				for v := 0; v < u; v++ {
					if assign[v] == j {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
			}
			if !assignProcs(u+1, p) {
				return false
			}
		}
		assign[u] = -1
		return true
	}

	var split func(start int) bool
	split = func(start int) bool {
		if start == n {
			p := len(intervals)
			if p > m {
				return true
			}
			for u := range assign {
				assign[u] = -1
			}
			return assignProcs(0, p)
		}
		for end := start; end < n; end++ {
			intervals = append(intervals, mapping.Interval{First: start, Last: end})
			ok := split(end + 1)
			intervals = intervals[:len(intervals)-1]
			if !ok {
				return false
			}
		}
		return true
	}

	if n <= 0 || m <= 0 {
		return fmt.Errorf("exact: need n>0 and m>0, got n=%d m=%d", n, m)
	}
	finished := split(0)
	if canceled {
		return canceledErr(opts.Ctx)
	}
	if !finished && !stopped && count > budget {
		return ErrBudget
	}
	return nil
}

// Result mirrors poly.Result for the exact solvers.
type Result struct {
	Mapping *mapping.Mapping
	Metrics mapping.Metrics
}

// metric comparators for the incumbent trackers. Each returns <0 when a
// is strictly preferable, 0 on an exact tie (resolved by task order).
func cmpLatency(a, b mapping.Metrics) int {
	switch {
	case a.Latency < b.Latency:
		return -1
	case a.Latency > b.Latency:
		return 1
	default:
		return 0
	}
}

func cmpFPThenLatency(a, b mapping.Metrics) int {
	switch {
	case a.FailureProb < b.FailureProb:
		return -1
	case a.FailureProb > b.FailureProb:
		return 1
	default:
		return cmpLatency(a, b)
	}
}

func cmpLatencyThenFP(a, b mapping.Metrics) int {
	if c := cmpLatency(a, b); c != 0 {
		return c
	}
	switch {
	case a.FailureProb < b.FailureProb:
		return -1
	case a.FailureProb > b.FailureProb:
		return 1
	default:
		return 0
	}
}

func objLatency(m mapping.Metrics) float64 { return m.Latency }
func objFP(m mapping.Metrics) float64      { return m.FailureProb }

// finish translates the engine outcome plus the incumbent into the solver
// result: after a clean run the incumbent is the proven optimum
// (ErrInfeasible when empty); after a canceled run the incumbent — when
// one was found — is returned as best-so-far alongside the ErrCanceled
// error, so callers can grade it as a partial answer.
func finish(inc *incumbent, ev *mapping.Evaluator, runErr error) (Result, error) {
	if runErr != nil && !errors.Is(runErr, ErrCanceled) {
		return Result{}, runErr
	}
	res, err := inc.result(ev)
	if runErr != nil {
		if err != nil {
			return Result{}, runErr
		}
		return res, runErr
	}
	if err != nil {
		return Result{}, fmt.Errorf("interval enumeration: %w", err)
	}
	return res, nil
}

// maxReplicationProcs bounds m for the narrow (uint64-register) engine's
// replication enumeration (task indices pack end·(2^m−1)+subset into an
// int64); wider replication instances run on the multi-word wide search
// of enginewide.go, as do all platforms past mapping.MaxEvalProcs.
const maxReplicationProcs = 62

// MinLatencyInterval finds the latency-optimal interval mapping by
// pruned exhaustive enumeration. Replication is skipped by default (it can
// only increase latency) unless opts.Replication is set.
func MinLatencyInterval(p *pipeline.Pipeline, pl *platform.Platform, opts Options) (Result, error) {
	ev, err := opts.evaluator(p, pl)
	if err != nil {
		return Result{}, err
	}
	g, err := newEngine(ev, p.NumStages(), pl.NumProcs(), opts)
	if err != nil {
		return Result{}, err
	}
	inc := newIncumbent(p.NumStages(), g.stride, cmpLatency, objLatency)
	runErr := g.run(opts.WorkerCount(), func(int) (pruneFunc, visitFunc) {
		prune := func(lb, _ float64) bool {
			return latencyStrictlyWorse(lb, inc.bound.load())
		}
		visit := func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool {
			inc.offer(task, ends, masks, met)
			return true
		}
		return prune, visit
	})
	return finish(inc, ev, runErr)
}

// MinFPUnderLatency finds the interval mapping of minimum failure
// probability among those with latency ≤ maxLatency, by pruned exhaustive
// enumeration (replication enabled regardless of opts.Replication, since
// replication is the whole point of reliability). Subtrees whose latency
// lower bound already violates the threshold, or whose prefix failure
// probability already exceeds the incumbent, are cut.
func MinFPUnderLatency(p *pipeline.Pipeline, pl *platform.Platform, maxLatency float64, opts Options) (Result, error) {
	opts.Replication = true
	ev, err := opts.evaluator(p, pl)
	if err != nil {
		return Result{}, err
	}
	g, err := newEngine(ev, p.NumStages(), pl.NumProcs(), opts)
	if err != nil {
		return Result{}, err
	}
	inc := newIncumbent(p.NumStages(), g.stride, cmpFPThenLatency, objFP)
	runErr := g.run(opts.WorkerCount(), func(int) (pruneFunc, visitFunc) {
		prune := func(lb, prefixFP float64) bool {
			return latencyStrictlyWorse(lb, maxLatency) || prefixFP > inc.bound.load()
		}
		visit := func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool {
			if leqTol(met.Latency, maxLatency) {
				inc.offer(task, ends, masks, met)
			}
			return true
		}
		return prune, visit
	})
	return finish(inc, ev, runErr)
}

// MinLatencyUnderFP finds the interval mapping of minimum latency among
// those with failure probability ≤ maxFailureProb, by pruned exhaustive
// enumeration with replication.
func MinLatencyUnderFP(p *pipeline.Pipeline, pl *platform.Platform, maxFailureProb float64, opts Options) (Result, error) {
	opts.Replication = true
	ev, err := opts.evaluator(p, pl)
	if err != nil {
		return Result{}, err
	}
	g, err := newEngine(ev, p.NumStages(), pl.NumProcs(), opts)
	if err != nil {
		return Result{}, err
	}
	inc := newIncumbent(p.NumStages(), g.stride, cmpLatencyThenFP, objLatency)
	runErr := g.run(opts.WorkerCount(), func(int) (pruneFunc, visitFunc) {
		prune := func(lb, prefixFP float64) bool {
			return prefixFP > maxFailureProb+1e-12 || latencyStrictlyWorse(lb, inc.bound.load())
		}
		visit := func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool {
			if met.FailureProb <= maxFailureProb+1e-12 {
				inc.offer(task, ends, masks, met)
			}
			return true
		}
		return prune, visit
	})
	return finish(inc, ev, runErr)
}

// ParetoFront enumerates all interval mappings (with replication) and
// returns the non-dominated (latency, FP) set, sorted by increasing
// latency. Mappings with identical metrics are collapsed to one
// representative. Each worker maintains a binary-searched frontier.Front
// and prunes subtrees whose (latency lower bound, prefix FP) is already
// covered; the per-worker fronts are merged at the end, so the metric set
// is exact and deterministic for every worker count.
func ParetoFront(p *pipeline.Pipeline, pl *platform.Platform, opts Options) ([]Result, error) {
	opts.Replication = true
	ev, err := opts.evaluator(p, pl)
	if err != nil {
		return nil, err
	}
	n, m := p.NumStages(), pl.NumProcs()
	g, err := newEngine(ev, n, m, opts)
	if err != nil {
		return nil, err
	}
	workers := opts.WorkerCount()
	fronts := make([]*frontier.Front, workers)
	runErr := g.run(workers, func(w int) (pruneFunc, visitFunc) {
		f := &frontier.Front{}
		fronts[w] = f
		scratch := &mapping.Mapping{
			Intervals: make([]mapping.Interval, 0, n),
			Alloc:     make([][]int, 0, n),
		}
		procBuf := make([]int, m)
		prune := func(lb, prefixFP float64) bool {
			// Cut only when an entry is strictly better in latency than the
			// whole subtree can be (tolerance guards rounding of the bound)
			// and no worse in FP.
			return f.DominatesPoint(lb-latencyTol*math.Max(1, math.Abs(lb)), prefixFP)
		}
		visit := func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool {
			// InsertTagged rejects dominated candidates without cloning and
			// resolves duplicate metric points to the lowest task, keeping
			// the representative mappings scheduling-independent.
			f.InsertTagged(met, fillMaskedMapping(scratch, procBuf, ends, masks, g.stride), task)
			return true
		}
		return prune, visit
	})
	if runErr != nil && !errors.Is(runErr, ErrCanceled) {
		return nil, runErr
	}
	merged := &frontier.Front{}
	for _, f := range fronts {
		if f == nil {
			continue
		}
		// Worker fronts already own private clones; transfer ownership
		// instead of re-cloning every survivor.
		for _, e := range f.Entries() {
			merged.InsertOwned(e.Metrics, e.Mapping, e.Task)
		}
	}
	results := make([]Result, 0, merged.Len())
	for _, e := range merged.Entries() {
		results = append(results, Result{Mapping: e.Mapping, Metrics: e.Metrics})
	}
	// A canceled enumeration still surfaces the partial front so callers
	// can serve it as a best-effort answer.
	return results, runErr
}
