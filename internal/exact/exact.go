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
// goroutines by first-interval subtree. Each search level carries the
// prefix's charged latency and its failure probability, accumulated by
// mapping.AccumFailure; FP never decreases along a prefix, so a prefix
// already past the FP bound or the incumbent is cut together with all
// its completions. The engine is chosen from
// (replication, n, m) alone: a replication search whose n·(2^m−1)
// first-interval tasks fit an int64 runs the uint64-register narrow
// search; every other enumeration — every replication-free one at any m
// — runs the stride-word search of enginewide.go, with the same pruning,
// budget, cancellation and determinism guarantees.
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
// Batch evaluation: on replication-free levels the stride-word search
// scores every singleton sibling of a shared interval prefix in one
// mapping.EvaluateManyW call, hoisting sibling-invariant subterms while
// preserving the single-candidate association order bitwise (see
// internal/mapping/evalmany.go for the contract).
//
// Invariants the tests enforce: complete-candidate metrics are bitwise
// identical to the slice-based mapping.Evaluate on both search paths;
// batch-scored siblings are bitwise identical to the single-candidate
// push arithmetic; the enumeration inner loop performs zero heap
// allocations per visited node; solver outputs (mapping and metrics) are
// bitwise identical for every worker count; and canceling Options.Ctx
// aborts within one sibling block — one EvaluateManyW block, or one
// replica subset on a replication level — returning the best incumbent
// found so far.
package exact

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/frontier"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// ErrBudget is returned when an enumeration would visit more than
// Options.MaxEnum search nodes; callers should shrink the instance or
// raise the cap.
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
	// MaxEnum caps the search nodes one enumeration visits (default
	// DefaultMaxEnum). A node is one interval placed on one replica set —
	// a partial or complete mapping — and is charged whether it is then
	// pruned, extended or visited, so the cap bounds the work even where
	// the bound prunes every candidate. Subtrees below a pruned node are
	// never visited and cost nothing.
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

	// forceWide (tests only) runs the stride-word wide search even for
	// replication enumerations the narrow uint64 search covers, so the
	// wide path can be property-tested exhaustively against the slice
	// reference on small instances.
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
			return lb > mapping.LatencyCap(inc.bound.load())
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
	latCap := mapping.LatencyCap(maxLatency)
	runErr := g.run(opts.WorkerCount(), func(int) (pruneFunc, visitFunc) {
		prune := func(lb, prefixFP float64) bool {
			return lb > latCap || prefixFP > inc.bound.load()
		}
		visit := func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool {
			if met.Latency <= latCap {
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
	fpCap := mapping.FailProbCap(maxFailureProb)
	runErr := g.run(opts.WorkerCount(), func(int) (pruneFunc, visitFunc) {
		prune := func(lb, prefixFP float64) bool {
			return prefixFP > fpCap || lb > mapping.LatencyCap(inc.bound.load())
		}
		visit := func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool {
			if met.FailureProb <= fpCap {
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
			return f.DominatesPoint(lb-mapping.LatencySlack*lb, prefixFP)
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
