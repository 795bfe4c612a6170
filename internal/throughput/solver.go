package throughput

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/exact"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// ErrInfeasible is returned when the tri-criteria enumeration finds no
// RR mapping within both thresholds.
var ErrInfeasible = errors.New("throughput: no RR mapping satisfies the constraints")

// TriResult is a solved tri-criteria instance.
type TriResult struct {
	Mapping *RRMapping
	Metrics Metrics
}

// forEachGrouping enumerates every partition of procs into non-empty
// groups (set partitions, by restricted growth strings) and calls visit
// with each grouping. The slices passed to visit are reused.
func forEachGrouping(procs []int, visit func(groups [][]int) bool) bool {
	k := len(procs)
	rgs := make([]int, k) // rgs[i] = group of procs[i]
	maxSeen := make([]int, k)
	var rec func(i, top int) bool
	rec = func(i, top int) bool {
		if i == k {
			groups := make([][]int, top+1)
			for idx, g := range rgs {
				groups[g] = append(groups[g], procs[idx])
			}
			return visit(groups)
		}
		for g := 0; g <= top+1 && g < k; g++ {
			rgs[i] = g
			nt := top
			if g > top {
				nt = g
			}
			maxSeen[i] = nt
			if !rec(i+1, nt) {
				return false
			}
		}
		return true
	}
	if k == 0 {
		return true
	}
	rgs[0] = 0
	return rec(1, 0)
}

// rrGuard bounds the per-mapping grouping sweep. A single interval
// mapping fans out into a product of Bell numbers of RR groupings — on
// wide platforms (where enumerated replica sets can hold dozens of
// processors) that product is astronomical, so every evaluated grouping
// charges the shared exact.Options budget and cancellation is polled
// inside the sweep. This keeps budgets and cancellation behaving
// uniformly for any platform width instead of only guarding the
// interval-mapping level.
type rrGuard struct {
	ctx      context.Context
	done     <-chan struct{}
	budget   int64
	count    atomic.Int64 // shared across enumeration workers
	tripped  atomic.Bool
	canceled atomic.Bool
}

func newRRGuard(opts exact.Options) *rrGuard {
	g := &rrGuard{ctx: opts.Ctx, budget: opts.MaxEnum}
	if g.budget <= 0 {
		g.budget = exact.DefaultMaxEnum
	}
	if opts.Ctx != nil {
		g.done = opts.Ctx.Done()
	}
	return g
}

// step charges one evaluated grouping and reports whether the sweep may
// continue.
func (g *rrGuard) step() bool {
	c := g.count.Add(1)
	if c > g.budget {
		g.tripped.Store(true)
		return false
	}
	if g.done != nil && c&255 == 0 {
		select {
		case <-g.done:
			g.canceled.Store(true)
			return false
		default:
		}
	}
	return true
}

// finishErr folds the guard outcome into the enumeration error: a tripped
// budget surfaces as exact.ErrBudget, a cancellation as exact.ErrCanceled
// wrapping the context cause (matching the engine's own error shape).
func (g *rrGuard) finishErr(runErr error) error {
	if runErr != nil {
		return runErr
	}
	if g.canceled.Load() {
		return fmt.Errorf("%w: %w", exact.ErrCanceled, context.Cause(g.ctx))
	}
	if g.tripped.Load() {
		return exact.ErrBudget
	}
	return nil
}

// triBest is one worker's incumbent for MinPeriodUnderConstraints,
// tagged with the first-interval subtree it was found in so per-worker
// answers merge deterministically regardless of scheduling.
type triBest struct {
	res   TriResult
	task  int64
	found bool
}

// triBetter reports whether (a, taskA) beats (b, taskB) under the solver's
// order: period, then latency, then discovery task.
func triBetter(a Metrics, taskA int64, b Metrics, taskB int64) bool {
	if a.Period != b.Period {
		return a.Period < b.Period
	}
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return taskA < taskB
}

// boundCaps validates the two bounds and returns the largest latency and
// failure probability that meet them, under mapping's bound rule.
func boundCaps(maxLatency, maxFailProb float64) (latCap, fpCap float64, err error) {
	if err := mapping.CheckBounds(maxLatency, maxFailProb); err != nil {
		return 0, 0, err
	}
	return mapping.LatencyCap(mapping.LatencyBound(maxLatency)), mapping.FailProbCap(mapping.FailProbBound(maxFailProb)), nil
}

// MinPeriodUnderConstraints finds, by exhaustive enumeration over interval
// mappings and all round-robin groupings of each replica set, the RR
// mapping of minimum period among those with latency ≤ maxLatency and
// failure probability ≤ maxFailProb, under mapping's bound rule (a
// latency bound of 0 or +Inf and an FP bound of 0 or 1 leave the
// criterion unconstrained). Instances must be small (the grouping space
// multiplies Bell numbers into the mapping enumeration). The mapping
// enumeration fans out over opts.Workers goroutines (0 = GOMAXPROCS) via
// the exact package's first-interval decomposition; the result is
// deterministic for every worker count.
// Every evaluated RR grouping — not just every interval mapping — charges
// opts.MaxEnum, and cancellation is polled inside the grouping sweep, so
// budgets and deadlines hold even on wide platforms whose replica sets
// make a single mapping's grouping space astronomical.
// Cancelling opts.Ctx stops the enumeration early; the best RR mapping
// found so far (when any) is returned alongside the exact.ErrCanceled
// error so callers can grade it as a partial answer.
func MinPeriodUnderConstraints(p *pipeline.Pipeline, pl *platform.Platform, maxLatency, maxFailProb float64, opts exact.Options) (TriResult, error) {
	latCap, fpCap, err := boundCaps(maxLatency, maxFailProb)
	if err != nil {
		return TriResult{}, err
	}
	opts.Replication = true
	guard := newRRGuard(opts)
	// The FP filter below is monotone in added groups (FP never decreases
	// as a group is accumulated), so the sweep prunes grouping subtrees as
	// soon as their prefix FP already exceeds the threshold — identical
	// survivors, pruned subtrees uncharged (like the B&B engine).
	bests := make([]triBest, opts.WorkerCount())
	runErr := exact.ForEachMappingParallel(p.NumStages(), pl.NumProcs(), opts, func(w int) func(int64, *mapping.Mapping) bool {
		wb := &bests[w]
		return func(task int64, m *mapping.Mapping) bool {
			return enumerateGroupings(m, 0, 0, FromMapping(m), guard, pl, fpCap, func(r *RRMapping) {
				met := r.evaluateTrusted(p, pl)
				if met.Latency > latCap || met.FailureProb > fpCap {
					return
				}
				if !wb.found || triBetter(met, task, wb.res.Metrics, wb.task) {
					*wb = triBest{res: TriResult{Mapping: cloneRR(r), Metrics: met}, task: task, found: true}
				}
			})
		}
	})
	runErr = guard.finishErr(runErr)
	if runErr != nil && !errors.Is(runErr, exact.ErrCanceled) {
		return TriResult{}, runErr
	}
	best := triBest{}
	for _, wb := range bests {
		if wb.found && (!best.found || triBetter(wb.res.Metrics, wb.task, best.res.Metrics, best.task)) {
			best = wb
		}
	}
	if !best.found {
		if runErr != nil {
			return TriResult{}, runErr
		}
		return TriResult{}, ErrInfeasible
	}
	return best.res, runErr
}

// TriPareto enumerates the full three-criteria Pareto front (latency,
// failure probability, period) over RR mappings of a small instance,
// fanning the mapping enumeration out over opts.Workers goroutines with
// one front per worker, merged at the end. The metric set is exact and
// scheduling-independent. Groupings charge opts.MaxEnum and poll
// cancellation exactly as in MinPeriodUnderConstraints.
// Cancelling opts.Ctx stops the enumeration early; the partial front
// accumulated so far is returned alongside the exact.ErrCanceled error.
func TriPareto(p *pipeline.Pipeline, pl *platform.Platform, opts exact.Options) (*TriFront, error) {
	opts.Replication = true
	guard := newRRGuard(opts)
	fronts := make([]*TriFront, opts.WorkerCount())
	runErr := exact.ForEachMappingParallel(p.NumStages(), pl.NumProcs(), opts, func(w int) func(int64, *mapping.Mapping) bool {
		front := &TriFront{}
		fronts[w] = front
		return func(task int64, m *mapping.Mapping) bool {
			return enumerateGroupings(m, 0, 0, FromMapping(m), guard, nil, 1, func(r *RRMapping) {
				front.InsertTagged(r.evaluateTrusted(p, pl), r, task)
			})
		}
	})
	runErr = guard.finishErr(runErr)
	if runErr != nil && !errors.Is(runErr, exact.ErrCanceled) {
		return nil, runErr
	}
	merged := &TriFront{}
	for _, f := range fronts {
		if f == nil {
			continue
		}
		// Worker fronts already own private clones; transfer ownership.
		for _, e := range f.entries {
			merged.InsertOwned(e.Metrics, e.Mapping, e.Task)
		}
	}
	return merged, runErr
}

// enumerateGroupings recursively replaces interval j's single group by
// every set partition of its replica set, charging each complete RR
// grouping against the guard. It reports whether the sweep ran to
// completion (false: budget tripped or canceled — stop the mapping
// enumeration too).
//
// fp is the failure probability of the groups chosen for intervals
// [0, j); when pl is non-nil, subtrees whose prefix fp already exceeds
// fpCap are skipped: FP never decreases as groups are added, so every
// grouping below would fail the caller's FP filter. The prefix accumulates
// the groups as RRMapping.FailureProb does, making the prune
// float-consistent with the filter it anticipates. Callers not filtering
// on FP pass pl == nil (and fp 0, fpCap 1).
func enumerateGroupings(m *mapping.Mapping, j int, fp float64, r *RRMapping, guard *rrGuard, pl *platform.Platform, fpCap float64, visit func(*RRMapping)) bool {
	if j == len(m.Alloc) {
		if !guard.step() {
			return false
		}
		visit(r)
		return true
	}
	ok := forEachGrouping(m.Alloc[j], func(groups [][]int) bool {
		nfp := fp
		if pl != nil {
			nfp = accumGroups(fp, groups, pl)
			if nfp > fpCap {
				return true // FP already violated; deeper groups only raise it
			}
		}
		r.Groups[j] = groups
		return enumerateGroupings(m, j+1, nfp, r, guard, pl, fpCap, visit)
	})
	r.Groups[j] = [][]int{m.Alloc[j]}
	return ok
}

func cloneRROrNil(r *RRMapping) *RRMapping {
	if r == nil {
		return nil
	}
	return cloneRR(r)
}

func cloneRR(r *RRMapping) *RRMapping {
	cp := &RRMapping{Intervals: append([]mapping.Interval(nil), r.Intervals...)}
	for _, groups := range r.Groups {
		var gg [][]int
		for _, g := range groups {
			gg = append(gg, append([]int(nil), g...))
		}
		cp.Groups = append(cp.Groups, gg)
	}
	return cp
}

// GreedyRR is the scalable heuristic: start from a reliability mapping
// (typically the core solver's answer), then repeatedly split the group
// whose cycle bottlenecks the period into two round-robin halves, as long
// as the period improves and both constraints keep holding. The bounds
// follow mapping's bound rule, as in MinPeriodUnderConstraints.
//
// ctx is polled between split rounds: on cancellation the best feasible
// RR mapping reached so far is returned with an error wrapping the
// context's cause.
func GreedyRR(ctx context.Context, p *pipeline.Pipeline, pl *platform.Platform, m *mapping.Mapping, maxLatency, maxFailProb float64) (TriResult, error) {
	latCap, fpCap, err := boundCaps(maxLatency, maxFailProb)
	if err != nil {
		return TriResult{}, err
	}
	cur := FromMapping(m)
	met, err := cur.Evaluate(p, pl)
	if err != nil {
		return TriResult{}, err
	}
	if met.Latency > latCap || met.FailureProb > fpCap {
		return TriResult{}, ErrInfeasible
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	best := TriResult{Mapping: cloneRR(cur), Metrics: met}
	for {
		if done != nil {
			select {
			case <-done:
				return best, fmt.Errorf("throughput: greedy RR canceled: %w", context.Cause(ctx))
			default:
			}
		}
		improved := false
		// Try splitting every group with ≥ 2 replicas into two halves.
		for j := range best.Mapping.Groups {
			for g := range best.Mapping.Groups[j] {
				procs := best.Mapping.Groups[j][g]
				if len(procs) < 2 {
					continue
				}
				next := cloneRR(best.Mapping)
				half := len(procs) / 2
				next.Groups[j] = append(next.Groups[j][:g:g],
					append([][]int{procs[:half:half], procs[half:]}, next.Groups[j][g+1:]...)...)
				met, err := next.Evaluate(p, pl)
				if err != nil {
					continue
				}
				if met.Latency > latCap || met.FailureProb > fpCap {
					continue
				}
				if met.Period < best.Metrics.Period-1e-12 {
					best = TriResult{Mapping: next, Metrics: met}
					improved = true
				}
			}
		}
		if !improved {
			return best, nil
		}
	}
}
