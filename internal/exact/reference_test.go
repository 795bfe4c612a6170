package exact

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/frontier"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// This file holds the original unpruned slice-based solvers on top of
// ForEachMapping. They used to be the production fallback for platforms
// beyond the bitmask engine's limits; since the multi-word wide search
// covers every m they survive only as the reference implementations the
// engine (narrow and wide) is property-tested against.

// ForEachMapping enumerates every valid interval mapping of n stages onto
// m processors, invoking visit for each. The *mapping.Mapping passed to
// visit is reused between calls — clone it to retain it. Enumeration stops
// early when visit returns false. The error is ErrBudget if more than
// opts.MaxEnum mappings were enumerated (each counts as one node).
//
// This is the original slice-based enumerator, the reference the bitmask
// engine (narrow and wide) is property-tested against; production
// enumeration — any m — goes through ForEachMappingParallel and the
// engine.
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

func minLatencyIntervalWide(p *pipeline.Pipeline, pl *platform.Platform, opts Options) (Result, error) {
	best := Result{Metrics: mapping.Metrics{Latency: math.Inf(1)}}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		if met.Latency < best.Metrics.Latency {
			best = Result{Mapping: mp.Clone(), Metrics: met}
		}
		return true
	})
	return finishWide(best, err)
}

// finishWide mirrors finish for the slice-based references: a canceled
// run still returns the best mapping seen so far (when any) alongside
// the ErrCanceled error.
func finishWide(best Result, runErr error) (Result, error) {
	if runErr != nil {
		if errors.Is(runErr, ErrCanceled) && best.Mapping != nil {
			return best, runErr
		}
		return Result{}, runErr
	}
	if best.Mapping == nil {
		return Result{}, fmt.Errorf("interval enumeration: %w", ErrInfeasible)
	}
	return best, nil
}

func minFPUnderLatencyWide(p *pipeline.Pipeline, pl *platform.Platform, maxLatency float64, opts Options) (Result, error) {
	best := Result{Metrics: mapping.Metrics{FailureProb: math.Inf(1)}}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		if !mapping.LatencyWithin(met.Latency, maxLatency) {
			return true
		}
		if met.FailureProb < best.Metrics.FailureProb ||
			(met.FailureProb == best.Metrics.FailureProb && met.Latency < best.Metrics.Latency) {
			best = Result{Mapping: mp.Clone(), Metrics: met}
		}
		return true
	})
	return finishWide(best, err)
}

func minLatencyUnderFPWide(p *pipeline.Pipeline, pl *platform.Platform, maxFailureProb float64, opts Options) (Result, error) {
	best := Result{Metrics: mapping.Metrics{Latency: math.Inf(1)}}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		if !mapping.FailProbWithin(met.FailureProb, maxFailureProb) {
			return true
		}
		if met.Latency < best.Metrics.Latency ||
			(met.Latency == best.Metrics.Latency && met.FailureProb < best.Metrics.FailureProb) {
			best = Result{Mapping: mp.Clone(), Metrics: met}
		}
		return true
	})
	return finishWide(best, err)
}

func paretoFrontWide(p *pipeline.Pipeline, pl *platform.Platform, opts Options) ([]Result, error) {
	front := &frontier.Front{}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		front.Insert(met, mp)
		return true
	})
	if err != nil && !errors.Is(err, ErrCanceled) {
		return nil, err
	}
	results := make([]Result, 0, front.Len())
	for _, e := range front.Entries() {
		results = append(results, Result{Mapping: e.Mapping, Metrics: e.Metrics})
	}
	return results, err
}
