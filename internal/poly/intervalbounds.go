package poly

import (
	"math"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// The complexity of latency-minimal *interval* mappings on Fully
// Heterogeneous platforms is left open by the paper (§4.1: "we suspect it
// might be NP-hard"). This file provides polynomial two-sided bounds built
// on Theorem 4:
//
//   - general mappings are exactly interval mappings with the
//     processor-disjointness constraint relaxed (a path through the
//     Figure 6 graph groups consecutive stages on one processor, but may
//     revisit a processor in a later interval), so Theorem 4's shortest
//     path is a *lower bound* on the interval optimum;
//
//   - repairing the path — reassigning each revisited processor to the
//     best unused one — yields a valid interval mapping, an *upper bound*;
//
//   - when the shortest path never revisits a processor, both bounds
//     coincide and the repaired mapping is provably latency-optimal among
//     interval mappings.
//
// IntervalBounds packages the result.
type IntervalBounds struct {
	// Lower is Theorem 4's general-mapping optimum: no interval mapping
	// can beat it.
	Lower float64
	// Upper is the best feasible interval mapping found (repaired path or
	// fastest-single-processor fallback) with its metrics.
	Upper Result
	// Tight reports Lower == Upper.Metrics.Latency (up to float noise):
	// the upper mapping is then provably optimal.
	Tight bool
}

// IntervalLatencyBounds computes the bounds in polynomial time
// (O(n·m²) for the shortest path, O(p·m) for the repair).
func IntervalLatencyBounds(p *pipeline.Pipeline, pl *platform.Platform) (IntervalBounds, error) {
	gen := MinLatencyGeneral(p, pl)
	lower := gen.Latency

	candidates := make([]*mapping.Mapping, 0, 3)
	if repaired := repairToInterval(gen.Mapping, p, pl); repaired != nil {
		candidates = append(candidates, repaired)
	}
	// Fallbacks that are always valid: the whole pipeline on each single
	// processor (cheap, and optimal on CommHom by Theorem 2), scored on
	// one reused mapping.
	single := mapping.NewSingleInterval(p.NumStages(), []int{0})
	bestSingle, singleLat := -1, math.Inf(1)
	for u := 0; u < pl.NumProcs(); u++ {
		single.Alloc[0][0] = u
		lat, err := mapping.LatencyEq2(p, pl, single)
		if err == nil && lat < singleLat {
			bestSingle, singleLat = u, lat
		}
	}
	if bestSingle >= 0 {
		single.Alloc[0][0] = bestSingle
		candidates = append(candidates, single)
	}

	best := Result{Metrics: mapping.Metrics{Latency: math.Inf(1)}}
	for _, m := range candidates {
		met, err := mapping.Evaluate(p, pl, m)
		if err != nil {
			continue
		}
		if met.Latency < best.Metrics.Latency {
			best = Result{Mapping: m, Metrics: met}
		}
	}
	if best.Mapping == nil {
		return IntervalBounds{}, ErrInfeasible // unreachable for valid inputs
	}
	tight := mapping.LatencyWithin(best.Metrics.Latency, lower)
	return IntervalBounds{Lower: lower, Upper: best, Tight: tight}, nil
}

// repairToInterval converts a general mapping into a valid interval
// mapping. Consecutive same-processor stages merge into intervals; when a
// later interval revisits an already-used processor, it is reassigned to
// the unused processor that minimizes the interval's local Eq. (2) term
// (computation plus adjacent communications, neighbors as currently
// assigned). Returns nil when no unused processor remains for some
// conflicting interval.
// run is one (interval, processor) segment of a collapsed general mapping.
type run struct {
	iv   mapping.Interval
	proc int
}

func repairToInterval(g *mapping.GeneralMapping, p *pipeline.Pipeline, pl *platform.Platform) *mapping.Mapping {
	n := p.NumStages()
	// Collapse into (interval, proc) runs.
	var runs []run
	start := 0
	for i := 1; i <= n; i++ {
		if i == n || g.ProcOf[i] != g.ProcOf[start] {
			runs = append(runs, run{mapping.Interval{First: start, Last: i - 1}, g.ProcOf[start]})
			start = i
		}
	}
	used := make([]bool, pl.NumProcs())
	for j := range runs {
		u := runs[j].proc
		if !used[u] {
			used[u] = true
			continue
		}
		// Conflict: pick the cheapest unused replacement for this run.
		best, bestCost := -1, math.Inf(1)
		for v := 0; v < pl.NumProcs(); v++ {
			if used[v] {
				continue
			}
			cost := localCost(p, pl, runs[j].iv, v, prevProc(runs, j), nextProc(runs, j))
			if cost < bestCost {
				best, bestCost = v, cost
			}
		}
		if best == -1 {
			return nil // not enough processors to disentangle
		}
		runs[j].proc = best
		used[best] = true
	}
	m := &mapping.Mapping{}
	for _, r := range runs {
		m.Intervals = append(m.Intervals, r.iv)
		m.Alloc = append(m.Alloc, []int{r.proc})
	}
	return m
}

func prevProc(runs []run, j int) int {
	if j == 0 {
		return -1 // P_in
	}
	return runs[j-1].proc
}

func nextProc(runs []run, j int) int {
	if j == len(runs)-1 {
		return -2 // P_out
	}
	return runs[j+1].proc
}

// localCost is the Eq. (2)-style cost of executing interval iv on v with
// the given neighbors: incoming transfer + computation + outgoing
// transfer.
func localCost(p *pipeline.Pipeline, pl *platform.Platform, iv mapping.Interval, v, prev, next int) float64 {
	cost := p.Work(iv.First, iv.Last) / pl.Speed[v]
	in := p.InputSize(iv.First)
	switch {
	case prev == -1:
		cost += in / pl.BIn[v]
	case prev != v:
		cost += in / pl.B[prev][v]
	}
	out := p.OutputSize(iv.Last)
	switch {
	case next == -2:
		cost += out / pl.BOut[v]
	case next != v:
		cost += out / pl.B[v][next]
	}
	return cost
}
