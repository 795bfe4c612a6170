// Package poly implements the paper's polynomial-time algorithms:
//
//   - Theorem 1: minimizing the failure probability (all platforms) —
//     replicate the whole pipeline as a single interval on every processor.
//   - Theorem 2: minimizing the latency on Communication Homogeneous
//     platforms — map the whole pipeline on the fastest processor.
//   - Theorem 4: minimizing the latency over general mappings on Fully
//     Heterogeneous platforms — shortest path in the Figure-6 layered DAG.
//   - Theorem 5 (Algorithms 1 and 2): the bi-criteria problem on Fully
//     Homogeneous platforms.
//   - Theorem 6 (Algorithms 3 and 4): the bi-criteria problem on
//     Communication Homogeneous + Failure Homogeneous platforms.
//   - Lemma 1: the transformation that turns any interval mapping into a
//     single-interval mapping that is at least as good in both criteria
//     (on the platform classes where the lemma holds).
//
// All entry points validate that the platform belongs to the class for
// which the algorithm is proved optimal and return ErrWrongClass
// otherwise; constraint-infeasible instances return ErrInfeasible.
package poly

import (
	"errors"

	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// ErrInfeasible is returned when no mapping can satisfy the requested
// threshold (e.g. the latency bound is below the cost of a single replica
// on the fastest processor).
var ErrInfeasible = errors.New("poly: no mapping satisfies the constraint")

// ErrWrongClass is returned when an algorithm is invoked on a platform
// outside the class for which the paper proves it optimal.
var ErrWrongClass = errors.New("poly: platform outside the algorithm's class")

// Result is an interval mapping together with its two objective values.
type Result struct {
	Mapping *mapping.Mapping
	Metrics mapping.Metrics
}

// evaluate builds a Result for a mapping, computing both metrics.
func evaluate(p *pipeline.Pipeline, pl *platform.Platform, m *mapping.Mapping) (Result, error) {
	met, err := mapping.Evaluate(p, pl, m)
	if err != nil {
		return Result{}, err
	}
	return Result{Mapping: m, Metrics: met}, nil
}

// MinFailureProb implements Theorem 1: the failure probability is
// minimized, on every platform class, by replicating the whole pipeline as
// a single interval on all m processors, reaching FP = Π_u fp_u.
func MinFailureProb(p *pipeline.Pipeline, pl *platform.Platform) (Result, error) {
	m := pl.NumProcs()
	procs := make([]int, m)
	for u := range procs {
		procs[u] = u
	}
	return evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), procs))
}

// MinLatencyCommHom implements Theorem 2: on Communication Homogeneous
// (and a fortiori Fully Homogeneous) platforms the latency is minimized by
// mapping the whole pipeline as a single interval on the fastest
// processor; replication and splitting can only add communications.
func MinLatencyCommHom(p *pipeline.Pipeline, pl *platform.Platform) (Result, error) {
	if _, ok := pl.CommHomogeneous(); !ok {
		return Result{}, ErrWrongClass
	}
	return evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), []int{pl.FastestProc()}))
}

// GeneralResult is a general (unrestricted) mapping with its latency.
// General mappings have no replication, so the failure probability is not
// part of the paper's Theorem 4 statement; callers can still compute it
// from the processor multiset if desired.
type GeneralResult struct {
	Mapping *mapping.GeneralMapping
	Latency float64
}

// MinLatencyGeneral implements Theorem 4: the latency-optimal general
// mapping on a Fully Heterogeneous platform (hence on any platform) is a
// shortest source→sink path in the layered graph of Figure 6, computed
// here with the O(n·m²) layer DP.
func MinLatencyGeneral(p *pipeline.Pipeline, pl *platform.Platform) GeneralResult {
	lat, procs := graph.LayeredShortestPathDP(p, pl)
	return GeneralResult{Mapping: &mapping.GeneralMapping{ProcOf: procs}, Latency: lat}
}
