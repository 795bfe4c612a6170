package poly

import (
	"sort"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// Algorithm1 implements the paper's Algorithm 1 (Theorem 5): on a Fully
// Homogeneous platform, minimize the failure probability under a latency
// threshold L. By Lemma 1 the optimum is a single interval replicated on k
// processors, with latency k·δ_0/b + ΣW/s + δ_n/b; the algorithm takes the
// largest feasible k and, per the paper's remark, the k most reliable
// processors (so it also covers heterogeneous failure probabilities on
// otherwise fully homogeneous platforms).
func Algorithm1(p *pipeline.Pipeline, pl *platform.Platform, maxLatency float64) (Result, error) {
	b, ok := pl.CommHomogeneous()
	if !ok || !pl.SpeedHomogeneous() {
		return Result{}, ErrWrongClass
	}
	s := pl.Speed[0]
	base := p.TotalWork()/s + p.Delta[p.NumStages()]/b
	perReplica := p.Delta[0] / b
	m := pl.NumProcs()
	// Latency is non-decreasing in k (each extra replica adds δ_0/b ≥ 0),
	// so scan downward for the largest feasible replication factor.
	k := 0
	for cand := m; cand >= 1; cand-- {
		if mapping.LatencyWithin(float64(cand)*perReplica+base, maxLatency) {
			k = cand
			break
		}
	}
	if k == 0 {
		return Result{}, ErrInfeasible
	}
	procs := pl.ProcsByReliabilityDesc()[:k]
	return evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), procs))
}

// Algorithm2 implements the paper's Algorithm 2 (Theorem 5): on a Fully
// Homogeneous platform, minimize the latency under a failure-probability
// threshold FP. Latency grows with the replica count, so the algorithm
// finds the smallest k whose best achievable failure probability — the
// product of the k smallest fp_u, mapping.ReplicaFailure, the value the
// mapping is then scored at — meets the threshold
// (mapping.FailProbWithin: fp = 0.1 meets F = 0.001 at k = 3, though
// 0.1³ rounds to 0.0010000000000000002). That product never grows with k,
// bits included: the new factor is at most 1 and rounding is monotone, so
// the smallest k is found by bisection.
func Algorithm2(p *pipeline.Pipeline, pl *platform.Platform, maxFailureProb float64) (Result, error) {
	_, ok := pl.CommHomogeneous()
	if !ok || !pl.SpeedHomogeneous() {
		return Result{}, ErrWrongClass
	}
	byReliability := pl.ProcsByReliabilityDesc()
	k := 1 + sort.Search(len(byReliability), func(i int) bool {
		return mapping.FailProbWithin(mapping.ReplicaFailure(pl, byReliability[:i+1]), maxFailureProb)
	})
	if k > len(byReliability) {
		return Result{}, ErrInfeasible
	}
	return evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), byReliability[:k]))
}

// Algorithm3 implements the paper's Algorithm 3 (Theorem 6): on a
// Communication Homogeneous platform with identical failure probabilities,
// minimize FP under a latency threshold. Processors are taken in
// non-increasing speed order; with k replicas the latency is
// k·δ_0/b + ΣW/s_(k) + δ_n/b where s_(k) is the k-th fastest speed. Both
// terms are non-decreasing in k, so the algorithm returns the largest
// feasible k (FP = fp^k is decreasing in k).
func Algorithm3(p *pipeline.Pipeline, pl *platform.Platform, maxLatency float64) (Result, error) {
	b, ok := pl.CommHomogeneous()
	if !ok || !pl.FailureHomogeneous() {
		return Result{}, ErrWrongClass
	}
	bySpeed := pl.ProcsBySpeedDesc()
	work := p.TotalWork()
	out := p.Delta[p.NumStages()] / b
	perReplica := p.Delta[0] / b
	k := 0
	for cand := len(bySpeed); cand >= 1; cand-- {
		lat := float64(cand)*perReplica + work/pl.Speed[bySpeed[cand-1]] + out
		if mapping.LatencyWithin(lat, maxLatency) {
			k = cand
			break
		}
	}
	if k == 0 {
		return Result{}, ErrInfeasible
	}
	return evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), bySpeed[:k]))
}

// Algorithm4 implements the paper's Algorithm 4 (Theorem 6): on a
// Communication Homogeneous + Failure Homogeneous platform, minimize the
// latency under a failure-probability threshold. The smallest k whose
// fp^k meets FP (mapping.FailProbWithin) is selected and mapped on the k
// fastest processors.
func Algorithm4(p *pipeline.Pipeline, pl *platform.Platform, maxFailureProb float64) (Result, error) {
	_, ok := pl.CommHomogeneous()
	if !ok || !pl.FailureHomogeneous() {
		return Result{}, ErrWrongClass
	}
	bySpeed := pl.ProcsBySpeedDesc()
	prod := 1.0
	for k := 1; k <= len(bySpeed); k++ {
		prod *= pl.FailProb[0]
		if mapping.FailProbWithin(prod, maxFailureProb) {
			return evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), bySpeed[:k]))
		}
	}
	return Result{}, ErrInfeasible
}
