package heuristics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// ErrNotFound is returned when the heuristic encountered no mapping
// satisfying the constraint.
var ErrNotFound = errors.New("heuristics: no feasible mapping found")

// canceledErr wraps the context's cancellation cause so callers can test
// with errors.Is(err, context.Canceled) / context.DeadlineExceeded. The
// ctx-aware searches (Anneal, Greedy, BeamSearchMinLatency) return their
// best feasible mapping found so far alongside this error when one exists;
// such a result is usable but carries no optimality claim.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("heuristics: search canceled: %w", context.Cause(ctx))
}

// ctxDone returns the context's done channel (nil when the context is nil
// or not cancellable, making the select check free).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// Result mirrors poly.Result.
type Result struct {
	Mapping *mapping.Mapping
	Metrics mapping.Metrics
}

// Goal states which criterion is minimized; the other is constrained.
type Goal int

const (
	// MinFP minimizes failure probability subject to latency ≤ Bound.
	MinFP Goal = iota
	// MinLatency minimizes latency subject to failure probability ≤ Bound.
	MinLatency
)

// Problem is a bi-criteria instance for the heuristic solvers.
type Problem struct {
	Pipe  *pipeline.Pipeline
	Plat  *platform.Platform
	Goal  Goal
	Bound float64 // MaxLatency when Goal == MinFP; MaxFailProb otherwise
	// Eval optionally carries a prebuilt evaluator for (Pipe, Plat) — the
	// Session-cached one when the problem is routed through internal/core —
	// so every solver in the package scores candidates through the shared
	// precomputed state. When nil it is built lazily on first use.
	Eval *mapping.Evaluator
	// Recorder, when non-nil, receives per-run counters and duration
	// sketches for each heuristic family (greedy, anneal, beam). Recording
	// happens once per run, outside the candidate-scoring loop.
	Recorder *telemetry.Recorder
}

// observeRun records one heuristic run (no-op without a recorder): a
// "heuristic_<family>_runs_total" counter and a
// "heuristic_<family>_duration" sketch keyed by the family name.
func (pr *Problem) observeRun(family string, started time.Time) {
	if pr.Recorder == nil {
		return
	}
	pr.Recorder.Counter("heuristic_" + family + "_runs_total").Inc()
	pr.Recorder.Observe("heuristic_"+family+"_duration", time.Since(started))
}

// evaluator returns the problem's evaluator, building and caching it on
// first use. The heuristic solvers run one goroutine per Problem value,
// and copies made after the first call share the cached pointer.
func (pr *Problem) evaluator() (*mapping.Evaluator, error) {
	if pr.Eval == nil {
		ev, err := mapping.NewEvaluator(pr.Pipe, pr.Plat)
		if err != nil {
			return nil, err
		}
		pr.Eval = ev
	}
	return pr.Eval, nil
}

// feasible reports whether metrics satisfy the problem's constraint.
func (pr *Problem) feasible(met mapping.Metrics) bool {
	if pr.Goal == MinFP {
		return mapping.LatencyWithin(met.Latency, pr.Bound)
	}
	return mapping.FailProbWithin(met.FailureProb, pr.Bound)
}

// objective returns the minimized criterion value.
func (pr *Problem) objective(met mapping.Metrics) float64 {
	if pr.Goal == MinFP {
		return met.FailureProb
	}
	return met.Latency
}

// better reports whether a strictly improves on b for the problem's goal,
// breaking ties with the secondary criterion.
func (pr *Problem) better(a, b mapping.Metrics) bool {
	oa, ob := pr.objective(a), pr.objective(b)
	if oa != ob {
		return oa < ob
	}
	if pr.Goal == MinFP {
		return a.Latency < b.Latency
	}
	return a.FailureProb < b.FailureProb
}

// evaluate scores a mapping through the problem's cached evaluator (the
// legacy per-call path rebuilt the platform dispatch on every candidate),
// returning ok=false on invalid mappings or instances.
func (pr *Problem) evaluate(m *mapping.Mapping) (mapping.Metrics, bool) {
	ev, err := pr.evaluator()
	if err != nil {
		return mapping.Metrics{}, false
	}
	met, err := ev.EvaluateMapping(m)
	if err != nil {
		return mapping.Metrics{}, false
	}
	return met, true
}

// SingleIntervalSweep evaluates whole-pipeline single-interval mappings
// over all prefixes of three processor orderings — by reliability, by
// speed, and by a reliability-per-latency hybrid — plus every singleton
// processor, and returns the best feasible one.
//
// On Fully Homogeneous and CommHom+FailureHom platforms this sweep
// contains the provably optimal mapping (Lemma 1 plus the exchange
// arguments of Theorems 5–6), so the heuristic degrades gracefully into
// the exact algorithm on the easy classes.
//
// Candidates are scored on one EvalState; only the winner becomes a Mapping.
func SingleIntervalSweep(pr *Problem) (Result, error) {
	ev, err := pr.evaluator()
	if err != nil {
		return Result{}, ErrNotFound
	}
	n := pr.Pipe.NumStages()
	m := pr.Plat.NumProcs()
	st := ev.NewState()
	one := mapping.NewSingleInterval(n, []int{0})
	var bestProcs []int
	var bestMet mapping.Metrics
	consider := func(procs []int) {
		if met := st.Metrics(); pr.feasible(met) && (bestProcs == nil || pr.better(met, bestMet)) {
			bestProcs, bestMet = procs, met
		}
	}
	orders := [][]int{
		pr.Plat.ProcsByReliabilityDesc(),
		pr.Plat.ProcsBySpeedDesc(),
		hybridOrder(pr.Plat),
	}
	for _, order := range orders {
		one.Alloc[0][0] = order[0]
		st.Load(one)
		consider(order[:1])
		for k := 2; k <= m; k++ {
			st.AddReplica(0, order[k-1])
			consider(order[:k])
		}
	}
	ids := make([]int, m)
	for u := range ids {
		ids[u] = u
		one.Alloc[0][0] = u
		st.Load(one)
		consider(ids[u : u+1])
	}
	if bestProcs == nil {
		return Result{}, ErrNotFound
	}
	return Result{Mapping: mapping.NewSingleInterval(n, bestProcs), Metrics: bestMet}, nil
}

// hybridOrder sorts processors by log-reliability gain per unit of speed
// loss: processors that are both reliable and fast come first.
func hybridOrder(pl *platform.Platform) []int {
	ids := make([]int, pl.NumProcs())
	score := make([]float64, len(ids))
	for u := range ids {
		ids[u] = u
		// -log(fp) rewards reliability; multiplying by speed rewards both.
		score[u] = math.Inf(1)
		if fp := pl.FailProb[u]; fp > 0 {
			score[u] = -math.Log(fp) * pl.Speed[u]
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && score[ids[j]] > score[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}
