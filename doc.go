// Package repro is a Go implementation of the bi-criteria pipeline
// mapping framework of Benoit, Rehn-Sonigo and Robert, "Optimizing Latency
// and Reliability of Pipeline Workflow Applications" (INRIA RR-6345 /
// IPDPS 2008).
//
// An n-stage pipeline application is mapped onto an m-processor platform
// by partitioning the stages into consecutive intervals and replicating
// each interval on a set of processors. Replication protects against
// processor failures (the application fails only if some interval loses
// every replica) but increases latency (extra serialized communications
// under the one-port model, slowest-replica computation). The library
// provides:
//
//   - the application and platform models with the paper's three platform
//     classes (Fully Homogeneous, Communication Homogeneous, Fully
//     Heterogeneous) crossed with failure homogeneity;
//   - the analytic metrics: the latency formulas Eq. (1) and Eq. (2) and
//     the global failure probability (with a log-space variant that stays
//     exact when probabilities approach the double-precision ulp);
//   - the paper's polynomial algorithms: Theorem 1 (minimum FP), Theorem 2
//     (minimum latency on CommHom), Theorem 4 (minimum-latency general
//     mapping by layered-graph shortest path), and the four bi-criteria
//     Algorithms 1–4 of Theorems 5 and 6;
//   - exact exponential solvers and a greedy heuristic for the classes
//     the paper proves NP-hard (Theorem 7) or leaves open, plus an
//     annealing archive for their heuristic Pareto fronts;
//   - executable NP-hardness gadgets (TSP for Theorem 3, 2-PARTITION for
//     Theorem 7) with exact oracles that verify the reductions;
//   - a discrete-event simulator of the platform (one-port communications,
//     crash failures, replica consensus) that reproduces the analytic
//     worst case exactly and validates FP by Monte-Carlo.
//
// # Sessions
//
// The primary entry point is the Session: a concurrency-safe solver
// created once per (pipeline, platform) instance via functional options,
// which validates the instance and caches the zero-allocation evaluator
// precomputation so every subsequent call — Solve, Pareto, TriPareto,
// Evaluate, Simulate, MonteCarloCampaign, Bounds, MinPeriod — skips the
// per-call setup:
//
//	pipe, _ := repro.NewPipeline([]float64{1, 100}, []float64{10, 1, 0})
//	plat, _ := repro.NewCommHomogeneousPlatform(
//	    []float64{1, 100, 100},   // speeds
//	    []float64{0.1, 0.8, 0.8}, // failure probabilities
//	    1,                        // bandwidth
//	)
//	sess, err := repro.NewSession(pipe, plat,
//	    repro.WithWorkers(0),                    // exact fan-out: GOMAXPROCS
//	    repro.WithDeadline(200*time.Millisecond), // per-call wall budget
//	    repro.WithSeed(42),                      // stochastic components
//	)
//	res, err := sess.Solve(ctx, repro.SolveRequest{
//	    Objective:  repro.MinimizeFailureProb,
//	    MaxLatency: 22,
//	})
//
// Every long-running Session method takes a context.Context and is
// cancellable: the branch-and-bound enumeration, the annealing and beam
// searches and the Monte-Carlo loops all poll the context and stop within
// one search node of cancellation. A canceled Solve does not fail — it
// returns the best feasible mapping found so far graded repro.Partial (a
// Certainty distinct from ProvablyOptimal / ExhaustivelyOptimal /
// Heuristic), falling back to greedy's seed (the better of the
// single-interval sweep and full replication) when cancellation struck
// before the search saw any candidate. Completed
// calls are deterministic for a fixed configuration, including the worker
// count. Sentinel errors flow through the session layer wrapped with %w:
// test them with errors.Is(err, repro.ErrInfeasible) (proven) and
// errors.Is(err, repro.ErrNotFound) (heuristic exhaustion, unproven).
//
// # Legacy per-call surface
//
// The package-level functions (Solve, SolveWithOptions, ParetoFront,
// MonteCarloCampaign, ...) are kept as thin wrappers that build a
// throwaway Session per call under context.Background(). Existing callers
// keep compiling and get identical results; they just pay the evaluator
// rebuild on every call and cannot cancel.
//
// # Serving
//
// cmd/pipeserve exposes the session layer as a JSON-over-HTTP service
// (package repro/serve): POST /v1/solve takes one problem document —
// the same schema cmd/pipemap reads — and POST /v1/solve/batch takes
// {"problems": [...]} and fans the batch out over a bounded worker pool.
// Each request may carry "deadlineMillis", mapped to a context deadline,
// so an over-budget solve answers with its best-so-far mapping and
// "partial": true instead of blocking. Warm sessions live in an LRU keyed
// by the SHA-256 of the instance and its session options; GET /v1/stats
// reports hit rates and GET /healthz liveness.
//
// # Performance
//
// The exact solvers run on a zero-allocation evaluation engine
// (mapping.Evaluator): per (pipeline, platform) pair it precomputes the
// Eq. (1)/Eq. (2) dispatch, work prefix sums and suffix latency lower
// bounds once — once per Session rather than once per call — and then
// scores candidate mappings represented as interval end boundaries plus
// per-interval processor bitmasks without touching the heap — uint64
// masks up to 64 processors, multi-word bit sets (internal/bitset) for
// any wider platform, with identical semantics. The enumeration in
// internal/exact threads those bitmasks through the recursion, prunes
// subtrees whose latency lower bound or monotone failure-probability
// prefix is provably worse than the incumbent (or a constraint), and
// fans out over worker goroutines by first-interval subtree; results are
// identical for every worker count and any platform width. The
// discrete-event simulator pools its per-run state and keeps its event
// heap free of pointers, so Monte-Carlo sweeps are not GC-bound. Run
// scripts/bench.sh to record the benchmark suite as a BENCH_<date>.json
// snapshot; BenchmarkSessionReuse quantifies the session-reuse saving
// against the per-call wrappers.
//
// See examples/ for complete programs (examples/quickstart walks the
// session API end to end) and EXPERIMENTS.md for the reproduction of
// every result in the paper.
package repro
