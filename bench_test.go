package repro

// One benchmark per experiment table of cmd/paperbench. Each benchmark
// times the computation that regenerates the corresponding table; run
//
//	go test -bench=. -benchmem
//
// to reproduce all of them, or cmd/paperbench to print the tables.

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/npc"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/poly"
	"repro/internal/sim"
	"repro/internal/throughput"
	"repro/internal/workload"
)

// BenchmarkE1Fig34 regenerates the Figures 3-4 example: exhaustive
// interval-latency optimization on the fully heterogeneous platform.
func BenchmarkE1Fig34(b *testing.B) {
	p, pl := workload.Fig34()
	for i := 0; i < b.N; i++ {
		if _, err := exact.MinLatencyInterval(p, pl, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Fig5 regenerates the Figure 5 example: exhaustive bi-criteria
// optimization under the latency threshold 22.
func BenchmarkE2Fig5(b *testing.B) {
	p, pl := workload.Fig5()
	for i := 0; i < b.N; i++ {
		if _, err := exact.MinFPUnderLatency(p, pl, workload.Fig5LatencyThreshold,
			exact.Options{MaxEnum: 20_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommHomExactN5M12 times the router on the hardest exact-small
// cell of the open Communication-Homogeneous, failure-heterogeneous class
// (§4.4): n = 5, m = 12, minimum latency under the failure probability of
// the whole pipeline on the fastest processor. The ~2·10⁹ unpruned
// mappings exceed the exact budget; the router still sends the class to
// branch and bound, which must answer exhaustively optimal.
func BenchmarkCommHomExactN5M12(b *testing.B) {
	inst := workload.Random(rand.New(rand.NewSource(1)), platform.CommHomogeneous, 5, 12)
	p, pl := inst.Pipeline, inst.Platform
	base, err := mapping.Evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), []int{pl.FastestProc()}))
	if err != nil {
		b.Fatal(err)
	}
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeLatency, MaxFailProb: base.FailureProb}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := core.SolveCtx(context.Background(), pr, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Route != "exact" || res.Certainty != core.ExhaustivelyOptimal {
			b.Fatalf("route %q certainty %v, want exhaustive branch and bound", res.Route, res.Certainty)
		}
	}
}

// BenchmarkE2Fig5ParetoSeq and BenchmarkE2Fig5ParetoPar contrast the
// sequential (one worker) and parallel (GOMAXPROCS workers) exhaustive
// Pareto enumerations on the Figure 5 instance (speedup scales with
// cores).
func BenchmarkE2Fig5ParetoSeq(b *testing.B) {
	p, pl := workload.Fig5()
	for i := 0; i < b.N; i++ {
		if _, err := exact.ParetoFront(p, pl, exact.Options{MaxEnum: 20_000_000, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Fig5ParetoPar(b *testing.B) {
	p, pl := workload.Fig5()
	for i := 0; i < b.N; i++ {
		if _, err := exact.ParetoFront(p, pl, exact.Options{Workers: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3MinFP times Theorem 1 (trivial, the baseline cost of the
// routing layer).
func BenchmarkE3MinFP(b *testing.B) {
	p, pl := workload.Fig5()
	for i := 0; i < b.N; i++ {
		if _, err := poly.MinFailureProb(p, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4MinLatencyCommHom times Theorem 2.
func BenchmarkE4MinLatencyCommHom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	inst := workload.Random(rng, platform.CommHomogeneous, 16, 64)
	for i := 0; i < b.N; i++ {
		if _, err := poly.MinLatencyCommHom(inst.Pipeline, inst.Platform); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5TSPReduction times a full Theorem 3 verification (gadget
// construction + Held-Karp + one-to-one enumeration) on a 7-vertex
// instance.
func BenchmarkE5TSPReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	n := 7
	cost := make([][]float64, n)
	for u := range cost {
		cost[u] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			c := float64(1 + rng.Intn(9))
			cost[u][v], cost[v][u] = c, c
		}
	}
	ti := &npc.TSPInstance{Cost: cost, S: 0, T: n - 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := npc.VerifyTSPReduction(ti, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6GeneralShortestPath times Theorem 4's layered DP at n=m=64.
func BenchmarkE6GeneralShortestPath(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := pipeline.Random(rng, 64, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, 64, 1, 10, 0, 1, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poly.MinLatencyGeneral(p, pl)
	}
}

// BenchmarkE6Dijkstra is the ablation partner of E6: same optimum through
// the explicit layered graph and Dijkstra.
func BenchmarkE6Dijkstra(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := pipeline.Random(rng, 64, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, 64, 1, 10, 0, 1, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graph.BuildLayered(p, pl)
		dist, _ := g.Dijkstra(graph.LayeredSource)
		_ = dist[graph.LayeredSink(64, 64)]
	}
}

// BenchmarkE7FullyHomBiCriteria times Algorithm 1 on a 1024-processor
// fully homogeneous platform.
func BenchmarkE7FullyHomBiCriteria(b *testing.B) {
	p := pipeline.MustNew([]float64{1, 1}, []float64{4, 9, 4})
	pl, err := platform.NewFullyHomogeneous(1024, 1, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := poly.Algorithm1(p, pl, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8CommHomBiCriteria times Algorithm 3 on a 1024-processor
// CommHom+FailureHom platform.
func BenchmarkE8CommHomBiCriteria(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	speeds := make([]float64, 1024)
	fps := make([]float64, 1024)
	for i := range speeds {
		speeds[i] = 1 + rng.Float64()*9
		fps[i] = 0.4
	}
	pl, err := platform.NewCommHomogeneous(speeds, fps, 2)
	if err != nil {
		b.Fatal(err)
	}
	p := pipeline.MustNew([]float64{6, 4}, []float64{1, 2, 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := poly.Algorithm3(p, pl, 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9PartitionReduction times a full Theorem 7 verification
// (subset-sum DP + 2^m gadget evaluations) at m=14.
func BenchmarkE9PartitionReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := make([]int, 14)
	for i := range a {
		a[i] = 1 + rng.Intn(12)
	}
	pi := &npc.PartitionInstance{A: a}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := npc.VerifyPartitionReduction(pi); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Greedy and BenchmarkE10Anneal time the open-case heuristics
// on a 6-stage, 20-processor CommHom+FailureHet instance.
func BenchmarkE10Greedy(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	inst := workload.Random(rng, platform.CommHomogeneous, 6, 20)
	fast, err := poly.MinLatencyCommHom(inst.Pipeline, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	pr := &heuristics.Problem{Pipe: inst.Pipeline, Plat: inst.Platform, Goal: heuristics.MinFP, Bound: fast.Metrics.Latency * 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Greedy(context.Background(), pr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Anneal(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	inst := workload.Random(rng, platform.CommHomogeneous, 6, 20)
	fast, err := poly.MinLatencyCommHom(inst.Pipeline, inst.Platform)
	if err != nil {
		b.Fatal(err)
	}
	pr := &heuristics.Problem{Pipe: inst.Pipeline, Plat: inst.Platform, Goal: heuristics.MinFP, Bound: fast.Metrics.Latency * 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fixed seed: identical deterministic work per iteration (a
		// varying seed can hit a restart budget that misses feasibility).
		if _, err := heuristics.Anneal(context.Background(), pr, heuristics.AnnealConfig{Seed: 3, Iters: 1000, Restarts: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11SimWorstCase times one worst-case simulation of the Fig5
// split mapping; BenchmarkE11SimMonteCarlo one random-failure run;
// BenchmarkE11EstimateFP a 10k-trial FP estimation.
func BenchmarkE11SimWorstCase(b *testing.B) {
	p, pl := workload.Fig5()
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, pl, m, sim.Config{Mode: sim.WorstCase}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11SimMonteCarlo(b *testing.B) {
	p, pl := workload.Fig5()
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, pl, m, sim.Config{Mode: sim.MonteCarlo, RNG: rng}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11EstimateFP(b *testing.B) {
	_, pl := workload.Fig5()
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.EstimateFPParallel(context.Background(), pl, m, 10_000, 1, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12JPEG times the full JPEG case-study solve (exact routing on
// the 7-stage, 8-processor cluster).
func BenchmarkE12JPEG(b *testing.B) {
	tbl := func() { bench.E12JPEG() }
	for i := 0; i < b.N; i++ {
		tbl()
	}
}

// BenchmarkE13ScalabilityDP128 times the layered DP at n=m=128.
func BenchmarkE13ScalabilityDP128(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p := pipeline.Random(rng, 128, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, 128, 1, 10, 0, 1, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poly.MinLatencyGeneral(p, pl)
	}
}

// BenchmarkE13ScalabilityAlg1_4096 times Algorithm 1 at m=4096.
func BenchmarkE13ScalabilityAlg1_4096(b *testing.B) {
	p := pipeline.MustNew([]float64{2, 3}, []float64{1, 1, 1})
	pl, err := platform.NewFullyHomogeneous(4096, 2, 2, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := poly.Algorithm1(p, pl, 1e6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14ReplicationAblation times the k-sweep table (evaluation +
// worst-case simulation for k = 1..8).
func BenchmarkE14ReplicationAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.E14ReplicationAblation()
	}
}

// BenchmarkE15TriCriteria times the exhaustive tri-criteria solver on the
// E15 instance (future work §5).
func BenchmarkE15TriCriteria(b *testing.B) {
	p := pipeline.MustNew([]float64{20, 120, 30}, []float64{8, 6, 4, 2})
	pl, err := platform.NewCommHomogeneous(
		[]float64{10, 10, 10, 10, 10}, []float64{0.2, 0.2, 0.2, 0.2, 0.2}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := throughput.MinPeriodUnderConstraints(p, pl, 1e18, 0.2, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16PeriodEval times one period evaluation (the inner loop of
// the tri-criteria solvers).
func BenchmarkE16PeriodEval(b *testing.B) {
	p, pl := workload.Fig5()
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for i := 0; i < b.N; i++ {
		if _, err := throughput.PeriodOverlap(p, pl, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE16SimSteadyState times a 48-data-set streaming simulation.
func BenchmarkE16SimSteadyState(b *testing.B) {
	p, pl := workload.Fig5()
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(p, pl, m, sim.Config{Mode: sim.WorstCase, NumDataSets: 48}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17IntervalBounds times the polynomial bounds for the open
// problem (shortest path + repair) at n=m=64.
func BenchmarkE17IntervalBounds(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	p := pipeline.Random(rng, 64, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, 64, 1, 10, 0, 1, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := poly.IntervalLatencyBounds(p, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate times the analytic evaluators themselves (the inner
// loop of every solver).
func BenchmarkEvaluate(b *testing.B) {
	p, pl := workload.Fig5()
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Evaluate(p, pl, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE17BeamSearch times the beam-search heuristic for the open
// problem at n=32, m=48 (beam width 16).
func BenchmarkE17BeamSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := pipeline.Random(rng, 32, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, 48, 1, 10, 0, 1, 1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.BeamSearchMinLatency(context.Background(), &heuristics.Problem{Pipe: p, Plat: pl}, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionReuse times a full Figure 5 solve on a long-lived
// Session, and the metric evaluation hot path both through the session's
// cached bitmask evaluator and through the package-level slice Evaluate,
// which validates the mapping and walks the instance on every call.
func BenchmarkSessionReuse(b *testing.B) {
	p, pl := workload.Fig5()
	req := SolveRequest{Objective: MinimizeFailureProb, MaxLatency: 22}
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	ctx := context.Background()

	b.Run("Solve/session", func(b *testing.B) {
		s, err := NewSession(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Evaluate/session", func(b *testing.B) {
		s, err := NewSession(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Evaluate(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Evaluate/percall", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Evaluate(p, pl, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wideBenchInstance builds the m-processor fully heterogeneous platform
// used by the wide-platform (m > 64) benchmarks: per-processor speeds,
// failure probabilities and bandwidths all vary so the multi-word replica
// iteration is fully exercised.
func wideBenchInstance(b *testing.B, n, m int) (*pipeline.Pipeline, *platform.Platform) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(100*n + m)))
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
	return p, pl
}

// benchWideMinLatency times the exact latency solver on the multi-word
// wide search: singleton replica sets over every boundary split, pruned
// branch-and-bound, parallel first-interval fan-out.
func benchWideMinLatency(b *testing.B, n, m, workers int) {
	p, pl := wideBenchInstance(b, n, m)
	ev, err := mapping.NewEvaluator(p, pl)
	if err != nil {
		b.Fatal(err)
	}
	opts := exact.Options{Workers: workers, Eval: ev, MaxEnum: 1 << 62}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.MinLatencyInterval(p, pl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideM80Exact: m = 80, n = 3 — ≈ 500k singleton candidates.
func BenchmarkWideM80Exact(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchWideMinLatency(b, 3, 80, 1) })
	b.Run("par", func(b *testing.B) { benchWideMinLatency(b, 3, 80, 0) })
}

// BenchmarkWideM128Exact: m = 128, n = 3 — ≈ 2M singleton candidates on
// a two-word stride.
func BenchmarkWideM128Exact(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchWideMinLatency(b, 3, 128, 1) })
	b.Run("par", func(b *testing.B) { benchWideMinLatency(b, 3, 128, 0) })
}

// BenchmarkWideEvaluate isolates the multi-word evaluation hot path: one
// EvalW per iteration on an m = 128 candidate spanning both words.
func BenchmarkWideEvaluate(b *testing.B) {
	p, pl := wideBenchInstance(b, 6, 128)
	ev, err := mapping.NewEvaluator(p, pl)
	if err != nil {
		b.Fatal(err)
	}
	mp := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 1}, {First: 2, Last: 3}, {First: 4, Last: 5}},
		Alloc:     [][]int{{0, 65}, {10, 100}, {63, 64, 127}},
	}
	ends, words := mapping.BoundaryRepWide(mp, ev.Stride())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		met := ev.EvalW(ends, words)
		if met.Latency <= 0 {
			b.Fatal("bogus latency")
		}
	}
}

// BenchmarkEvaluateMany isolates one batch-evaluation call — the per-node
// unit of the replication-free exact search: score every singleton
// extension of a shared prefix in a single pass. stride1 is the one-word
// layout at m = 64, wide the two-word layout at m = 128. Both must stay
// allocation-free (pinned by CI).
func BenchmarkEvaluateMany(b *testing.B) {
	b.Run("stride1", func(b *testing.B) {
		p, pl := wideBenchInstance(b, 5, 64)
		ev, err := mapping.NewEvaluator(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]mapping.Sibling, 64)
		pre := mapping.BatchPrefix{Depth: 1, Lat: 1, PrevFirst: 0, PrevLast: 0, PrevProc: 2}
		free := bitset.Make(64)
		free.Fill(63)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ev.EvaluateManyW(pre, 1, 3, free, out) == 0 {
				b.Fatal("no siblings")
			}
		}
	})
	b.Run("wide", func(b *testing.B) {
		p, pl := wideBenchInstance(b, 5, 128)
		ev, err := mapping.NewEvaluator(p, pl)
		if err != nil {
			b.Fatal(err)
		}
		out := make([]mapping.Sibling, 128)
		pre := mapping.BatchPrefix{Depth: 1, Lat: 1, PrevFirst: 0, PrevLast: 0, PrevProc: 100}
		free := bitset.Make(128)
		free.Fill(128)
		free.Remove(100)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ev.EvaluateManyW(pre, 1, 3, free, out) == 0 {
				b.Fatal("no siblings")
			}
		}
	})
}

// BenchmarkSharedIncumbentM80 contrasts the sequential search with the
// parallel one on the m = 80 wide instance: workers publish every new
// optimum through the shared incumbent, so parallel subtrees prune
// against the global best rather than their own. The outputs are
// bitwise-identical either way (see TestSharedIncumbentDeterminism); only
// the wall clock may differ.
func BenchmarkSharedIncumbentM80(b *testing.B) {
	b.Run("seq", func(b *testing.B) { benchWideMinLatency(b, 3, 80, 1) })
	b.Run("par", func(b *testing.B) { benchWideMinLatency(b, 3, 80, 0) })
}

// heurBenchProblem builds the m-processor fully heterogeneous heuristics
// problem used by the wide greedy/anneal benchmarks: minimize FP under a
// latency bound 1.5× the fastest single processor, which is binding
// enough that greedy grows the mapping over many improvement rounds (the
// pre-refactor worst case). The evaluator is cached on the problem, so
// iterations measure the search, not the precomputation.
func heurBenchProblem(b *testing.B, n, m int) *heuristics.Problem {
	b.Helper()
	p, pl := wideBenchInstance(b, n, m)
	ref, err := mapping.Evaluate(p, pl, mapping.NewSingleInterval(n, []int{pl.FastestProc()}))
	if err != nil {
		b.Fatal(err)
	}
	return &heuristics.Problem{Pipe: p, Plat: pl, Goal: heuristics.MinFP, Bound: ref.Latency * 1.5}
}

// BenchmarkGreedyM80 times the full-het m = 80 greedy solve on the shared
// delta search state — the shape whose clone-path sweeps cost ~28s before
// the heuristics refactor (top-k bounded structural lookahead; each
// candidate applied, scored and dropped by restoring the pre-sweep
// snapshot; zero allocations in the sweeps).
func BenchmarkGreedyM80(b *testing.B) {
	pr := heurBenchProblem(b, 12, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Greedy(context.Background(), pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyM128 times greedy on a wide-cold-shaped solve: n = 24
// stages on m = 128 fully heterogeneous processors, minimizing FP under
// 1.5× the fastest single processor's latency. At this width most
// candidates lose on a preview (FP, or an addition's latency floor) and
// are skipped unapplied.
func BenchmarkGreedyM128(b *testing.B) {
	pr := heurBenchProblem(b, 24, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Greedy(context.Background(), pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairM80 times the warm-restart repair after one crash in the
// m = 80 deployment — the reactive controller's hot path: load the
// deployed mapping into the incremental state, evict the dead replica,
// and re-optimize with bounded point-move rounds. Compare with
// BenchmarkGreedyM80, the cold solve on the same instance: the repair
// must stay an order of magnitude cheaper, which is what makes
// failure-reactive re-mapping viable at streaming rates.
func BenchmarkRepairM80(b *testing.B) {
	pr := heurBenchProblem(b, 12, 80)
	g, err := heuristics.Greedy(context.Background(), pr)
	if err != nil {
		b.Fatal(err)
	}
	banned := bitset.Make(80)
	banned.Add(g.Mapping.Alloc[0][0])
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Repair(ctx, pr, g.Mapping, banned); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRemapM80 times the same single-crash repair through the
// public Session.Remap surface (controller construction, eviction, greedy
// repair, violation grading) — the per-event server-side cost of the
// /v1/remap/stream endpoint.
func BenchmarkSessionRemapM80(b *testing.B) {
	pr := heurBenchProblem(b, 12, 80)
	s, err := NewSession(pr.Pipe, pr.Plat)
	if err != nil {
		b.Fatal(err)
	}
	g, err := heuristics.Greedy(context.Background(), pr)
	if err != nil {
		b.Fatal(err)
	}
	failed := make([]bool, 80)
	failed[g.Mapping.Alloc[0][0]] = true
	cfg := RemapConfig{Objective: MinimizeFailureProb, MaxLatency: pr.Bound}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Remap(ctx, g.Mapping, failed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemapCampaign times one whole /v1/remap/stream-shaped
// campaign through Session.RunReactive: the m = 80 full-het instance
// deployed as 4 intervals × 3 replicas on its 12 fastest processors,
// minimizing FP under 1.5× that mapping's latency, while the 16 fastest
// processors crash one by one and then recover in the same order (32
// events, most of them warm repairs).
func BenchmarkRemapCampaign(b *testing.B) {
	const n = 12
	p, pl := wideBenchInstance(b, n, 80)
	s, err := NewSession(p, pl)
	if err != nil {
		b.Fatal(err)
	}
	fastest := pl.ProcsBySpeedDesc()
	start := &mapping.Mapping{}
	for j := 0; j < 4; j++ {
		start.Intervals = append(start.Intervals, mapping.Interval{First: j * n / 4, Last: (j+1)*n/4 - 1})
		procs := append([]int(nil), fastest[3*j:3*j+3]...)
		sort.Ints(procs)
		start.Alloc = append(start.Alloc, procs)
	}
	met, err := mapping.Evaluate(p, pl, start)
	if err != nil {
		b.Fatal(err)
	}
	var schedule FaultSchedule
	for k, u := range fastest[:16] {
		schedule = append(schedule, FaultEvent{Time: float64(k + 1), Proc: u, Kind: FaultCrash})
	}
	for k, u := range fastest[:16] {
		schedule = append(schedule, FaultEvent{Time: float64(17 + k), Proc: u, Kind: FaultRecover})
	}
	schedule = schedule.Renumber()
	cfg := RemapConfig{Objective: MinimizeFailureProb, MaxLatency: 1.5 * met.Latency}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunReactive(ctx, start, schedule, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnealDelta times the annealing walk on the incremental state
// at m = 80: each iteration applies and scores a move in place, then
// restores the walk's snapshot (rejected) or re-takes it (accepted),
// instead of cloning and re-validating a Mapping.
func BenchmarkAnnealDelta(b *testing.B) {
	pr := heurBenchProblem(b, 12, 80)
	cfg := heuristics.AnnealConfig{Seed: 3, Iters: 2000, Restarts: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.Anneal(context.Background(), pr, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleIntervalSweepM128 times greedy's seed sweep at m = 128:
// about 4m single-interval candidates, scored on one EvalState by growing
// each order's prefix with AddReplica; only the winner becomes a Mapping.
func BenchmarkSingleIntervalSweepM128(b *testing.B) {
	pr := heurBenchProblem(b, 12, 128)
	if _, err := heuristics.SingleIntervalSweep(pr); err != nil { // builds the cached evaluator
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := heuristics.SingleIntervalSweep(pr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideBeamSearch: the scalable wide-platform heuristic —
// session beam search over multi-word used-sets at m = 128 (the greedy
// Solve route runs at this width too since the delta refactor; see
// BenchmarkGreedyM80).
func BenchmarkWideBeamSearch(b *testing.B) {
	p, pl := wideBenchInstance(b, 8, 128)
	s, err := NewSession(p, pl)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.BeamSearchMinLatency(ctx, 16); err != nil {
			b.Fatal(err)
		}
	}
}
