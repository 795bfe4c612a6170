package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

func fig34() (*pipeline.Pipeline, *platform.Platform) {
	p := pipeline.MustNew([]float64{2, 2}, []float64{100, 100, 100})
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 1}, []float64{0.2, 0.2},
		[][]float64{{0, 100}, {100, 0}},
		[]float64{100, 1}, []float64{1, 100})
	if err != nil {
		panic(err)
	}
	return p, pl
}

func fig5() (*pipeline.Pipeline, *platform.Platform) {
	p := pipeline.MustNew([]float64{1, 100}, []float64{10, 1, 0})
	speeds := []float64{1}
	fps := []float64{0.1}
	for i := 0; i < 10; i++ {
		speeds = append(speeds, 100)
		fps = append(fps, 0.8)
	}
	pl, err := platform.NewCommHomogeneous(speeds, fps, 1)
	if err != nil {
		panic(err)
	}
	return p, pl
}

func fig5Split() *mapping.Mapping {
	return &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
}

// TestWorstCaseFig34 replays the Section 3 example on the simulator: the
// single-processor mapping measures 105, the split mapping 7.
func TestWorstCaseFig34(t *testing.T) {
	p, pl := fig34()
	res, err := Run(p, pl, mapping.NewSingleInterval(2, []int{0}), Config{Mode: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxLatency-105) > 1e-9 {
		t.Errorf("single-proc simulated latency = %g, want 105", res.MaxLatency)
	}
	split := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1}},
	}
	res, err = Run(p, pl, split, Config{Mode: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxLatency-7) > 1e-9 {
		t.Errorf("split simulated latency = %g, want 7", res.MaxLatency)
	}
	if !res.Completed || res.Events == 0 {
		t.Error("worst-case run must complete and process events")
	}
}

// TestWorstCaseFig5 replays the Figure 5 two-interval mapping: latency 22.
func TestWorstCaseFig5(t *testing.T) {
	p, pl := fig5()
	res, err := Run(p, pl, fig5Split(), Config{Mode: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MaxLatency-22) > 1e-9 {
		t.Errorf("simulated latency = %g, want 22", res.MaxLatency)
	}
}

// randomIntervalMapping builds a random valid interval mapping.
func randomIntervalMapping(rng *rand.Rand, n, m int) *mapping.Mapping {
	pCount := 1 + rng.Intn(minInt(n, m))
	bounds := rng.Perm(n - 1)
	if len(bounds) > pCount-1 {
		bounds = bounds[:pCount-1]
	} else {
		pCount = len(bounds) + 1
	}
	for i := 1; i < len(bounds); i++ {
		for j := i; j > 0 && bounds[j] < bounds[j-1]; j-- {
			bounds[j], bounds[j-1] = bounds[j-1], bounds[j]
		}
	}
	mp := &mapping.Mapping{}
	start := 0
	for j := 0; j < pCount; j++ {
		end := n - 1
		if j < pCount-1 {
			end = bounds[j]
		}
		mp.Intervals = append(mp.Intervals, mapping.Interval{First: start, Last: end})
		start = end + 1
	}
	procs := rng.Perm(m)
	mp.Alloc = make([][]int, pCount)
	for j := 0; j < pCount; j++ {
		mp.Alloc[j] = []int{procs[j]}
	}
	for _, u := range procs[pCount:] {
		if rng.Float64() < 0.5 {
			j := rng.Intn(pCount)
			mp.Alloc[j] = append(mp.Alloc[j], u)
		}
	}
	return mp
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Property (E11 core): the worst-case simulator reproduces Eq. (2) — hence
// Eq. (1) on CommHom platforms — to 1e-9 on random instances and mappings.
func TestWorstCaseMatchesAnalyticLatency(t *testing.T) {
	f := func(seed int64, commHom bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := n + rng.Intn(5)
		p := pipeline.Random(rng, n, 0.5, 10, 0.5, 10)
		var pl *platform.Platform
		if commHom {
			pl = platform.RandomCommHomogeneous(rng, m, 1, 10, 0, 1, 1+rng.Float64()*4)
		} else {
			pl = platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0, 1, 1, 50)
		}
		mp := randomIntervalMapping(rng, n, m)
		analytic, err := mapping.Latency(p, pl, mp)
		if err != nil {
			return false
		}
		res, err := Run(p, pl, mp, Config{Mode: WorstCase})
		if err != nil {
			return false
		}
		return math.Abs(res.MaxLatency-analytic) <= 1e-9*math.Max(1, analytic)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// Property: Monte-Carlo latencies never exceed the worst case (with free
// consensus), and completion matches SurvivesFailures.
func TestMonteCarloBoundedByWorstCase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + rng.Intn(4)
		p := pipeline.Random(rng, n, 0.5, 10, 0.5, 10)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.1, 0.9, 1, 50)
		mp := randomIntervalMapping(rng, n, m)
		wc, err := Run(p, pl, mp, Config{Mode: WorstCase})
		if err != nil {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			mc, err := Run(p, pl, mp, Config{Mode: MonteCarlo, RNG: rng})
			if err != nil {
				return false
			}
			if !mc.Completed {
				continue
			}
			if mc.MaxLatency > wc.MaxLatency+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestMonteCarloSuccessRate (E11): the empirical failure rate converges to
// the analytic FP within 4 standard errors.
func TestMonteCarloSuccessRate(t *testing.T) {
	p, pl := fig5()
	mp := fig5Split()
	analytic := mapping.FailureProb(pl, mp)

	est, err := EstimateFPParallel(context.Background(), pl, mp, 40000, 1, 123)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Within(analytic, 4) {
		t.Errorf("sampled FP = %g ± %g, analytic %g: outside 4σ", est.FP, est.StdErr, analytic)
	}

	// The full DES agrees with the sampler on completion counting.
	rng2 := rand.New(rand.NewSource(77))
	failures := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		res, err := Run(p, pl, mp, Config{Mode: MonteCarlo, RNG: rng2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			failures++
		}
	}
	phat := float64(failures) / trials
	se := math.Sqrt(analytic*(1-analytic)/trials) + 1e-9
	if math.Abs(phat-analytic) > 5*se {
		t.Errorf("DES failure rate %g vs analytic %g (5σ = %g)", phat, analytic, 5*se)
	}
}

func TestRunInjected(t *testing.T) {
	p, pl := fig5()
	mp := fig5Split()
	// Kill the slow processor (only replica of interval 1): total failure.
	failed := make([]bool, 11)
	failed[0] = true
	res, err := RunInjected(p, pl, mp, Config{}, failed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("application should fail when an interval loses all replicas")
	}
	if len(res.FailedProcs) != 1 || res.FailedProcs[0] != 0 {
		t.Errorf("FailedProcs = %v, want [0]", res.FailedProcs)
	}
	// Kill 9 of the 10 fast replicas: still completes.
	failed = make([]bool, 11)
	for u := 2; u <= 10; u++ {
		failed[u] = true
	}
	res, err = RunInjected(p, pl, mp, Config{}, failed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Error("application should survive with one replica per interval")
	}
	// With one fast replica the input is sent once (not 10 times):
	// 10 + 1 + 1·1 + 1 + 0 = 13.
	if math.Abs(res.MaxLatency-13) > 1e-9 {
		t.Errorf("latency with 9 dead replicas = %g, want 13", res.MaxLatency)
	}
	// Wrong failure-vector length is rejected.
	if _, err := RunInjected(p, pl, mp, Config{}, []bool{true}); err == nil {
		t.Error("short failure vector accepted")
	}
}

func TestRunValidatesMapping(t *testing.T) {
	p, pl := fig5()
	bad := mapping.NewSingleInterval(1, []int{0}) // wrong stage count
	if _, err := Run(p, pl, bad, Config{Mode: WorstCase}); err == nil {
		t.Error("invalid mapping accepted")
	}
	if _, err := Run(p, pl, fig5Split(), Config{Mode: MonteCarlo}); err == nil {
		t.Error("MonteCarlo without RNG accepted")
	}
	if _, err := Run(p, pl, fig5Split(), Config{Mode: Mode(9)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestMultipleDataSetsLatenciesGrow(t *testing.T) {
	p, pl := fig5()
	mp := fig5Split()
	res, err := Run(p, pl, mp, Config{Mode: WorstCase, NumDataSets: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.DatasetLatencies) != 5 {
		t.Fatalf("got %d latencies, want 5", len(res.DatasetLatencies))
	}
	// All released at t=0: later data sets queue behind earlier ones.
	for d := 1; d < 5; d++ {
		if res.DatasetLatencies[d] < res.DatasetLatencies[d-1]-1e-9 {
			t.Errorf("dataset %d latency %g < dataset %d latency %g", d,
				res.DatasetLatencies[d], d-1, res.DatasetLatencies[d-1])
		}
	}
	if res.MaxLatency != res.DatasetLatencies[4] {
		t.Error("MaxLatency should be the last dataset's latency here")
	}
	if res.Makespan < res.MaxLatency {
		t.Error("makespan below max latency")
	}
	// A long release period decouples the data sets: every latency equals
	// the single-shot latency.
	resSpaced, err := Run(p, pl, mp, Config{Mode: WorstCase, NumDataSets: 3, Period: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for d, lat := range resSpaced.DatasetLatencies {
		if math.Abs(lat-22) > 1e-9 {
			t.Errorf("spaced dataset %d latency = %g, want 22", d, lat)
		}
	}
}

func TestConsensusElectsLowestAliveRank(t *testing.T) {
	pl, _ := platform.NewFullyHomogeneous(4, 1, 1, 0)
	eng := &Engine{}
	nw := newNetwork(eng, pl)
	aliveSet := map[int]bool{2: true, 3: true}
	var got consensusResult
	var ok bool
	runConsensus(nw, []int{1, 2, 3}, func(u int) bool { return aliveSet[u] }, 5, 0, 0,
		func(res consensusResult, o bool) { got, ok = res, o })
	eng.Run()
	if !ok || got.Leader != 2 {
		t.Errorf("leader = %v (ok=%v), want P2 alive leader", got.Leader, ok)
	}
	if got.Decided != 5 {
		t.Errorf("decision at %g, want 5 (free consensus)", got.Decided)
	}
	if got.Rounds != 2 {
		t.Errorf("rounds = %d, want 2 (one dead coordinator)", got.Rounds)
	}
}

func TestConsensusAllDead(t *testing.T) {
	pl, _ := platform.NewFullyHomogeneous(2, 1, 1, 0)
	eng := &Engine{}
	nw := newNetwork(eng, pl)
	called := false
	runConsensus(nw, []int{0, 1}, func(int) bool { return false }, 0, 0, 0,
		func(_ consensusResult, ok bool) {
			called = true
			if ok {
				t.Error("consensus succeeded with no survivors")
			}
		})
	eng.Run()
	if !called {
		t.Error("callback not invoked")
	}
}

func TestConsensusTimeoutCost(t *testing.T) {
	pl, _ := platform.NewFullyHomogeneous(3, 1, 1, 0)
	eng := &Engine{}
	nw := newNetwork(eng, pl)
	alive := func(u int) bool { return u == 2 }
	var got consensusResult
	runConsensus(nw, []int{0, 1, 2}, alive, 10, 7, 0,
		func(res consensusResult, ok bool) { got = res })
	eng.Run()
	// Two dead coordinators before rank 2: decision at 10 + 2·7 = 24.
	if got.Decided != 24 || got.Leader != 2 || got.Rounds != 3 {
		t.Errorf("got %+v, want leader 2 decided at 24 after 3 rounds", got)
	}
}

func TestConsensusMessageCost(t *testing.T) {
	pl, _ := platform.NewFullyHomogeneous(3, 1, 2, 0) // bandwidth 2
	eng := &Engine{}
	nw := newNetwork(eng, pl)
	alive := func(int) bool { return true }
	var got consensusResult
	runConsensus(nw, []int{0, 1, 2}, alive, 0, 0, 4, // control messages of size 4: 2 units each
		func(res consensusResult, ok bool) { got = res })
	eng.Run()
	// PROPOSE to P1 at 2, to P2 at 4 (serialized); ACKs arrive at the
	// leader's receive port serialized: P1's ack ready 2 → arrives 4;
	// P2's ack ready 4 → starts after recv busy 4 → arrives 6.
	if got.Decided != 6 {
		t.Errorf("decision at %g, want 6", got.Decided)
	}
}

// TestConsensusOverheadVisibleInLatency: dead coordinators delay the
// pipeline by the detection timeouts (the ablation of E11).
func TestConsensusOverheadVisibleInLatency(t *testing.T) {
	p, pl := fig5()
	mp := fig5Split()
	// Kill fast replicas 1 and 2 (ranks 0 and 1 of interval 2's group):
	// leader is rank 2; with timeout 3 the election costs 2·3 = 6 extra.
	failed := make([]bool, 11)
	failed[1], failed[2] = true, true
	base, err := RunInjected(p, pl, mp, Config{}, failed)
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := RunInjected(p, pl, mp, Config{ConsensusTimeout: 3}, failed)
	if err != nil {
		t.Fatal(err)
	}
	// Two elections happen (one per interval); only interval 2's has dead
	// lower-rank coordinators.
	if math.Abs((delayed.MaxLatency-base.MaxLatency)-6) > 1e-9 {
		t.Errorf("timeout overhead = %g, want 6", delayed.MaxLatency-base.MaxLatency)
	}
	// Rounds count coordinator attempts, not time: 1 for interval 1 plus
	// 3 for interval 2 (two dead coordinators) in both runs.
	if base.ConsensusRounds != 4 || delayed.ConsensusRounds != 4 {
		t.Errorf("consensus rounds = %d/%d, want 4/4", base.ConsensusRounds, delayed.ConsensusRounds)
	}
}

func TestEstimateFPErrors(t *testing.T) {
	_, pl := fig5()
	if _, err := EstimateFPParallel(context.Background(), pl, fig5Split(), 0, 1, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestSurvivesFailures(t *testing.T) {
	mp := fig5Split()
	all := make([]bool, 11)
	if !SurvivesFailures(mp, all) {
		t.Error("no failures must survive")
	}
	all[0] = true
	if SurvivesFailures(mp, all) {
		t.Error("losing the only replica of interval 1 must fail")
	}
}

// Property: the serial estimate is within 5σ of the analytic FP on random
// small instances.
func TestEstimateFPMatchesAnalytic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := n + rng.Intn(4)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 2, 0.05, 0.95, 1)
		mp := randomIntervalMapping(rng, n, m)
		analytic := mapping.FailureProb(pl, mp)
		est, err := EstimateFPParallel(context.Background(), pl, mp, 6000, 1, seed)
		if err != nil {
			return false
		}
		return est.Within(analytic, 5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
