package exact

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/poly"
)

// countMappings returns the number of valid interval mappings enumerated.
func countMappings(n, m int, repl bool) int {
	count := 0
	ForEachMapping(n, m, Options{Replication: repl}, func(*mapping.Mapping) bool {
		count++
		return true
	})
	return count
}

func TestForEachMappingCountsNoReplication(t *testing.T) {
	// n=1, m=2, no replication: 1 interval on P0 or P1 → 2 mappings.
	if got := countMappings(1, 2, false); got != 2 {
		t.Errorf("count(1,2) = %d, want 2", got)
	}
	// n=2, m=2: p=1 → 2; p=2 → 2 ordered pairs of distinct procs → 2. Total 4.
	if got := countMappings(2, 2, false); got != 4 {
		t.Errorf("count(2,2) = %d, want 4", got)
	}
	// n=2, m=3: p=1 → 3; p=2 → 3·2 = 6. Total 9.
	if got := countMappings(2, 3, false); got != 9 {
		t.Errorf("count(2,3) = %d, want 9", got)
	}
}

func TestForEachMappingCountsWithReplication(t *testing.T) {
	// n=1, m=2 with replication: non-empty subsets of {P0,P1} → 3.
	if got := countMappings(1, 2, true); got != 3 {
		t.Errorf("count(1,2) = %d, want 3", got)
	}
	// n=2, m=2: p=1 → 3 subsets; p=2 → ordered disjoint non-empty pairs:
	// ({0},{1}), ({1},{0}) → 2. Total 5.
	if got := countMappings(2, 2, true); got != 5 {
		t.Errorf("count(2,2) = %d, want 5", got)
	}
	// n=1, m=3: 7 subsets.
	if got := countMappings(1, 3, true); got != 7 {
		t.Errorf("count(1,3) = %d, want 7", got)
	}
}

func TestForEachMappingAllValid(t *testing.T) {
	err := ForEachMapping(3, 4, Options{Replication: true}, func(mp *mapping.Mapping) bool {
		if err := mp.Validate(3, 4); err != nil {
			t.Fatalf("enumerated invalid mapping %v: %v", mp, err)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachMappingBudget(t *testing.T) {
	err := ForEachMapping(4, 6, Options{Replication: true, MaxEnum: 10}, func(*mapping.Mapping) bool {
		return true
	})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestForEachMappingEarlyStop(t *testing.T) {
	count := 0
	err := ForEachMapping(3, 3, Options{}, func(*mapping.Mapping) bool {
		count++
		return count < 3
	})
	if err != nil {
		t.Fatalf("early stop returned error: %v", err)
	}
	if count != 3 {
		t.Errorf("visited %d mappings after stop, want 3", count)
	}
}

func TestForEachMappingRejectsBadSizes(t *testing.T) {
	if err := ForEachMapping(0, 3, Options{}, func(*mapping.Mapping) bool { return true }); err == nil {
		t.Error("n=0 accepted")
	}
	if err := ForEachMapping(3, 0, Options{}, func(*mapping.Mapping) bool { return true }); err == nil {
		t.Error("m=0 accepted")
	}
}

// TestMinLatencyFig34: the exhaustive solver reproduces the paper's
// Section 3 example optimum (latency 7 with a split mapping).
func TestMinLatencyFig34(t *testing.T) {
	p := pipeline.MustNew([]float64{2, 2}, []float64{100, 100, 100})
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 1}, []float64{0, 0},
		[][]float64{{0, 100}, {100, 0}},
		[]float64{100, 1}, []float64{1, 100})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinLatencyInterval(p, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Latency != 7 {
		t.Errorf("optimal latency = %g, want 7", res.Metrics.Latency)
	}
	if res.Mapping.NumIntervals() != 2 {
		t.Errorf("optimal mapping has %d intervals, want 2", res.Mapping.NumIntervals())
	}
}

// TestMinFPUnderLatencyFig5: the exhaustive solver finds the paper's
// two-interval optimum on the Figure 5 instance.
func TestMinFPUnderLatencyFig5(t *testing.T) {
	p := pipeline.MustNew([]float64{1, 100}, []float64{10, 1, 0})
	speeds := []float64{1}
	fps := []float64{0.1}
	// Use 5 fast processors (not 10) to keep enumeration quick; the best
	// mapping is still slow-stage-on-reliable + full fast replication.
	for i := 0; i < 5; i++ {
		speeds = append(speeds, 100)
		fps = append(fps, 0.8)
	}
	pl, _ := platform.NewCommHomogeneous(speeds, fps, 1)
	res, err := MinFPUnderLatency(p, pl, 22, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantFP := 1 - (1-0.1)*(1-math.Pow(0.8, 5))
	if math.Abs(res.Metrics.FailureProb-wantFP) > 1e-12 {
		t.Errorf("FP = %g, want %g", res.Metrics.FailureProb, wantFP)
	}
	if res.Mapping.NumIntervals() != 2 {
		t.Errorf("optimal mapping has %d intervals, want 2 (CommHom+FailureHet)", res.Mapping.NumIntervals())
	}
}

// agreesWithExhaustive reports whether a provably optimal pair — minFP
// under the latency bound L (Algorithm 1 or 3) and minLat under the
// failure-probability bound F (Algorithm 2 or 4) — matches the
// exhaustive optimum, feasibility included.
func agreesWithExhaustive(p *pipeline.Pipeline, pl *platform.Platform, L, F float64,
	minFP, minLat func(*pipeline.Pipeline, *platform.Platform, float64) (poly.Result, error)) bool {
	got, gotErr := minFP(p, pl, L)
	want, wantErr := MinFPUnderLatency(p, pl, L, Options{})
	if (gotErr == nil) != (wantErr == nil) {
		return false
	}
	if gotErr == nil && math.Abs(got.Metrics.FailureProb-want.Metrics.FailureProb) > 1e-9 {
		return false
	}
	got2, gotErr2 := minLat(p, pl, F)
	want2, wantErr2 := MinLatencyUnderFP(p, pl, F, Options{})
	if (gotErr2 == nil) != (wantErr2 == nil) {
		return false
	}
	return gotErr2 != nil || math.Abs(got2.Metrics.Latency-want2.Metrics.Latency) <= 1e-9
}

// decimal rounds x to 12 significant digits: a bound as a user writes
// it, which may sit a few ulps below the value it names (0.1³ evaluates
// to 0.0010000000000000002, its decimal is 0.001).
func decimal(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 12, 64), 64)
	return v
}

// achievableBounds returns the latency and failure probability of the
// whole pipeline replicated on procs, as decimals: thresholds that the
// optimum meets exactly, up to float rounding.
func achievableBounds(p *pipeline.Pipeline, pl *platform.Platform, procs []int) (L, F float64) {
	met, err := mapping.Evaluate(p, pl, mapping.NewSingleInterval(p.NumStages(), procs))
	if err != nil {
		panic(err)
	}
	return decimal(met.Latency), decimal(met.FailureProb)
}

// homogeneousFP draws a processor failure probability: half the time a
// decimal tenth (0.1 … 0.5), whose powers round away from their decimals,
// otherwise uniform in [0.1, 0.9).
func homogeneousFP(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return float64(1+rng.Intn(5)) / 10
	}
	return 0.1 + 0.8*rng.Float64()
}

// Property (Theorem 5): Algorithm 1 and 2 match the exhaustive optimum on
// fully homogeneous platforms, at random thresholds and at thresholds set
// exactly on an achievable single-interval mapping.
func TestAlgorithms12MatchExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 2 + rng.Intn(3)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl, _ := platform.NewFullyHomogeneous(m, 1+rng.Float64()*4, 1+rng.Float64()*4, homogeneousFP(rng))
		L, F := achievableBounds(p, pl, pl.ProcsByReliabilityDesc()[:1+rng.Intn(m)])
		return agreesWithExhaustive(p, pl, 1+rng.Float64()*30, rng.Float64(), poly.Algorithm1, poly.Algorithm2) &&
			agreesWithExhaustive(p, pl, L, F, poly.Algorithm1, poly.Algorithm2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with many replicas of heterogeneous reliability, Algorithm 2
// decides on and reports the same bits the exact search scores. The FP
// bound F is set exactly on exact's optimum for the k most reliable
// replicas (distinct fps make that set unique), so Algorithm 2 must
// answer that set at FP F bitwise; a product taken in another order than
// ascending processor id is often an ulp or more away.
func TestAlgorithm2DecidesOnExactFP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 10 + rng.Intn(5)
		p := pipeline.Random(rng, 1, 1, 5, 1, 5)
		speeds := make([]float64, m)
		fps := make([]float64, m)
		for u := range fps {
			speeds[u] = 2
			fps[u] = math.Exp(-rng.Float64() * 4)
		}
		pl, _ := platform.NewCommHomogeneous(speeds, fps, 1+rng.Float64()*4)
		L, _ := achievableBounds(p, pl, pl.ProcsByReliabilityDesc()[:m/2+rng.Intn(m/2)])
		want, err := MinFPUnderLatency(p, pl, L, Options{})
		if err != nil {
			return false
		}
		F := want.Metrics.FailureProb
		got, err := poly.Algorithm2(p, pl, F)
		return err == nil && got.Metrics.FailureProb == F &&
			agreesWithExhaustive(p, pl, L, F, poly.Algorithm1, poly.Algorithm2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 6): Algorithm 3 and 4 match the exhaustive optimum on
// CommHom + FailureHom platforms, at random thresholds and at thresholds
// set exactly on an achievable single-interval mapping.
func TestAlgorithms34MatchExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 2 + rng.Intn(3)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		speeds := make([]float64, m)
		fps := make([]float64, m)
		fp := homogeneousFP(rng)
		for i := range speeds {
			speeds[i] = 1 + rng.Float64()*9
			fps[i] = fp
		}
		pl, _ := platform.NewCommHomogeneous(speeds, fps, 1+rng.Float64()*4)
		L, F := achievableBounds(p, pl, pl.ProcsBySpeedDesc()[:1+rng.Intn(m)])
		return agreesWithExhaustive(p, pl, 1+rng.Float64()*30, rng.Float64(), poly.Algorithm3, poly.Algorithm4) &&
			agreesWithExhaustive(p, pl, L, F, poly.Algorithm3, poly.Algorithm4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property (Theorem 2): the exhaustive latency optimum on CommHom
// platforms is the fastest single processor.
func TestMinLatencyMatchesTheorem2(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 10, 0, 1, 1+rng.Float64()*4)
		want, err := poly.MinLatencyCommHom(p, pl)
		if err != nil {
			return false
		}
		got, err := MinLatencyInterval(p, pl, Options{})
		if err != nil {
			return false
		}
		return math.Abs(got.Metrics.Latency-want.Metrics.Latency) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := pipeline.Random(rng, 2, 1, 5, 1, 5)
	pl := platform.RandomCommHomogeneous(rng, 4, 1, 10, 0.1, 0.9, 2)
	front, err := ParetoFront(p, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// Sorted by latency, strictly decreasing FP, mutually non-dominated.
	for i := 1; i < len(front); i++ {
		if front[i].Metrics.Latency < front[i-1].Metrics.Latency {
			t.Error("front not sorted by latency")
		}
		if front[i].Metrics.FailureProb >= front[i-1].Metrics.FailureProb {
			t.Error("front FP not strictly decreasing")
		}
	}
	for i := range front {
		for j := range front {
			if i != j && front[i].Metrics.Dominates(front[j].Metrics) {
				t.Errorf("front[%d] dominates front[%d]", i, j)
			}
		}
	}
	// Extremes agree with the mono-criterion optima.
	minLat, _ := MinLatencyInterval(p, pl, Options{})
	if math.Abs(front[0].Metrics.Latency-minLat.Metrics.Latency) > 1e-9 {
		t.Errorf("front[0] latency %g != optimum %g", front[0].Metrics.Latency, minLat.Metrics.Latency)
	}
	minFP, _ := poly.MinFailureProb(p, pl)
	last := front[len(front)-1]
	if math.Abs(last.Metrics.FailureProb-minFP.Metrics.FailureProb) > 1e-12 {
		t.Errorf("front tail FP %g != optimum %g", last.Metrics.FailureProb, minFP.Metrics.FailureProb)
	}
}

func TestMinLatencyOneToOneSmall(t *testing.T) {
	// Fig 3/4 instance: the one-to-one optimum is the split mapping, 7.
	p := pipeline.MustNew([]float64{2, 2}, []float64{100, 100, 100})
	pl, _ := platform.NewFullyHeterogeneous(
		[]float64{1, 1}, []float64{0, 0},
		[][]float64{{0, 100}, {100, 0}},
		[]float64{100, 1}, []float64{1, 100})
	res, err := MinLatencyOneToOne(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 7 {
		t.Errorf("one-to-one optimum = %g, want 7", res.Latency)
	}
	if !res.Mapping.IsOneToOne() {
		t.Error("result is not one-to-one")
	}
}

func TestMinLatencyOneToOneErrors(t *testing.T) {
	p := pipeline.Uniform(3, 1, 1)
	pl, _ := platform.NewFullyHomogeneous(2, 1, 1, 0)
	if _, err := MinLatencyOneToOne(p, pl); err == nil {
		t.Error("n > m accepted")
	}
	pBig := pipeline.Uniform(11, 1, 1)
	plBig, _ := platform.NewFullyHomogeneous(12, 1, 1, 0)
	if _, err := MinLatencyOneToOne(pBig, plBig); err == nil {
		t.Error("oversized instance accepted")
	}
}

// Property (Theorem 4): the DP shortest path equals the brute-force
// general-mapping optimum.
func TestGeneralBruteMatchesDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0, 1, 1, 20)
		brute, err := MinLatencyGeneralBrute(p, pl)
		if err != nil {
			return false
		}
		dp := poly.MinLatencyGeneral(p, pl)
		return math.Abs(brute.Latency-dp.Latency) <= 1e-9*math.Max(1, dp.Latency)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMinLatencyGeneralBruteTooLarge(t *testing.T) {
	p := pipeline.Uniform(30, 1, 1)
	pl, _ := platform.NewFullyHomogeneous(30, 1, 1, 0)
	if _, err := MinLatencyGeneralBrute(p, pl); err == nil {
		t.Error("oversized brute force accepted")
	}
}

// Property: one-to-one optimum ≥ general optimum (one-to-one is a
// restriction), and interval optimum ≥ general optimum.
func TestOptimaOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := n + rng.Intn(3)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0, 1, 1, 20)
		gen := poly.MinLatencyGeneral(p, pl)
		oto, err := MinLatencyOneToOne(p, pl)
		if err != nil {
			return false
		}
		iv, err := MinLatencyInterval(p, pl, Options{})
		if err != nil {
			return false
		}
		return oto.Latency >= gen.Latency-1e-9 && iv.Metrics.Latency >= gen.Latency-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestInfeasibleThresholds(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	pl, _ := platform.NewFullyHomogeneous(2, 1, 1, 0.5)
	if _, err := MinFPUnderLatency(p, pl, 0.001, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	if _, err := MinLatencyUnderFP(p, pl, 0.01, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible (0.5^2 = 0.25 > 0.01)", err)
	}
}

// bigFailureProb is 1 − Π_j (1 − Π_{u∈alloc(j)} fp_u) in 1024-bit
// arithmetic: exact to far more bits than float64 for every FP above
// 1e-250, and independent of mapping's accumulation.
func bigFailureProb(fps []float64, mp *mapping.Mapping) *big.Float {
	const prec = 1024
	one := new(big.Float).SetPrec(prec).SetInt64(1)
	success := new(big.Float).SetPrec(prec).SetInt64(1)
	for _, procs := range mp.Alloc {
		q := new(big.Float).SetPrec(prec).SetInt64(1)
		for _, u := range procs {
			q.Mul(q, big.NewFloat(fps[u]))
		}
		success.Mul(success, q.Sub(one, q))
	}
	return success.Sub(one, success)
}

// TestMinFPHighReliabilityMatchesBigReference: with processor fps of
// 1e-9–1e-6 the optimal FPs lie far below the ulp of 1, where a
// 1 − success formula reads 0 and ties every replicated mapping.
// MinFPUnderLatency's answer must have the least FP of all mappings that
// meet the bound, both taken in big.Float.
func TestMinFPHighReliabilityMatchesBigReference(t *testing.T) {
	const n, m = 3, 7
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := pipeline.Random(rng, n, 1, 10, 1, 10)
		speeds := make([]float64, m)
		fps := make([]float64, m)
		for u := range speeds {
			speeds[u] = 1 + 9*rng.Float64()
			fps[u] = math.Pow(10, -9+3*rng.Float64())
		}
		pl, err := platform.NewCommHomogeneous(speeds, fps, 1+4*rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		fastest := math.Inf(1)
		for u := 0; u < m; u++ {
			lat, err := mapping.Latency(p, pl, mapping.NewSingleInterval(n, []int{u}))
			if err != nil {
				t.Fatal(err)
			}
			fastest = math.Min(fastest, lat)
		}
		bound := 1.5 * fastest
		var best *big.Float
		if err := ForEachMapping(n, m, Options{Replication: true}, func(mp *mapping.Mapping) bool {
			if lat, _ := mapping.Latency(p, pl, mp); mapping.LatencyWithin(lat, bound) {
				if fp := bigFailureProb(fps, mp); best == nil || fp.Cmp(best) < 0 {
					best = fp
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		res, err := MinFPUnderLatency(p, pl, bound, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := bigFailureProb(fps, res.Mapping); got.Cmp(best) != 0 {
			t.Errorf("seed %d: answer %s has FP %s (reports %g), optimum %s", seed, res.Mapping, got.Text('g', 6), res.Metrics.FailureProb, best.Text('g', 6))
		}
	}
}
