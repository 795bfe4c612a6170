package poly

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

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

func TestMinFailureProbUsesEveryProcessor(t *testing.T) {
	p, pl := fig5()
	res, err := MinFailureProb(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mapping.UsedProcs()); got != pl.NumProcs() {
		t.Errorf("used %d processors, want all %d", got, pl.NumProcs())
	}
	want := 0.1 * math.Pow(0.8, 10)
	if math.Abs(res.Metrics.FailureProb-want) > 1e-12 {
		t.Errorf("FP = %g, want %g", res.Metrics.FailureProb, want)
	}
}

// Property (Theorem 1): no random interval mapping beats full replication.
func TestMinFailureProbOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + rng.Intn(5)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 5, 0.05, 0.95, 1)
		res, err := MinFailureProb(p, pl)
		if err != nil {
			return false
		}
		other := randomIntervalMapping(rng, n, m)
		fp := mapping.FailureProb(pl, other)
		return res.Metrics.FailureProb <= fp+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinLatencyCommHomPicksFastest(t *testing.T) {
	p, pl := fig5()
	res, err := MinLatencyCommHom(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	used := res.Mapping.UsedProcs()
	if len(used) != 1 || pl.Speed[used[0]] != 100 {
		t.Errorf("expected one fastest processor, got %v", res.Mapping)
	}
	// Latency: δ0/b + (1+100)/100 + δ2/b = 10 + 1.01 + 0 = 11.01.
	if math.Abs(res.Metrics.Latency-11.01) > 1e-9 {
		t.Errorf("latency = %g, want 11.01", res.Metrics.Latency)
	}
}

func TestMinLatencyCommHomWrongClass(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	pl, _ := platform.NewFullyHeterogeneous(
		[]float64{1, 1}, []float64{0, 0},
		[][]float64{{0, 1}, {1, 0}}, []float64{1, 2}, []float64{1, 1})
	if _, err := MinLatencyCommHom(p, pl); !errors.Is(err, ErrWrongClass) {
		t.Errorf("err = %v, want ErrWrongClass", err)
	}
}

// Property (Theorem 2): no random interval mapping on a CommHom platform
// beats the fastest-single-processor latency.
func TestMinLatencyCommHomOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + rng.Intn(5)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 5, 0, 1, 1+9*rng.Float64())
		res, err := MinLatencyCommHom(p, pl)
		if err != nil {
			return false
		}
		other := randomIntervalMapping(rng, n, m)
		lat, err := mapping.Latency(p, pl, other)
		if err != nil {
			return false
		}
		return res.Metrics.Latency <= lat+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinLatencyGeneralConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := pipeline.Random(rng, 6, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, 5, 1, 10, 0, 1, 1, 50)
	res := MinLatencyGeneral(p, pl)
	lat, err := res.Mapping.Latency(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-res.Latency) > 1e-9 {
		t.Errorf("reported latency %g but mapping evaluates to %g", res.Latency, lat)
	}
}

func TestAlgorithm1HandComputed(t *testing.T) {
	// n=2, W=Σ2, δ0=δn=4, b=2, s=1, fp=0.5, m=5.
	// Latency(k) = 2k + 2 + 2 = 2k + 4. L=11 → k=3. FP = 0.5³ = 0.125.
	p := pipeline.MustNew([]float64{1, 1}, []float64{4, 9, 4})
	pl, _ := platform.NewFullyHomogeneous(5, 1, 2, 0.5)
	res, err := Algorithm1(p, pl, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mapping.UsedProcs()); got != 3 {
		t.Errorf("k = %d, want 3", got)
	}
	if math.Abs(res.Metrics.FailureProb-0.125) > 1e-12 {
		t.Errorf("FP = %g, want 0.125", res.Metrics.FailureProb)
	}
	if !mapping.LatencyWithin(res.Metrics.Latency, 11) {
		t.Errorf("latency %g exceeds threshold 11", res.Metrics.Latency)
	}
	// Exactly achievable threshold: L = 14 → k = 5 (all processors).
	res, err = Algorithm1(p, pl, 14)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mapping.UsedProcs()); got != 5 {
		t.Errorf("k = %d, want 5 at L=14", got)
	}
	// Infeasible: even k=1 costs 6.
	if _, err = Algorithm1(p, pl, 5.9); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestAlgorithm1HeterogeneousFailures(t *testing.T) {
	// Paper remark: with fully homogeneous speed/links but different fp,
	// the k most reliable processors are selected.
	p := pipeline.MustNew([]float64{2}, []float64{2, 2})
	speeds := []float64{1, 1, 1, 1}
	fps := []float64{0.9, 0.2, 0.5, 0.4}
	pl, err := platform.NewCommHomogeneous(speeds, fps, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Latency(k) = 2k + 2 + 2; L=8 → k=2 → procs with fp 0.2 and 0.4.
	res, err := Algorithm1(p, pl, 8)
	if err != nil {
		t.Fatal(err)
	}
	used := res.Mapping.UsedProcs()
	if len(used) != 2 || used[0] != 1 || used[1] != 3 {
		t.Errorf("used = %v, want [1 3] (the two most reliable)", used)
	}
	if math.Abs(res.Metrics.FailureProb-0.08) > 1e-12 {
		t.Errorf("FP = %g, want 0.08", res.Metrics.FailureProb)
	}
}

func TestAlgorithm1WrongClass(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	pl, _ := platform.NewCommHomogeneous([]float64{1, 2}, []float64{0.1, 0.1}, 1)
	if _, err := Algorithm1(p, pl, 100); !errors.Is(err, ErrWrongClass) {
		t.Errorf("err = %v, want ErrWrongClass (heterogeneous speeds)", err)
	}
}

func TestAlgorithm2HandComputed(t *testing.T) {
	p := pipeline.MustNew([]float64{1, 1}, []float64{4, 9, 4})
	pl, _ := platform.NewFullyHomogeneous(5, 1, 2, 0.5)
	// fp^k ≤ 0.2 → k=3 (0.125). Latency = 2·3+4 = 10.
	res, err := Algorithm2(p, pl, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mapping.UsedProcs()); got != 3 {
		t.Errorf("k = %d, want 3", got)
	}
	if res.Metrics.Latency != 10 {
		t.Errorf("latency = %g, want 10", res.Metrics.Latency)
	}
	// Infeasible: 0.5^5 = 0.03125 > 0.01.
	if _, err := Algorithm2(p, pl, 0.01); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	// FP threshold 1 is always feasible with one replica.
	res, err = Algorithm2(p, pl, 1)
	if err != nil || len(res.Mapping.UsedProcs()) != 1 {
		t.Errorf("FP=1 should give k=1, got %v, %v", res, err)
	}
}

func TestAlgorithm3Fig5SingleIntervalBound(t *testing.T) {
	// On the Figure-5 platform restricted to the ten identical fast
	// processors (FailureHom), L=22 admits k=2 (latency 21.01) but not
	// k=3 (31.01).
	p := pipeline.MustNew([]float64{1, 100}, []float64{10, 1, 0})
	speeds := make([]float64, 10)
	fps := make([]float64, 10)
	for i := range speeds {
		speeds[i] = 100
		fps[i] = 0.8
	}
	pl, _ := platform.NewCommHomogeneous(speeds, fps, 1)
	res, err := Algorithm3(p, pl, 22)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mapping.UsedProcs()); got != 2 {
		t.Errorf("k = %d, want 2", got)
	}
	if math.Abs(res.Metrics.FailureProb-0.64) > 1e-12 {
		t.Errorf("FP = %g, want 0.64", res.Metrics.FailureProb)
	}
}

func TestAlgorithm3UsesFastestAndSlowestUsedSpeed(t *testing.T) {
	// Speeds 4,3,2,1; fp=0.5; b=1; W=6; δ0=1, δn=1.
	// k=1: 1+6/4+1 = 3.5 ; k=2: 2+6/3+1 = 5 ; k=3: 3+6/2+1 = 7 ;
	// k=4: 4+6/1+1 = 11.
	p := pipeline.MustNew([]float64{6}, []float64{1, 1})
	pl, _ := platform.NewCommHomogeneous([]float64{4, 3, 2, 1}, []float64{0.5, 0.5, 0.5, 0.5}, 1)
	res, err := Algorithm3(p, pl, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mapping.UsedProcs()); got != 3 {
		t.Errorf("k = %d, want 3 at L=7", got)
	}
	if res.Metrics.Latency != 7 {
		t.Errorf("latency = %g, want exactly 7", res.Metrics.Latency)
	}
	used := res.Mapping.UsedProcs()
	want := []int{0, 1, 2}
	for i := range want {
		if used[i] != want[i] {
			t.Fatalf("used = %v, want the three fastest %v", used, want)
		}
	}
	if _, err := Algorithm3(p, pl, 3.4); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestAlgorithm3WrongClass(t *testing.T) {
	p, pl := fig5() // Failure Heterogeneous
	if _, err := Algorithm3(p, pl, 100); !errors.Is(err, ErrWrongClass) {
		t.Errorf("err = %v, want ErrWrongClass", err)
	}
}

func TestAlgorithm4HandComputed(t *testing.T) {
	p := pipeline.MustNew([]float64{6}, []float64{1, 1})
	pl, _ := platform.NewCommHomogeneous([]float64{4, 3, 2, 1}, []float64{0.5, 0.5, 0.5, 0.5}, 1)
	// fp^k ≤ 0.2 → k=3; latency = 3 + 6/2 + 1 = 7 on the 3 fastest.
	res, err := Algorithm4(p, pl, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Mapping.UsedProcs()); got != 3 {
		t.Errorf("k = %d, want 3", got)
	}
	if res.Metrics.Latency != 7 {
		t.Errorf("latency = %g, want 7", res.Metrics.Latency)
	}
	if _, err := Algorithm4(p, pl, 0.05); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible (0.5^4 = 0.0625 > 0.05)", err)
	}
}

func TestAlgorithm4WrongClass(t *testing.T) {
	p, pl := fig5()
	if _, err := Algorithm4(p, pl, 0.5); !errors.Is(err, ErrWrongClass) {
		t.Errorf("err = %v, want ErrWrongClass", err)
	}
}

// Property: Algorithm 1's answer satisfies the threshold and beats every
// single-interval subset choice (which, by Lemma 1, is the optimal shape).
func TestAlgorithm1OptimalAgainstSubsets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(6)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		fps := make([]float64, m)
		speeds := make([]float64, m)
		for i := range fps {
			fps[i] = rng.Float64()
			speeds[i] = 3
		}
		pl, err := platform.NewCommHomogeneous(speeds, fps, 2)
		if err != nil {
			return false
		}
		L := 1 + rng.Float64()*20
		res, err := Algorithm1(p, pl, L)
		bestFP, feasible := bestSingleIntervalFP(p, pl, L)
		if errors.Is(err, ErrInfeasible) {
			return !feasible
		}
		if err != nil {
			return false
		}
		return mapping.LatencyWithin(res.Metrics.Latency, L) && res.Metrics.FailureProb <= bestFP+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// bestSingleIntervalFP enumerates all non-empty processor subsets for a
// whole-pipeline single interval and returns the best feasible FP.
func bestSingleIntervalFP(p *pipeline.Pipeline, pl *platform.Platform, L float64) (float64, bool) {
	m := pl.NumProcs()
	best := math.Inf(1)
	feasible := false
	for mask := 1; mask < 1<<m; mask++ {
		var procs []int
		for u := 0; u < m; u++ {
			if mask&(1<<u) != 0 {
				procs = append(procs, u)
			}
		}
		mp := mapping.NewSingleInterval(p.NumStages(), procs)
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			continue
		}
		if mapping.LatencyWithin(met.Latency, L) {
			feasible = true
			if met.FailureProb < best {
				best = met.FailureProb
			}
		}
	}
	return best, feasible
}

// Property: Lemma 1's transformation never worsens either criterion on the
// platform classes where it applies.
func TestLemma1TransformProperty(t *testing.T) {
	f := func(seed int64, fullyHom bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + rng.Intn(5)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		var pl *platform.Platform
		if fullyHom {
			// Fully homogeneous speed/links, heterogeneous failures
			// (the lemma's most general homogeneous setting).
			fps := make([]float64, m)
			speeds := make([]float64, m)
			for i := range fps {
				fps[i] = rng.Float64()
				speeds[i] = 2
			}
			pl, _ = platform.NewCommHomogeneous(speeds, fps, 3)
		} else {
			// CommHom speeds + FailureHom.
			fps := make([]float64, m)
			speeds := make([]float64, m)
			fp := rng.Float64()
			for i := range fps {
				fps[i] = fp
				speeds[i] = 1 + rng.Float64()*9
			}
			pl, _ = platform.NewCommHomogeneous(speeds, fps, 3)
		}
		orig := randomIntervalMapping(rng, n, m)
		origMet, err := mapping.Evaluate(p, pl, orig)
		if err != nil {
			return false
		}
		single, err := Lemma1Transform(p, pl, orig)
		if err != nil {
			return false
		}
		newMet, err := mapping.Evaluate(p, pl, single)
		if err != nil {
			return false
		}
		return newMet.Latency <= origMet.Latency+1e-9 &&
			newMet.FailureProb <= origMet.FailureProb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestLemma1TransformWrongClass(t *testing.T) {
	p, pl := fig5() // CommHom + FailureHet: lemma does not apply
	m := mapping.NewSingleInterval(2, []int{0})
	if _, err := Lemma1Transform(p, pl, m); !errors.Is(err, ErrWrongClass) {
		t.Errorf("err = %v, want ErrWrongClass", err)
	}
	bad := &mapping.Mapping{Intervals: []mapping.Interval{{First: 0, Last: 0}}, Alloc: [][]int{{0}}}
	if _, err := Lemma1Transform(p, pl, bad); err == nil {
		t.Error("invalid mapping accepted")
	}
}

// randomIntervalMapping builds a random valid interval mapping (same
// helper as in package mapping's tests; duplicated to avoid exporting test
// internals).
func randomIntervalMapping(rng *rand.Rand, n, m int) *mapping.Mapping {
	pCount := 1 + rng.Intn(minInt(n, m))
	bounds := rng.Perm(n - 1)[:pCount-1]
	sortInts(bounds)
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
	alloc := make([][]int, pCount)
	for j := 0; j < pCount; j++ {
		alloc[j] = []int{procs[j]}
	}
	for _, u := range procs[pCount:] {
		if rng.Float64() < 0.5 {
			j := rng.Intn(pCount)
			alloc[j] = append(alloc[j], u)
		}
	}
	mp.Alloc = alloc
	return mp
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
