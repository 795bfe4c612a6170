package exact

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Property: the parallel enumeration produces exactly the sequential
// Pareto front (same metric sequence) on random instances, regardless of
// worker count.
func TestParetoFrontParallelMatchesSequential(t *testing.T) {
	f := func(seed int64, workersRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		workers := 1 + int(workersRaw%7)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)

		seq, err := ParetoFront(p, pl, Options{Workers: 1})
		if err != nil {
			return false
		}
		par, err := ParetoFront(p, pl, Options{Workers: workers})
		if err != nil {
			return false
		}
		if len(seq) != len(par) {
			return false
		}
		for i := range seq {
			a, b := seq[i].Metrics, par[i].Metrics
			if math.Abs(a.Latency-b.Latency) > 1e-9 || math.Abs(a.FailureProb-b.FailureProb) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestParetoFrontParallelFig5(t *testing.T) {
	p, pl := workload.Fig5()
	front, err := ParetoFront(p, pl, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The front must contain the paper's two-interval optimum: FP ≈
	// 0.196637 at latency 22.
	want := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	found := false
	for _, r := range front {
		if math.Abs(r.Metrics.Latency-22) < 1e-9 && math.Abs(r.Metrics.FailureProb-want) < 1e-9 {
			found = true
		}
		// Every front mapping must be valid and reproduce its metrics.
		if err := r.Mapping.Validate(2, 11); err != nil {
			t.Fatalf("front mapping invalid: %v", err)
		}
	}
	if !found {
		t.Error("parallel front misses the Figure 5 optimum")
	}
}

func TestParetoFrontParallelErrors(t *testing.T) {
	// Beyond the bitmask engine's replication limit (m ≤ 62; it previously
	// stopped at 30) the slice fallback enumerates until the budget trips.
	pl, _ := platform.NewFullyHomogeneous(63, 1, 1, 0.5)
	p := pipeline.Uniform(2, 1, 1)
	if _, err := ParetoFront(p, pl, Options{MaxEnum: 1000, Workers: 2}); err == nil {
		t.Error("m=63 with a tiny budget did not report an error")
	}
	if _, err := ParetoFront(&pipeline.Pipeline{}, pl, Options{MaxEnum: 1000, Workers: 2}); err == nil {
		t.Error("empty pipeline accepted")
	}
	// A big-but-supported m trips the enumeration budget instead of
	// running forever.
	pl31, _ := platform.NewFullyHomogeneous(31, 1, 1, 0.5)
	if _, err := ParetoFront(p, pl31, Options{MaxEnum: 1000, Workers: 2}); err == nil {
		t.Error("m=31 with a tiny budget did not report ErrBudget")
	}
}

func TestParetoFrontParallelDefaultWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := pipeline.Random(rng, 2, 1, 5, 1, 5)
	pl := platform.RandomCommHomogeneous(rng, 3, 1, 5, 0.1, 0.9, 2)
	if _, err := ParetoFront(p, pl, Options{Workers: 0}); err != nil {
		t.Fatalf("default workers: %v", err)
	}
}
