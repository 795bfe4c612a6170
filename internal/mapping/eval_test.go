package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/platform"
)

// randomMasked draws a random valid candidate in boundary representation:
// a random partition of the n stages into intervals and random disjoint
// non-empty replica masks.
func randomMasked(rng *rand.Rand, n, m int) (ends []int, masks []uint64) {
	for start := 0; start < n; {
		end := start + rng.Intn(n-start)
		ends = append(ends, end)
		start = end + 1
	}
	free := make([]int, m)
	for u := range free {
		free[u] = u
	}
	rng.Shuffle(m, func(i, j int) { free[i], free[j] = free[j], free[i] })
	if len(ends) > m {
		// More intervals than processors can never validate; retry with a
		// coarser partition.
		return []int{n - 1}, []uint64{1 << uint(rng.Intn(m))}
	}
	idx := 0
	for range ends {
		remainingIntervals := len(ends) - len(masks) - 1
		maxK := m - idx - remainingIntervals // leave ≥ 1 processor per later interval
		k := 1 + rng.Intn(maxK)
		var mask uint64
		for i := 0; i < k; i++ {
			mask |= 1 << uint(free[idx])
			idx++
		}
		masks = append(masks, mask)
	}
	return ends, masks
}

func testInstances(seed int64) (*pipeline.Pipeline, *platform.Platform, *platform.Platform) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(5)
	m := 1 + rng.Intn(5)
	p := pipeline.Random(rng, n, 1, 10, 0, 10)
	commHom := platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*4)
	het := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
	return p, commHom, het
}

// TestEvaluatorMatchesEvaluate: the masked evaluation at stride 1 must be
// bitwise identical to the public slice-based Evaluate on both platform
// classes.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p, commHom, het := testInstances(seed)
		rng := rand.New(rand.NewSource(seed + 1000))
		for _, pl := range []*platform.Platform{commHom, het} {
			ev, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for trial := 0; trial < 20; trial++ {
				ends, masks := randomMasked(rng, p.NumStages(), pl.NumProcs())
				mp := ev.ToMappingW(ends, masks)
				if err := mp.Validate(p.NumStages(), pl.NumProcs()); err != nil {
					t.Fatalf("seed %d: ToMappingW produced invalid mapping: %v", seed, err)
				}
				want, err := Evaluate(p, pl, mp)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				got := ev.EvalW(ends, masks)
				if got != want {
					t.Fatalf("seed %d trial %d: EvalW = %+v, Evaluate = %+v (mapping %v)",
						seed, trial, got, want, mp)
				}
			}
		}
	}
}

// TestEvaluatorZeroAllocs: the masked hot path at stride 1 — the whole
// candidate and the uint64 kernels — must not allocate.
func TestEvaluatorZeroAllocs(t *testing.T) {
	p := pipeline.MustNew([]float64{1, 100, 3}, []float64{10, 1, 2, 0.5})
	rng := rand.New(rand.NewSource(7))
	commHom := platform.RandomCommHomogeneous(rng, 5, 1, 10, 0.1, 0.9, 2)
	het := platform.RandomFullyHeterogeneous(rng, 5, 1, 10, 0.1, 0.9, 1, 20)
	ends := []int{0, 2}
	masks := []uint64{0b00011, 0b01100}
	for name, pl := range map[string]*platform.Platform{"commhom": commHom, "het": het} {
		ev, err := NewEvaluator(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		var sink Metrics
		if allocs := testing.AllocsPerRun(200, func() {
			sink = ev.EvalW(ends, masks)
		}); allocs != 0 {
			t.Errorf("%s: EvalW allocates %.1f objects per run, want 0", name, allocs)
		}
		var lat float64
		if allocs := testing.AllocsPerRun(200, func() {
			lat = ev.LatencyW(ends, masks)
			lat += ev.FailureProbW(ends, masks)
			lat += ev.TailLatencyLB(1)
			lat += ev.FailureFactor(masks[0])
			lat += ev.IntervalComputeLB(0, 0, masks[0])
		}); allocs != 0 {
			t.Errorf("%s: evaluation helpers allocate %.1f objects per run, want 0", name, allocs)
		}
		_ = sink
		_ = lat
	}
}

// TestEvaluatorTailLBIsLowerBound: the suffix bound never exceeds the
// true latency contribution of any completion.
func TestEvaluatorTailLBIsLowerBound(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		p, commHom, het := testInstances(seed)
		rng := rand.New(rand.NewSource(seed + 2000))
		for _, pl := range []*platform.Platform{commHom, het} {
			ev, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				ends, masks := randomMasked(rng, p.NumStages(), pl.NumProcs())
				lat := ev.LatencyW(ends, masks)
				// The full mapping is a completion of its empty prefix.
				if lb := ev.TailLatencyLB(0); lb > lat*(1+1e-12)+1e-12 {
					t.Fatalf("seed %d: TailLatencyLB(0) = %g exceeds achievable latency %g", seed, lb, lat)
				}
			}
		}
	}
}

func TestNewEvaluatorErrors(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	if _, err := NewEvaluator(&pipeline.Pipeline{}, nil); err == nil {
		t.Error("invalid pipeline accepted")
	}
	big, err := platform.NewFullyHomogeneous(65, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := NewEvaluator(p, big)
	if err != nil {
		t.Errorf("m=65 rejected: %v (wide platforms use the multi-word representation)", err)
	}
	if wide.Stride() != 2 {
		t.Errorf("m=65: Stride() = %d, want 2", wide.Stride())
	}
	ok, err := platform.NewFullyHomogeneous(64, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewEvaluator(p, ok)
	if err != nil {
		t.Errorf("m=64 rejected: %v", err)
	}
	if narrow.Stride() != 1 {
		t.Errorf("m=64: Stride() = %d, want 1", narrow.Stride())
	}
}
