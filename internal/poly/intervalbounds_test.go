package poly

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

func TestIntervalBoundsFig34(t *testing.T) {
	// On the Figures 3-4 instance the shortest general path (S1→P1,
	// S2→P2) never revisits a processor, so the bounds are tight and the
	// repaired mapping is provably optimal: latency 7.
	p := pipeline.MustNew([]float64{2, 2}, []float64{100, 100, 100})
	pl, _ := platform.NewFullyHeterogeneous(
		[]float64{1, 1}, []float64{0, 0},
		[][]float64{{0, 100}, {100, 0}},
		[]float64{100, 1}, []float64{1, 100})
	b, err := IntervalLatencyBounds(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Tight {
		t.Error("bounds should be tight on Fig34")
	}
	if math.Abs(b.Lower-7) > 1e-9 || math.Abs(b.Upper.Metrics.Latency-7) > 1e-9 {
		t.Errorf("bounds (%g, %g), want (7, 7)", b.Lower, b.Upper.Metrics.Latency)
	}
	if err := b.Upper.Mapping.Validate(2, 2); err != nil {
		t.Fatalf("upper mapping invalid: %v", err)
	}
}

// Property: lower ≤ exact interval optimum ≤ upper on random FullyHet
// instances, and the upper mapping is always valid.
func TestIntervalBoundsBracketExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := pipeline.Random(rng, n, 1, 10, 1, 10)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0, 1, 1, 20)
		b, err := IntervalLatencyBounds(p, pl)
		if err != nil {
			return false
		}
		if b.Upper.Mapping.Validate(n, m) != nil {
			return false
		}
		ex, err := exact.MinLatencyInterval(p, pl, exact.Options{})
		if err != nil {
			return false
		}
		opt := ex.Metrics.Latency
		if !(b.Lower <= opt+1e-9 && opt <= b.Upper.Metrics.Latency+1e-9) {
			return false
		}
		// Tight certificate must be truthful.
		if b.Tight && math.Abs(b.Upper.Metrics.Latency-opt) > 1e-6*math.Max(1, opt) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestIntervalBoundsTightnessRate: on a fixed panel, the relaxation is
// tight most of the time — an empirical observation about the open
// problem (E17).
func TestIntervalBoundsTightnessRate(t *testing.T) {
	tight, total := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		m := 2 + rng.Intn(4)
		p := pipeline.Random(rng, n, 1, 10, 1, 10)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0, 1, 1, 20)
		b, err := IntervalLatencyBounds(p, pl)
		if err != nil {
			continue
		}
		total++
		if b.Tight {
			tight++
		}
	}
	if total == 0 {
		t.Skip("no instances")
	}
	if tight*2 < total {
		t.Errorf("relaxation tight on only %d/%d instances; expected a majority", tight, total)
	}
}

func TestRepairHandlesRevisits(t *testing.T) {
	// Force a revisit: processors 0 is overwhelmingly best for stages 1
	// and 3, processor 1 best for stage 2 (comm costs make merging bad).
	p := pipeline.MustNew([]float64{1, 1, 1}, []float64{1, 50, 50, 1})
	// Two fast procs with a fast interlink; the shortest general path may
	// bounce P0→P1→P0. Craft bandwidths so the path revisits.
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{10, 10, 1},
		[]float64{0, 0, 0},
		[][]float64{{0, 100, 1}, {100, 0, 1}, {1, 1, 0}},
		[]float64{100, 0.1, 0.1},
		[]float64{100, 0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	g := &mapping.GeneralMapping{ProcOf: []int{0, 1, 0}}
	repaired := repairToInterval(g, p, pl)
	if repaired == nil {
		t.Fatal("repair failed with a spare processor available")
	}
	if err := repaired.Validate(3, 3); err != nil {
		t.Fatalf("repaired mapping invalid: %v", err)
	}
	// The revisited third run must have been reassigned to the spare P2.
	if got := repaired.Alloc[2][0]; got != 2 {
		t.Errorf("conflicting run reassigned to P%d, want P3", got+1)
	}
}

func TestRepairFailsWithoutSpares(t *testing.T) {
	p := pipeline.MustNew([]float64{1, 1, 1}, []float64{1, 1, 1, 1})
	pl, _ := platform.NewCommHomogeneous([]float64{1, 1}, []float64{0, 0}, 1)
	g := &mapping.GeneralMapping{ProcOf: []int{0, 1, 0}}
	if repaired := repairToInterval(g, p, pl); repaired != nil {
		t.Error("repair succeeded with no spare processor")
	}
	// IntervalLatencyBounds still returns a valid upper bound via the
	// single-processor fallback.
	b, err := IntervalLatencyBounds(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Upper.Mapping.Validate(3, 2); err != nil {
		t.Fatalf("fallback mapping invalid: %v", err)
	}
}

// TestIntervalBoundsSingleFallbackUnchanged: the single-processor
// fallbacks scored on one reused mapping pick the processor, and give the
// bounds, that m fresh NewSingleInterval + LatencyEq2 calls give, bitwise.
func TestIntervalBoundsSingleFallbackUnchanged(t *testing.T) {
	for _, m := range []int{3, 8, 70} {
		rng := rand.New(rand.NewSource(int64(m)))
		for trial := 0; trial < 20; trial++ {
			p := pipeline.Random(rng, 1+rng.Intn(8), 1, 10, 1, 10)
			pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.01, 0.2, 1, 10)
			b, err := IntervalLatencyBounds(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			best, bestLat := -1, math.Inf(1)
			for u := 0; u < m; u++ {
				lat, err := mapping.LatencyEq2(p, pl, mapping.NewSingleInterval(p.NumStages(), []int{u}))
				if err == nil && lat < bestLat {
					best, bestLat = u, lat
				}
			}
			want := mapping.NewSingleInterval(p.NumStages(), []int{best})
			wantMet, err := mapping.Evaluate(p, pl, want)
			if err != nil {
				t.Fatal(err)
			}
			gen := MinLatencyGeneral(p, pl)
			if repaired := repairToInterval(gen.Mapping, p, pl); repaired != nil {
				if met, err := mapping.Evaluate(p, pl, repaired); err == nil && met.Latency < wantMet.Latency {
					want, wantMet = repaired, met
				}
			}
			if b.Upper.Metrics != wantMet || b.Upper.Mapping.String() != want.String() || b.Lower != gen.Latency {
				t.Fatalf("m=%d trial %d: bounds (%v, %v %v), want (%v, %v %v)", m, trial,
					b.Lower, b.Upper.Mapping, b.Upper.Metrics, gen.Latency, want, wantMet)
			}
		}
	}
}

// TestIntervalBoundsAllocsFlatInM: the m single-processor fallbacks cost
// no allocation, so a call allocates the same at every platform width.
func TestIntervalBoundsAllocsFlatInM(t *testing.T) {
	allocs := make(map[int]float64)
	for _, m := range []int{8, 70, 300} {
		rng := rand.New(rand.NewSource(int64(m)))
		p := pipeline.Random(rng, 12, 1, 10, 1, 10)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.01, 0.2, 1, 10)
		allocs[m] = testing.AllocsPerRun(10, func() {
			if _, err := IntervalLatencyBounds(p, pl); err != nil {
				t.Fatal(err)
			}
		})
	}
	if allocs[70] != allocs[8] || allocs[300] != allocs[8] {
		t.Errorf("IntervalLatencyBounds allocs/op by m: %v, want the same at every m", allocs)
	}
}
