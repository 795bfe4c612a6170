package mapping

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// randomWideMapping builds a valid interval mapping of n stages on m
// processors whose replica sets are drawn from the full width (so ids
// ≥ 64 actually occur for m > 64).
func randomWideMapping(rng *rand.Rand, n, m int) *Mapping {
	p := 1 + rng.Intn(n)
	if p > m {
		p = m
	}
	// Interval boundaries: choose p-1 cut points.
	cuts := rng.Perm(n - 1)[:p-1]
	bounds := append([]int{}, cuts...)
	bounds = append(bounds, n-1)
	sortInts(bounds)
	// Disjoint replica sets over a shuffled processor order.
	procs := rng.Perm(m)
	mp := &Mapping{}
	first := 0
	used := 0
	for j := 0; j < p; j++ {
		k := 1 + rng.Intn(3)
		if rem := m - used - (p - 1 - j); k > rem {
			k = rem
		}
		alloc := append([]int(nil), procs[used:used+k]...)
		sortInts(alloc)
		used += k
		mp.Intervals = append(mp.Intervals, Interval{First: first, Last: bounds[j]})
		mp.Alloc = append(mp.Alloc, alloc)
		first = bounds[j] + 1
	}
	return mp
}

// TestWideEvalMatchesSliceReference: on platforms wider than 64
// processors, EvalW / EvaluateMapping must be bitwise identical to the
// slice-based Evaluate, on both platform classes.
func TestWideEvalMatchesSliceReference(t *testing.T) {
	for _, m := range []int{65, 80, 128, 130} {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed + int64(m)*1000))
			n := 1 + rng.Intn(6)
			p := pipeline.Random(rng, n, 1, 10, 0, 10)
			var pl *platform.Platform
			if seed%2 == 0 {
				pl = platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 2)
			} else {
				pl = platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
			}
			ev, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 20; trial++ {
				mp := randomWideMapping(rng, n, m)
				want, err := Evaluate(p, pl, mp)
				if err != nil {
					t.Fatalf("m=%d seed=%d: reference rejects generated mapping: %v", m, seed, err)
				}
				got, err := ev.EvaluateMapping(mp)
				if err != nil {
					t.Fatalf("m=%d seed=%d: EvaluateMapping: %v", m, seed, err)
				}
				if got != want {
					t.Fatalf("m=%d seed=%d: wide metrics %+v, slice reference %+v (mapping %s)",
						m, seed, got, want, mp)
				}
				ends, words := BoundaryRepWide(mp, ev.Stride())
				if direct := ev.EvalW(ends, words); direct != want {
					t.Fatalf("m=%d seed=%d: EvalW %+v, reference %+v", m, seed, direct, want)
				}
			}
		}
	}
}

// TestStrideOneEvalMatchesSliceReference: on platforms of at most 64
// processors, where a replica set is one word, EvaluateMapping and EvalW
// must be bitwise identical to the slice-based Evaluate.
func TestStrideOneEvalMatchesSliceReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(5), 1+rng.Intn(8)
		if seed%10 == 9 {
			m = 64 // ids up to bit 63 of the one word
		}
		p := pipeline.Random(rng, n, 1, 10, 0, 10)
		var pl *platform.Platform
		if seed%2 == 0 {
			pl = platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 2)
		} else {
			pl = platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
		}
		ev, err := NewEvaluator(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Stride() != 1 {
			t.Fatalf("m=%d: stride %d, want 1", m, ev.Stride())
		}
		mp := randomWideMapping(rng, n, m)
		want, err := Evaluate(p, pl, mp)
		if err != nil {
			t.Fatalf("seed %d: reference rejects generated mapping: %v", seed, err)
		}
		got, err := ev.EvaluateMapping(mp)
		if err != nil || got != want {
			t.Fatalf("seed %d: EvaluateMapping %+v (err %v), slice reference %+v on %s", seed, got, err, want, mp)
		}
		ends, words := BoundaryRepWide(mp, 1)
		if direct := ev.EvalW(ends, words); direct != want {
			t.Fatalf("seed %d: EvalW %+v, slice reference %+v on %s", seed, direct, want, mp)
		}
	}
}

// TestWideEvalZeroAllocs: the wide masked hot path must not allocate.
func TestWideEvalZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, m := 4, 80
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	for _, commHom := range []bool{true, false} {
		var pl *platform.Platform
		if commHom {
			pl = platform.RandomCommHomogeneous(rng, m, 1, 10, 0.1, 0.9, 2)
		} else {
			pl = platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.1, 0.9, 1, 20)
		}
		ev, err := NewEvaluator(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		mp := randomWideMapping(rng, n, m)
		ends, words := BoundaryRepWide(mp, ev.Stride())
		row := Row(words, ev.Stride(), 0)
		var sink float64
		allocs := testing.AllocsPerRun(200, func() {
			met := ev.EvalW(ends, words)
			sink += met.Latency + met.FailureProb
			sink += ev.FailureFactorW(row) + ev.MinSpeedW(row)
			sink += ev.IntervalComputeLBW(0, ends[0], row)
		})
		if allocs != 0 {
			t.Errorf("commHom=%v: wide evaluation allocates %.1f objects per run, want 0", commHom, allocs)
		}
		_ = sink
	}
}

// TestRowAndBoundaryRepWide: the flat representation round-trips through
// ToMappingW.
func TestRowAndBoundaryRepWide(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 5, 100
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	pl := platform.RandomCommHomogeneous(rng, m, 1, 10, 0.1, 0.9, 2)
	ev, err := NewEvaluator(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		mp := randomWideMapping(rng, n, m)
		ends, words := BoundaryRepWide(mp, ev.Stride())
		back := ev.ToMappingW(ends, words)
		if back.String() != mp.String() {
			t.Fatalf("round trip changed the mapping: %s vs %s", back, mp)
		}
		for j := range ends {
			row := Row(words, ev.Stride(), j)
			if row.Count() != len(mp.Alloc[j]) {
				t.Fatalf("row %d has %d bits, want %d", j, row.Count(), len(mp.Alloc[j]))
			}
			for _, u := range mp.Alloc[j] {
				if !bitset.Set(row).Test(u) {
					t.Fatalf("row %d missing processor %d", j, u)
				}
			}
		}
	}
}
