package exact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/frontier"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// Reference implementations: the original unpruned slice-based solvers on
// ForEachMapping, against which the bitmask engine is property-tested.

func refMinLatency(p *pipeline.Pipeline, pl *platform.Platform, opts Options) (Result, error) {
	return minLatencyIntervalWide(p, pl, opts)
}

func refMinFPUnderLatency(p *pipeline.Pipeline, pl *platform.Platform, maxLatency float64, opts Options) (Result, error) {
	opts.Replication = true
	return minFPUnderLatencyWide(p, pl, maxLatency, opts)
}

func refMinLatencyUnderFP(p *pipeline.Pipeline, pl *platform.Platform, maxFP float64, opts Options) (Result, error) {
	opts.Replication = true
	return minLatencyUnderFPWide(p, pl, maxFP, opts)
}

func refParetoFront(p *pipeline.Pipeline, pl *platform.Platform, opts Options) ([]Result, error) {
	opts.Replication = true
	return paretoFrontWide(p, pl, opts)
}

func randomInstance(seed int64) (*pipeline.Pipeline, *platform.Platform) {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(6)
	m := 1 + rng.Intn(5)
	p := pipeline.Random(rng, n, 1, 10, 0, 10)
	if rng.Intn(2) == 0 {
		return p, platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*4)
	}
	return p, platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
}

// canonicalKey encodes a mapping's boundary representation for set
// comparison.
func canonicalKey(mp *mapping.Mapping) string {
	key := ""
	for j, iv := range mp.Intervals {
		var mask uint64
		for _, u := range mp.Alloc[j] {
			mask |= 1 << uint(u)
		}
		key += fmt.Sprintf("%d:%x;", iv.Last, mask)
	}
	return key
}

// TestMaskedEnumerationVisitsSameSet: ForEachMappingParallel must visit
// exactly the mapping set of the reference ForEachMapping, for both
// replication settings and several worker counts.
func TestMaskedEnumerationVisitsSameSet(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		for _, repl := range []bool{false, true} {
			want := map[string]int{}
			err := ForEachMapping(n, m, Options{Replication: repl}, func(mp *mapping.Mapping) bool {
				want[canonicalKey(mp)]++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				got := make([]map[string]int, workers)
				err := ForEachMappingParallel(n, m, Options{Replication: repl, Workers: workers},
					func(w int) func(int64, *mapping.Mapping) bool {
						got[w] = map[string]int{}
						return func(_ int64, mp *mapping.Mapping) bool {
							if err := mp.Validate(n, m); err != nil {
								t.Errorf("invalid enumerated mapping: %v", err)
							}
							got[w][canonicalKey(mp)]++
							return true
						}
					})
				if err != nil {
					t.Fatal(err)
				}
				merged := map[string]int{}
				for _, g := range got {
					if g == nil {
						continue
					}
					for k, c := range g {
						merged[k] += c
					}
				}
				if len(merged) != len(want) {
					t.Fatalf("n=%d m=%d repl=%v workers=%d: visited %d distinct mappings, want %d",
						n, m, repl, workers, len(merged), len(want))
				}
				for k, c := range want {
					if merged[k] != c {
						t.Fatalf("n=%d m=%d repl=%v: mapping %s visited %d times, want %d", n, m, repl, k, merged[k], c)
					}
				}
			}
		}
	}
}

// TestSolversMatchReference: all four solvers must return bitwise-identical
// metrics to the unpruned reference on randomized instances, for both a
// sequential and a parallel worker count.
func TestSolversMatchReference(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		p, pl := randomInstance(seed)
		rng := rand.New(rand.NewSource(seed + 500))
		L := 1 + rng.Float64()*40
		F := rng.Float64()

		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers}

			got, gotErr := MinLatencyInterval(p, pl, opts)
			want, wantErr := refMinLatency(p, pl, Options{})
			checkSame(t, seed, "MinLatencyInterval", got, gotErr, want, wantErr, func(a, b mapping.Metrics) bool {
				return a.Latency == b.Latency
			})

			got, gotErr = MinFPUnderLatency(p, pl, L, opts)
			want, wantErr = refMinFPUnderLatency(p, pl, L, Options{})
			checkSame(t, seed, "MinFPUnderLatency", got, gotErr, want, wantErr, func(a, b mapping.Metrics) bool {
				return a == b
			})

			got, gotErr = MinLatencyUnderFP(p, pl, F, opts)
			want, wantErr = refMinLatencyUnderFP(p, pl, F, Options{})
			checkSame(t, seed, "MinLatencyUnderFP", got, gotErr, want, wantErr, func(a, b mapping.Metrics) bool {
				return a == b
			})
		}
	}
}

func checkSame(t *testing.T, seed int64, name string, got Result, gotErr error, want Result, wantErr error, eq func(a, b mapping.Metrics) bool) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("seed %d %s: err = %v, reference err = %v", seed, name, gotErr, wantErr)
	}
	if gotErr != nil {
		if !errors.Is(gotErr, ErrInfeasible) || !errors.Is(wantErr, ErrInfeasible) {
			t.Fatalf("seed %d %s: unexpected errors %v / %v", seed, name, gotErr, wantErr)
		}
		return
	}
	if !eq(got.Metrics, want.Metrics) {
		t.Fatalf("seed %d %s: metrics %+v, reference %+v", seed, name, got.Metrics, want.Metrics)
	}
}

// TestParetoFrontMatchesReference: the engine's front must equal the
// reference front's metric sequence bitwise, for every worker count.
func TestParetoFrontMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		p, pl := randomInstance(seed)
		want, err := refParetoFront(p, pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := ParetoFront(p, pl, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d workers %d: front size %d, reference %d", seed, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Metrics != want[i].Metrics {
					t.Fatalf("seed %d workers %d: front[%d] = %+v, reference %+v",
						seed, workers, i, got[i].Metrics, want[i].Metrics)
				}
				if err := got[i].Mapping.Validate(p.NumStages(), pl.NumProcs()); err != nil {
					t.Fatalf("seed %d: invalid front mapping: %v", seed, err)
				}
				met, err := mapping.Evaluate(p, pl, got[i].Mapping)
				if err != nil || met != got[i].Metrics {
					t.Fatalf("seed %d: front mapping does not reproduce its metrics (%v, %v)", seed, met, err)
				}
			}
		}
	}
}

// TestSolverDeterminism: repeated parallel runs return the identical
// mapping, not just identical metrics.
func TestSolverDeterminism(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p, pl := randomInstance(seed)
		first, err := MinLatencyUnderFP(p, pl, 0.9, Options{Workers: 4})
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			again, err := MinLatencyUnderFP(p, pl, 0.9, Options{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if again.Mapping.String() != first.Mapping.String() {
				t.Fatalf("seed %d: nondeterministic result: %s vs %s", seed, again.Mapping, first.Mapping)
			}
		}
	}
}

// TestSolverBudget: the shared budget aborts the parallel enumeration
// with ErrBudget.
func TestSolverBudget(t *testing.T) {
	p := pipeline.Uniform(5, 1, 1)
	pl, _ := platform.NewFullyHomogeneous(5, 1, 1, 0.5)
	if _, err := MinFPUnderLatency(p, pl, math.Inf(1), Options{MaxEnum: 3}); !errors.Is(err, ErrBudget) {
		t.Errorf("MinFPUnderLatency err = %v, want ErrBudget", err)
	}
	if err := ForEachMappingParallel(4, 4, Options{Replication: true, MaxEnum: 3},
		func(int) func(int64, *mapping.Mapping) bool {
			return func(int64, *mapping.Mapping) bool { return true }
		}); !errors.Is(err, ErrBudget) {
		t.Errorf("ForEachMappingParallel err = %v, want ErrBudget", err)
	}
}

// TestEngineBudgetAllowsLargerInstances: branch-and-bound pruning lets a
// budget that full enumeration would blow through complete successfully.
func TestEngineBudgetAllowsLargerInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := pipeline.Random(rng, 4, 1, 10, 1, 10)
	pl := platform.RandomCommHomogeneous(rng, 6, 1, 10, 0.1, 0.9, 2)
	// Count the full space first.
	total := int64(0)
	if err := ForEachMapping(4, 6, Options{Replication: true, MaxEnum: math.MaxInt64}, func(*mapping.Mapping) bool {
		total++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	budget := total / 4
	if _, err := MinLatencyUnderFP(p, pl, 0.5, Options{MaxEnum: budget}); err != nil {
		t.Fatalf("pruned search exceeded a budget of %d (full space %d): %v", budget, total, err)
	}
}

// TestForEachMappingParallelEarlyStop: a visitor returning false stops the
// whole enumeration without error.
func TestForEachMappingParallelEarlyStop(t *testing.T) {
	count := 0
	err := ForEachMappingParallel(3, 3, Options{Workers: 1}, func(int) func(int64, *mapping.Mapping) bool {
		return func(int64, *mapping.Mapping) bool {
			count++
			return count < 3
		}
	})
	if err != nil {
		t.Fatalf("early stop returned error: %v", err)
	}
	if count != 3 {
		t.Errorf("visited %d mappings after stop, want 3", count)
	}
}

// TestEnumerationZeroAllocs: the engine's inner loop — enumeration plus
// evaluation, with no survivors recorded — must not allocate per node.
func TestEnumerationZeroAllocs(t *testing.T) {
	p := pipeline.MustNew([]float64{2, 5, 3}, []float64{1, 2, 1, 1})
	rng := rand.New(rand.NewSource(11))
	pl := platform.RandomCommHomogeneous(rng, 4, 1, 10, 0.1, 0.9, 2)
	ev, err := mapping.NewEvaluator(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newEngine(ev, p.NumStages(), pl.NumProcs(), Options{Replication: true})
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	visit := func(int64, []int, []uint64, mapping.Metrics) bool {
		visited++
		return true
	}
	// One warm-up pass (worker scratch is allocated per run), then assert
	// the per-mapping cost: re-running the whole enumeration must spend a
	// small constant number of allocations (the worker's scratch slices),
	// far below one per visited mapping.
	if err := g.run(1, func(int) (pruneFunc, visitFunc) { return nil, visit }); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		g2, err := newEngine(ev, p.NumStages(), pl.NumProcs(), Options{Replication: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.run(1, func(int) (pruneFunc, visitFunc) { return nil, visit }); err != nil {
			t.Fatal(err)
		}
	})
	if visited == 0 {
		t.Fatal("no mappings visited")
	}
	// engine struct + 4 scratch slices + closures: anything linear in the
	// visited count would be hundreds of allocations.
	if perRun > 12 {
		t.Errorf("enumeration allocates %.1f objects per full run, want a small constant (scratch only)", perRun)
	}
}

// TestFrontDominatesPointAgainstFront checks the pruning query the Pareto
// solver relies on.
func TestFrontDominatesPointAgainstFront(t *testing.T) {
	f := &frontier.Front{}
	f.Insert(mapping.Metrics{Latency: 1, FailureProb: 0.9}, nil)
	f.Insert(mapping.Metrics{Latency: 2, FailureProb: 0.5}, nil)
	f.Insert(mapping.Metrics{Latency: 4, FailureProb: 0.1}, nil)
	cases := []struct {
		lat, fp float64
		want    bool
	}{
		{0.5, 0.95, false}, // cheaper than everything on the front
		{1, 0.9, true},     // equal to an entry
		{3, 0.6, true},     // dominated by (2, 0.5)
		{3, 0.4, false},    // better FP than anything at ≤ 3
		{5, 0.05, false},   // better FP than the whole front
		{5, 0.2, true},     // dominated by (4, 0.1)
	}
	for _, c := range cases {
		if got := f.DominatesPoint(c.lat, c.fp); got != c.want {
			t.Errorf("DominatesPoint(%g, %g) = %v, want %v", c.lat, c.fp, got, c.want)
		}
	}
}

// TestParetoRepresentativesDeterministic: on a tie-heavy homogeneous
// platform (any equal-size replica set gives identical metrics), the
// representative mapping of every front point must be identical across
// worker counts — the lowest-task candidate wins, not whichever worker
// inserted first.
func TestParetoRepresentativesDeterministic(t *testing.T) {
	p := pipeline.Uniform(3, 2, 1)
	pl, _ := platform.NewFullyHomogeneous(4, 1, 1, 0.5)
	want, err := ParetoFront(p, pl, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		for rep := 0; rep < 3; rep++ {
			got, err := ParetoFront(p, pl, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: front size %d, want %d", workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Mapping.String() != want[i].Mapping.String() {
					t.Fatalf("workers=%d: front[%d] representative %s, want %s",
						workers, i, got[i].Mapping, want[i].Mapping)
				}
			}
		}
	}
}

// TestReplicationBeyondNarrowTaskLimit: replication solvers at m = 63..65
// cross onto the wide multi-word search (the narrow path's task indices
// only pack up to m = 62); an enumeration budget must still trip cleanly
// there, and the latency solver must succeed outright.
func TestReplicationBeyondNarrowTaskLimit(t *testing.T) {
	p := pipeline.Uniform(1, 1, 1)
	for _, m := range []int{63, 64, 65} {
		pl, err := platform.NewFullyHomogeneous(m, 1, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MinFPUnderLatency(p, pl, math.Inf(1), Options{MaxEnum: 10}); !errors.Is(err, ErrBudget) {
			t.Errorf("m=%d: err = %v, want ErrBudget via the wide search", m, err)
		}
		if err := ForEachMappingParallel(1, m, Options{Replication: true, MaxEnum: 10},
			func(int) func(int64, *mapping.Mapping) bool {
				return func(int64, *mapping.Mapping) bool { return true }
			}); !errors.Is(err, ErrBudget) {
			t.Errorf("m=%d: ForEachMappingParallel err = %v, want ErrBudget via the wide search", m, err)
		}
		// Without replication the m-singleton space is tiny for every
		// representation: the narrow registers cover m ≤ 64, the wide
		// search everything past that.
		if _, err := MinLatencyInterval(p, pl, Options{}); err != nil {
			t.Errorf("m=%d: MinLatencyInterval err = %v, want success", m, err)
		}
	}
}
