package heuristics

// The legacy heuristics evaluation path — Mapping.Clone per candidate,
// full Validate, slice-based mapping.Evaluate — survives here as the
// unexported reference the delta refactor is proven against, following
// the pattern of exact/reference_test.go (where the retired slice
// enumerator validates the bitmask engine). The testScoreCheck hook in
// state.go lets these tests intercept *every* metric the searchers read
// from the incremental state during a real Greedy/Anneal run and assert
// it is bitwise identical to the clone-path evaluation of the same
// candidate, which by induction makes the refactored searches follow the
// exact trajectory the clone-path implementation would.

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// referenceEvaluate is the pre-refactor per-candidate path: deep-copy the
// mapping, then validate and score it through the slice-based evaluators
// (mapping.Evaluate dispatches Eq. (1)/Eq. (2) per call, exactly like the
// old Problem.evaluate).
func referenceEvaluate(pr *Problem, m *mapping.Mapping) (mapping.Metrics, error) {
	return mapping.Evaluate(pr.Pipe, pr.Plat, m.Clone())
}

// installCloneCheck routes every searcher score through the legacy path
// and fails the test on the first bitwise mismatch. It returns the
// uninstall func and a counter so tests can assert the hook actually saw
// scores.
func installCloneCheck(t *testing.T, scores *int) func() {
	t.Helper()
	testScoreCheck = func(pr *Problem, st *mapping.EvalState, met mapping.Metrics) {
		mp := st.ToMapping()
		want, err := referenceEvaluate(pr, mp)
		if err != nil {
			t.Fatalf("delta path scored an invalid state %v: %v", mp, err)
		}
		if met != want {
			t.Fatalf("delta score %+v != clone-path score %+v for %v", met, want, mp)
		}
		*scores++
	}
	return func() { testScoreCheck = nil }
}

// equivInstance draws a random instance at the given width —
// communication-homogeneous on even seeds, fully heterogeneous otherwise
// — plus a latency bound that is binding often enough to exercise
// split/merge/saturation moves.
func equivInstance(seed int64, m int) (*Problem, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	p := pipeline.Random(rng, n, 1, 8, 1, 8)
	var pl *platform.Platform
	if seed%2 == 0 {
		pl = platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*2)
	} else {
		pl = platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
	}
	// A bound between the fastest single-processor latency and a small
	// multiple of it keeps the instance feasible but the constraint tight.
	ref := mapping.NewSingleInterval(n, []int{pl.FastestProc()})
	met, err := mapping.Evaluate(p, pl, ref)
	if err != nil {
		panic(err)
	}
	bound := met.Latency * (1.2 + 2*rng.Float64())
	return &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: bound}, rng
}

// TestGreedyDeltaMatchesClonePath runs the refactored greedy under the
// clone-check hook across the narrow and wide mask representations: every
// single candidate score of the search must be bitwise identical to the
// legacy Clone+Evaluate path, and the returned metrics must reproduce
// through it as well.
func TestGreedyDeltaMatchesClonePath(t *testing.T) {
	for _, m := range []int{8, 64, 80, 128} {
		for seed := int64(0); seed < 4; seed++ {
			pr, _ := equivInstance(seed*4+int64(m), m)
			scores := 0
			uninstall := installCloneCheck(t, &scores)
			res, err := Greedy(context.Background(), pr)
			uninstall()
			if err != nil {
				continue // infeasible draw: nothing scored beyond the sweep
			}
			if scores == 0 {
				t.Fatalf("m=%d seed=%d: clone-check hook saw no scores", m, seed)
			}
			want, refErr := referenceEvaluate(pr, res.Mapping)
			if refErr != nil {
				t.Fatalf("m=%d seed=%d: greedy returned invalid mapping: %v", m, seed, refErr)
			}
			if res.Metrics != want {
				t.Errorf("m=%d seed=%d: greedy metrics %+v != clone path %+v", m, seed, res.Metrics, want)
			}
		}
	}
}

// TestAnnealDeltaMatchesClonePath is the annealing analogue: the whole
// walk (accepted and rejected moves alike) scores bitwise identically to
// the clone path, so the trajectory is the one a clone-based walk with the
// same seed would take.
func TestAnnealDeltaMatchesClonePath(t *testing.T) {
	for _, m := range []int{8, 64, 80, 128} {
		for seed := int64(0); seed < 3; seed++ {
			pr, _ := equivInstance(seed*4+int64(m)+1, m)
			scores := 0
			uninstall := installCloneCheck(t, &scores)
			res, err := Anneal(context.Background(), pr, AnnealConfig{Seed: seed + 1, Iters: 120, Restarts: 2})
			uninstall()
			if err != nil {
				continue
			}
			if scores == 0 {
				t.Fatalf("m=%d seed=%d: clone-check hook saw no scores", m, seed)
			}
			want, refErr := referenceEvaluate(pr, res.Mapping)
			if refErr != nil {
				t.Fatalf("m=%d seed=%d: anneal returned invalid mapping: %v", m, seed, refErr)
			}
			if res.Metrics != want {
				t.Errorf("m=%d seed=%d: anneal metrics %+v != clone path %+v", m, seed, res.Metrics, want)
			}
		}
	}
}

// TestRepairDeltaMatchesClonePath is the repair analogue: eviction and
// every point-move round score bitwise identically to the clone path. The
// start is a random mapping and the banned set always hits interval 0
// plus a few random processors, so the repair restaffs or merges before
// it re-optimizes. Four rounds keep the clone path's cost down at m = 80.
func TestRepairDeltaMatchesClonePath(t *testing.T) {
	for _, m := range []int{12, 80} {
		for seed := int64(0); seed < 6; seed++ {
			pr, rng := equivInstance(seed*4+int64(m)+2, m)
			start := randomState(rng, pr)
			banned := bitset.Make(m)
			banned.Add(start.Alloc[0][0])
			for i := 0; i < 1+rng.Intn(3); i++ {
				banned.Add(rng.Intn(m))
			}
			scores := 0
			uninstall := installCloneCheck(t, &scores)
			res, err := Repair(context.Background(), pr, start, banned, RepairBudget{Rounds: 4})
			uninstall()
			if err != nil {
				t.Fatalf("m=%d seed=%d: repair: %v", m, seed, err)
			}
			if scores == 0 {
				t.Fatalf("m=%d seed=%d: clone-check hook saw no scores", m, seed)
			}
			want, refErr := referenceEvaluate(pr, res.Mapping)
			if refErr != nil {
				t.Fatalf("m=%d seed=%d: repair returned invalid mapping: %v", m, seed, refErr)
			}
			if res.Metrics != want {
				t.Errorf("m=%d seed=%d: repair metrics %+v != clone path %+v", m, seed, res.Metrics, want)
			}
		}
	}
}

// referenceSingleIntervalSweep is the Mapping-based sweep the EvalState
// sweep replaced: one NewSingleInterval per candidate, each validated and
// scored through Problem.evaluate, with the hybrid order recomputing its
// score on every comparison as it used to.
func referenceSingleIntervalSweep(pr *Problem) (Result, error) {
	n := pr.Pipe.NumStages()
	m := pr.Plat.NumProcs()
	best := Result{}
	found := false
	consider := func(procs []int) {
		mp := mapping.NewSingleInterval(n, procs)
		met, ok := pr.evaluate(mp)
		if !ok || !pr.feasible(met) {
			return
		}
		if !found || pr.better(met, best.Metrics) {
			best = Result{Mapping: mp, Metrics: met}
			found = true
		}
	}
	orders := [][]int{
		pr.Plat.ProcsByReliabilityDesc(),
		pr.Plat.ProcsBySpeedDesc(),
		referenceHybridOrder(pr.Plat),
	}
	for _, order := range orders {
		for k := 1; k <= m; k++ {
			consider(order[:k])
		}
	}
	for u := 0; u < m; u++ {
		consider([]int{u})
	}
	if !found {
		return Result{}, ErrNotFound
	}
	return best, nil
}

func referenceHybridOrder(pl *platform.Platform) []int {
	ids := make([]int, pl.NumProcs())
	for i := range ids {
		ids[i] = i
	}
	score := func(u int) float64 {
		fp := pl.FailProb[u]
		if fp <= 0 {
			return math.Inf(1)
		}
		return -math.Log(fp) * pl.Speed[u]
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && score(ids[j]) > score(ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// TestSingleIntervalSweepMatchesReference: the EvalState sweep returns the
// reference sweep's mapping, Alloc order included, with bitwise-equal
// metrics, on both platform classes and both goals; an unmeetable bound
// gives ErrNotFound on both paths.
func TestSingleIntervalSweepMatchesReference(t *testing.T) {
	for _, m := range []int{12, 64, 80, 128} {
		for seed := int64(0); seed < 4; seed++ {
			pr, rng := equivInstance(seed*4+int64(m)+3, m)
			minLat := *pr
			minLat.Goal = MinLatency
			minLat.Bound = 0.002 + 0.04*rng.Float64() // below every single fp: needs replicas
			unmeetable := *pr
			unmeetable.Bound = 0
			for _, c := range []struct {
				name string
				pr   *Problem
			}{{"minFP", pr}, {"minLatency", &minLat}, {"unmeetable", &unmeetable}} {
				got, err := SingleIntervalSweep(c.pr)
				want, refErr := referenceSingleIntervalSweep(c.pr)
				if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
					t.Fatalf("m=%d seed=%d %s: error %v, reference %v", m, seed, c.name, err, refErr)
				}
				if c.name == "unmeetable" && !errors.Is(err, ErrNotFound) {
					t.Fatalf("m=%d seed=%d: unmeetable bound gave %v, want ErrNotFound", m, seed, err)
				}
				if err != nil {
					continue
				}
				if got.Mapping.String() != want.Mapping.String() {
					t.Errorf("m=%d seed=%d %s: mapping %v, reference %v", m, seed, c.name, got.Mapping, want.Mapping)
				}
				if got.Metrics != want.Metrics {
					t.Errorf("m=%d seed=%d %s: metrics %+v, reference %+v", m, seed, c.name, got.Metrics, want.Metrics)
				}
			}
		}
	}
}

// TestGreedyPaperOptimaPreserved pins the known optima of the paper's
// instances through the refactored policy (the bounded structural sweep
// is exhaustive at these sizes, so the delta rewrite must not change the
// answers the legacy greedy found).
func TestGreedyPaperOptimaPreserved(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 22}
	res, err := Greedy(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	if math.Abs(res.Metrics.FailureProb-want) > 1e-12 {
		t.Errorf("Fig5 greedy FP = %g, want %g", res.Metrics.FailureProb, want)
	}
	p2, pl2 := fig34()
	pr2 := &Problem{Pipe: p2, Plat: pl2, Goal: MinLatency, Bound: 1}
	res2, err := Greedy(context.Background(), pr2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Metrics.Latency-7) > 1e-9 {
		t.Errorf("Fig34 greedy latency = %g, want 7", res2.Metrics.Latency)
	}
}

// TestMoveSweepZeroAllocs pins the zero-allocation contract of the greedy
// move sweep (point moves, structural ranking and the saturated lookahead
// all run on the in-place search state; only result materialization may
// allocate).
func TestMoveSweepZeroAllocs(t *testing.T) {
	for _, m := range []int{12, 80} {
		pr, _ := equivInstance(int64(m)+1, m) // odd offset: fully heterogeneous
		s, err := newSearcher(pr)
		if err != nil {
			t.Fatal(err)
		}
		best, err := seed(pr)
		if err != nil {
			t.Skipf("m=%d: no feasible seed", m)
		}
		s.st.Load(best.Mapping)
		cur := s.saturate(nil)
		// Drive to a local optimum first so the measured sweeps are the
		// steady-state full rounds (improved=false paths).
		for {
			improved, next := s.bestMove(cur, nil)
			if !improved {
				break
			}
			cur = next
		}
		allocs := testing.AllocsPerRun(10, func() {
			s.bestMove(cur, nil)
			s.saturate(nil)
		})
		if allocs != 0 {
			t.Errorf("m=%d: move sweep allocates %.1f/op, want 0", m, allocs)
		}
	}
}

// TestAnnealIterationsZeroAlloc verifies the annealing walk allocates only
// when a mapping is actually recorded: a walk whose archive and best are
// already settled performs allocation-free iterations — draw, apply,
// score, then restore the snapshot (reject) or re-take it (accept).
func TestAnnealIterationsZeroAlloc(t *testing.T) {
	pr, rng := equivInstance(81, 80)
	s, err := newSearcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	s.st.Load(randomState(rng, pr))
	s.snap.CopyFrom(s.st)
	allocs := testing.AllocsPerRun(200, func() {
		mv, ok := s.randomMove(rng)
		if !ok {
			return
		}
		mv.apply(s)
		_, _ = s.score()
		if rng.Intn(2) == 0 {
			s.st.CopyFrom(s.snap)
		} else {
			s.snap.CopyFrom(s.st)
		}
	})
	if allocs != 0 {
		t.Errorf("anneal move iteration allocates %.1f/op, want 0", allocs)
	}
}
