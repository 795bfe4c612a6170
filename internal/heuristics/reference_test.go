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
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
// it re-optimizes.
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
			res, err := Repair(context.Background(), pr, start, banned)
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

// referenceRepair is Repair before the FP preview: every point move of
// every round is applied and scored, none is ruled out on its failure
// probability first. It is the reference the preview is proven against.
func referenceRepair(pr *Problem, start *mapping.Mapping, banned bitset.Set) (Result, error) {
	s, err := newSearcher(pr)
	if err != nil {
		return Result{}, err
	}
	s.banned = banned
	s.st.Load(start)
	if err := s.evict(); err != nil {
		return Result{}, err
	}
	met, _ := s.score()
	for r := 0; r < repairRounds; r++ {
		improved, next := referenceRepairRound(s, met)
		if !improved {
			break
		}
		met = next
	}
	return s.result(met), nil
}

// referenceRepairRound is the full point-move sweep: apply, score and
// restore every add, remove, replace and migrate candidate, keeping the
// first best under repairBetter.
func referenceRepairRound(s *searcher, curMet mapping.Metrics) (bool, mapping.Metrics) {
	bestMet := curMet
	improved := false
	s.snap.CopyFrom(s.st)
	try := func(mv move) {
		mv.apply(s)
		if met, _ := s.score(); repairBetter(s.pr, met, bestMet) {
			bestMet, improved = met, true
			s.bestSt.CopyFrom(s.st)
		}
		s.st.CopyFrom(s.snap)
	}
	p := s.st.NumIntervals()
	free := s.freeProcs()
	for j := 0; j < p; j++ {
		for _, u := range free {
			try(move{kind: mvAdd, j: j, u: u})
		}
	}
	for j := 0; j < p; j++ {
		if s.st.Replication(j) < 2 {
			continue
		}
		s.replicaIDs(j)
		for _, u := range s.ids {
			try(move{kind: mvRemove, j: j, u: u})
		}
	}
	for j := 0; j < p; j++ {
		s.replicaIDs(j)
		for _, u := range s.ids {
			for _, u2 := range free {
				try(move{kind: mvReplace, j: j, u: u, u2: u2})
			}
		}
	}
	for j := 0; j < p; j++ {
		if s.st.Replication(j) < 2 {
			continue
		}
		s.replicaIDs(j)
		for _, u := range s.ids {
			for j2 := 0; j2 < p; j2++ {
				if j2 != j {
					try(move{kind: mvMigrate, j: j, j2: j2, u: u})
				}
			}
		}
	}
	if improved {
		s.st.CopyFrom(s.bestSt)
	}
	return improved, bestMet
}

// evictedMetrics returns the metrics of start once Repair's eviction has
// run under banned (before any improvement round).
func evictedMetrics(t *testing.T, pr *Problem, start *mapping.Mapping, banned bitset.Set) mapping.Metrics {
	t.Helper()
	s, err := newSearcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	s.banned = banned
	s.st.Load(start)
	if err := s.evict(); err != nil {
		t.Fatal(err)
	}
	return s.st.Metrics()
}

// TestRepairPreviewEquivalence: the repair sweep that skips candidates on
// their previewed FP returns the same mapping and bitwise-equal metrics as
// the full sweep, on both platform classes, both goals, and a start that
// eviction leaves feasible as well as one it pushes over the bound. The
// preview must also have skipped candidates for each goal, or the test
// proves nothing.
func TestRepairPreviewEquivalence(t *testing.T) {
	scored := map[Goal][2]int{} // goal → {preview sweep, full sweep}
	for _, m := range []int{12, 64, 80, 128} {
		for k := int64(0); k < 2; k++ {
			base, rng := equivInstance(int64(m)*10+k, m) // k = 0: Comm-Hom, 1: Fully-Het
			start := randomState(rng, base)
			banned := bitset.Make(m)
			banned.Add(start.Alloc[0][0])
			banned.Add(rng.Intn(m))
			for _, goal := range []Goal{MinFP, MinLatency} {
				pr := *base
				pr.Goal = goal
				ev := evictedMetrics(t, &pr, start, banned)
				for _, feasible := range []bool{true, false} {
					switch {
					case goal == MinFP && feasible:
						pr.Bound = ev.Latency * 1.1
					case goal == MinFP:
						pr.Bound = ev.Latency * 0.9
					case feasible:
						pr.Bound = ev.FailureProb + 0.1*(1-ev.FailureProb)
					default:
						pr.Bound = ev.FailureProb * 0.9 // far past the relative slack
					}
					if pr.feasible(ev) != feasible {
						t.Fatalf("m=%d k=%d goal=%v: evicted start %+v feasible=%v under bound %g, want %v",
							m, k, goal, ev, !feasible, pr.Bound, feasible)
					}
					n := scored[goal]
					testScoreCheck = func(*Problem, *mapping.EvalState, mapping.Metrics) { n[0]++ }
					got, err := Repair(context.Background(), &pr, start, banned)
					testScoreCheck = func(*Problem, *mapping.EvalState, mapping.Metrics) { n[1]++ }
					want, refErr := referenceRepair(&pr, start, banned)
					testScoreCheck = nil
					scored[goal] = n
					if err != nil || refErr != nil {
						t.Fatalf("m=%d k=%d goal=%v feasible=%v: repair %v, reference %v", m, k, goal, feasible, err, refErr)
					}
					if !reflect.DeepEqual(got.Mapping, want.Mapping) || got.Metrics != want.Metrics {
						t.Errorf("m=%d k=%d goal=%v feasible=%v: repair %v %+v, full sweep %v %+v",
							m, k, goal, feasible, got.Mapping, got.Metrics, want.Mapping, want.Metrics)
					}
				}
			}
		}
	}
	for goal, n := range scored {
		if n[0] >= n[1] {
			t.Errorf("goal %v: preview sweep scored %d candidates, full sweep %d: nothing was skipped", goal, n[0], n[1])
		}
		t.Logf("goal %v: scored %d of the full sweep's %d candidates", goal, n[0], n[1])
	}
}

// TestRepairRoundZeroAllocs pins the zero-allocation contract of the
// repair sweep at a local optimum under a feasible incumbent, where every
// candidate is previewed and most are skipped unapplied.
func TestRepairRoundZeroAllocs(t *testing.T) {
	for _, m := range []int{12, 80} {
		pr, _ := equivInstance(int64(m)+1, m) // odd offset: fully heterogeneous
		g, err := Greedy(context.Background(), pr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSearcher(pr)
		if err != nil {
			t.Fatal(err)
		}
		s.banned = bitset.Make(m)
		s.banned.Add(g.Mapping.Alloc[0][0])
		s.st.Load(g.Mapping)
		if err := s.evict(); err != nil {
			t.Fatal(err)
		}
		cur, _ := s.score()
		for {
			improved, next := s.repairRound(cur, nil)
			if !improved {
				break
			}
			cur = next
		}
		if !pr.feasible(cur) {
			t.Fatalf("m=%d: repaired state %+v is infeasible; the preview would never run", m, cur)
		}
		allocs := testing.AllocsPerRun(10, func() { s.repairRound(cur, nil) })
		if allocs != 0 {
			t.Errorf("m=%d: repair sweep allocates %.1f/op, want 0", m, allocs)
		}
	}
}

// referenceSaturate is saturate scoring every replica-count adjustment.
func referenceSaturate(s *searcher) mapping.Metrics {
	if s.satBase == nil {
		s.satBase = s.ev.NewState()
	}
	curMet, _ := s.score()
	for {
		improved := false
		bestMet := curMet
		var bestMv move
		s.satBase.CopyFrom(s.st)
		try := func(mv move) {
			mv.apply(s)
			if met, feas := s.score(); feas && s.pr.better(met, bestMet) {
				bestMet, bestMv, improved = met, mv, true
			}
			s.st.CopyFrom(s.satBase)
		}
		p := s.st.NumIntervals()
		if s.pr.Goal == MinFP {
			free := s.freeProcs()
			for j := 0; j < p; j++ {
				for _, u := range free {
					try(move{kind: mvAdd, j: j, u: u})
				}
			}
		} else {
			for j := 0; j < p; j++ {
				if s.st.Replication(j) < 2 {
					continue
				}
				s.replicaIDs(j)
				for _, u := range s.ids {
					try(move{kind: mvRemove, j: j, u: u})
				}
			}
		}
		if !improved {
			return curMet
		}
		bestMv.apply(s)
		curMet = bestMet
	}
}

// referenceBestMove is bestMove applying and scoring every point move and
// every structural offer.
func referenceBestMove(s *searcher, curMet mapping.Metrics) (bool, mapping.Metrics) {
	bestMet := curMet
	improved := false
	s.snap.CopyFrom(s.st)
	tryRaw := func(mv move) {
		mv.apply(s)
		if met, feas := s.score(); feas && s.pr.better(met, bestMet) {
			bestMet, improved = met, true
			s.bestSt.CopyFrom(s.st)
		}
		s.st.CopyFrom(s.snap)
	}
	p := s.st.NumIntervals()
	free := s.freeProcs()
	for j := 0; j < p; j++ {
		for _, u := range free {
			tryRaw(move{kind: mvAdd, j: j, u: u})
		}
	}
	for j := 0; j < p; j++ {
		if s.st.Replication(j) < 2 {
			continue
		}
		s.replicaIDs(j)
		for _, u := range s.ids {
			tryRaw(move{kind: mvRemove, j: j, u: u})
		}
	}
	for j := 0; j < p; j++ {
		s.replicaIDs(j)
		for _, u := range s.ids {
			for _, u2 := range free {
				tryRaw(move{kind: mvReplace, j: j, u: u, u2: u2})
			}
		}
	}
	topSplit := s.topSplit[:0]
	topMerge := s.topMerge[:0]
	topMigrate := s.topMigrate[:0]
	idx := 0
	offer := func(mv move, top *[]rankEntry, quota int) {
		if mv.kind == mvSplitSelf {
			s.setSplitSelfRight(mv.j)
		}
		mv.apply(s)
		met, feas := s.score()
		s.st.CopyFrom(s.snap)
		key := rankKey{idx: idx}
		idx++
		if feas {
			key.val = s.pr.objective(met)
		} else {
			key.infeasible = true
			key.val = s.pr.violation(met)
		}
		if len(*top) == quota && !key.less((*top)[len(*top)-1].key) {
			return
		}
		if len(*top) < quota {
			*top = append(*top, rankEntry{})
		}
		i := len(*top) - 1
		for i > 0 && key.less((*top)[i-1].key) {
			(*top)[i] = (*top)[i-1]
			i--
		}
		(*top)[i] = rankEntry{key: key, mv: mv}
	}
	for j := 0; j < p; j++ {
		first, end := s.st.First(j), s.st.End(j)
		canSelf := s.st.Replication(j) >= 2
		for cut := first + 1; cut <= end; cut++ {
			for _, u := range free {
				offer(move{kind: mvSplitNewRight, j: j, cut: cut, u: u}, &topSplit, topKSplit)
				offer(move{kind: mvSplitNewLeft, j: j, cut: cut, u: u}, &topSplit, topKSplit)
			}
			if canSelf {
				offer(move{kind: mvSplitSelf, j: j, cut: cut}, &topSplit, topKSplit)
			}
		}
	}
	for j := 0; j+1 < p; j++ {
		offer(move{kind: mvMerge, j: j}, &topMerge, topKMerge)
	}
	for j := 0; j < p; j++ {
		if s.st.Replication(j) < 2 {
			continue
		}
		s.replicaIDs(j)
		for _, u := range s.ids {
			for j2 := 0; j2 < p; j2++ {
				if j2 != j {
					offer(move{kind: mvMigrate, j: j, j2: j2, u: u}, &topMigrate, topKMigrate)
				}
			}
		}
	}
	s.topSplit, s.topMerge, s.topMigrate = topSplit, topMerge, topMigrate
	for _, top := range [][]rankEntry{topSplit, topMerge, topMigrate} {
		for i := range top {
			mv := top[i].mv
			if mv.kind == mvSplitSelf {
				s.setSplitSelfRight(mv.j)
			}
			mv.apply(s)
			met := referenceSaturate(s)
			if s.pr.feasible(met) && s.pr.better(met, bestMet) {
				bestMet, improved = met, true
				s.bestSt.CopyFrom(s.st)
			}
			s.st.CopyFrom(s.snap)
		}
	}
	if improved {
		s.st.CopyFrom(s.bestSt)
	}
	return improved, bestMet
}

// previewInstance draws an n-stage instance on m processors,
// communication-homogeneous or fully heterogeneous, with the Problem's
// goal and bound left unset.
func previewInstance(seed int64, n, m int, commHom bool) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := pipeline.Random(rng, n, 1, 8, 1, 8)
	var pl *platform.Platform
	if commHom {
		pl = platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*2)
	} else {
		pl = platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
	}
	return &Problem{Pipe: p, Plat: pl}
}

// referenceGreedy is Greedy before the candidate previews: every point
// move and every structural offer of every round is applied and scored
// (referenceSaturate, referenceBestMove). A previewing searcher follows it
// round by round from the same seed, and the test fails on the first round
// whose saturated metrics, verdict or structural candidate lists differ: a
// preview that keeps a candidate out of a list it would have entered shows
// up there even when the round's winner survives it.
//
// The walk starts from start, or from Greedy's seed when start is nil.
func referenceGreedy(t *testing.T, pr *Problem, start *mapping.Mapping, what string) (Result, error) {
	t.Helper()
	if start == nil {
		best, err := seed(pr)
		if err != nil {
			return Result{}, err
		}
		start = best.Mapping
	}
	a, err := newSearcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSearcher(pr)
	if err != nil {
		t.Fatal(err)
	}
	a.st.Load(start)
	b.st.Load(start)
	check := testScoreCheck
	testScoreCheck = nil // only the reference's scores are counted
	ma := a.saturate(nil)
	testScoreCheck = check
	mb := referenceSaturate(b)
	for round := 0; ; round++ {
		testScoreCheck = nil
		ia, na := a.bestMove(ma, nil)
		testScoreCheck = check
		ib, nb := referenceBestMove(b, mb)
		if ma != mb || ia != ib || na != nb ||
			!reflect.DeepEqual(a.topSplit, b.topSplit) ||
			!reflect.DeepEqual(a.topMerge, b.topMerge) ||
			!reflect.DeepEqual(a.topMigrate, b.topMigrate) {
			t.Fatalf("%s round %d: previewing round (%v, %+v, lists %v %v %v) != reference (%v, %+v, lists %v %v %v)",
				what, round, ia, na, a.topSplit, a.topMerge, a.topMigrate, ib, nb, b.topSplit, b.topMerge, b.topMigrate)
		}
		if !ib {
			return b.result(mb), nil
		}
		ma, mb = na, nb
	}
}

// TestGreedyPreviewEquivalence: Greedy, which skips the candidates its
// previews rule out, returns the same mapping and bitwise-equal metrics
// as referenceGreedy, which scores them all, on both platform classes,
// both goals, and bounds from tight to slack, at widths up to m = 128;
// run in lockstep, every round also ranks the same structural candidates.
// The lockstep walk also starts from a random mapping, whose replica-rich
// multi-interval states make migrations rank (Greedy's own trajectory
// rarely fills the migration list with feasible candidates). Each gate —
// a point move's FP, an addition's latency floor, a structural offer's FP
// for each previewed kind — must have skipped candidates, or the test
// proves nothing about it.
func TestGreedyPreviewEquivalence(t *testing.T) {
	shapes := []struct{ n, m int }{{3, 8}, {6, 12}, {8, 24}, {5, 64}, {10, 64}, {12, 80}, {20, 80}, {8, 128}, {24, 128}}
	var skips [3]int
	var offerSkips [mvMerge + 1]int
	scored := [2]int{} // {Greedy, reference}
	solved := 0
	for i, sh := range shapes {
		for k := int64(0); k < 2; k++ {
			base := previewInstance(int64(100*i)+int64(sh.m)+k, sh.n, sh.m, k%2 == 0)
			rng := rand.New(rand.NewSource(k))
			fastest := mapping.NewSingleInterval(sh.n, []int{base.Plat.FastestProc()})
			ref, err := mapping.Evaluate(base.Pipe, base.Plat, fastest)
			if err != nil {
				t.Fatal(err)
			}
			minFP := 1.0
			for _, fp := range base.Plat.FailProb {
				minFP = math.Min(minFP, fp)
			}
			for _, goal := range []Goal{MinFP, MinLatency} {
				for _, slack := range []float64{0.02, 0.5, 2} { // tight → slack
					pr := *base
					pr.Goal = goal
					if goal == MinFP {
						pr.Bound = ref.Latency * (1 + slack)
					} else {
						pr.Bound = minFP * slack / 4
					}
					what := fmt.Sprintf("n=%d m=%d k=%d goal=%v slack=%g", sh.n, sh.m, k, goal, slack)
					testSkip = func(g gate, kind moveKind) {
						skips[g]++
						if g == gateOffer {
							offerSkips[kind]++
						}
					}
					testScoreCheck = func(*Problem, *mapping.EvalState, mapping.Metrics) { scored[0]++ }
					got, err := Greedy(context.Background(), &pr)
					testScoreCheck = func(*Problem, *mapping.EvalState, mapping.Metrics) { scored[1]++ }
					want, refErr := referenceGreedy(t, &pr, nil, what)
					testScoreCheck = nil
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s: greedy %v, reference %v", what, err, refErr)
					}
					if err == nil {
						solved++
						if !reflect.DeepEqual(got.Mapping, want.Mapping) || got.Metrics != want.Metrics {
							t.Errorf("%s: greedy %v %+v, reference %v %+v", what, got.Mapping, got.Metrics, want.Mapping, want.Metrics)
						}
					}
					referenceGreedy(t, &pr, randomState(rng, &pr), what+" random start")
					testSkip = nil
				}
			}
		}
	}
	t.Logf("%d solves; Greedy scored %d of the reference's %d candidates; skipped by FP %d, floor %d, offer %d (split-new %d, migrate %d)",
		solved, scored[0], scored[1], skips[gateFP], skips[gateFloor], skips[gateOffer],
		offerSkips[mvSplitNewRight]+offerSkips[mvSplitNewLeft], offerSkips[mvMigrate])
	if solved == 0 {
		t.Fatal("no instance was solved")
	}
	for g, name := range []string{"FP", "floor", "offer"} {
		if skips[g] == 0 {
			t.Errorf("the %s gate skipped no candidate", name)
		}
	}
	for _, kind := range []moveKind{mvSplitNewRight, mvSplitNewLeft, mvMigrate} {
		if offerSkips[kind] == 0 {
			t.Errorf("the offer gate skipped no move of kind %d", kind)
		}
	}
}
