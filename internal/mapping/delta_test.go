package mapping

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// deltaInstance draws a random instance: communication-homogeneous on even
// seeds (Eq. (1) terms), fully heterogeneous otherwise (Eq. (2) terms).
func deltaInstance(rng *rand.Rand, n, m int) (*pipeline.Pipeline, *platform.Platform) {
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	if rng.Intn(2) == 0 {
		return p, platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*2)
	}
	return p, platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
}

// extremeInstance is deltaInstance at the edges of float64. Each speed and
// bandwidth is 1e300 or 1e-300 with probability ⅓, and rarely (about one
// link or processor per instance) the smallest subnormal, whose quotients
// overflow to +Inf terms. Each failure probability is 0 or 1 with
// probability ½.
func extremeInstance(rng *rand.Rand, n, m int) (*pipeline.Pipeline, *platform.Platform) {
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	draw := func(lo, hi float64, count int) float64 {
		if rng.Intn(2*count) == 0 {
			return math.SmallestNonzeroFloat64
		}
		switch rng.Intn(6) {
		case 0:
			return 1e300
		case 1:
			return 1e-300
		}
		return lo + rng.Float64()*(hi-lo)
	}
	speeds, fps := make([]float64, m), make([]float64, m)
	for u := range speeds {
		speeds[u] = draw(1, 10, m)
		fps[u] = 0.05 + 0.9*rng.Float64()
		if rng.Intn(2) == 0 {
			fps[u] = float64(rng.Intn(2))
		}
	}
	var pl *platform.Platform
	var err error
	if rng.Intn(2) == 0 {
		pl, err = platform.NewCommHomogeneous(speeds, fps, draw(1, 3, 2))
	} else {
		b := make([][]float64, m)
		bIn, bOut := make([]float64, m), make([]float64, m)
		for u := range b {
			b[u] = make([]float64, m)
			for v := range b[u] {
				b[u][v] = draw(1, 20, m*m)
			}
			bIn[u], bOut[u] = draw(1, 20, m), draw(1, 20, m)
		}
		pl, err = platform.NewFullyHeterogeneous(speeds, fps, b, bIn, bOut)
	}
	if err != nil {
		panic(err)
	}
	return p, pl
}

// randomValidMapping draws a valid interval mapping with replication.
func randomValidMapping(rng *rand.Rand, n, m int) *Mapping {
	p := 1 + rng.Intn(min(n, m))
	cuts := rng.Perm(n - 1)[:p-1]
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	mp := &Mapping{}
	start := 0
	for j := 0; j < p; j++ {
		end := n - 1
		if j < p-1 {
			end = cuts[j]
		}
		mp.Intervals = append(mp.Intervals, Interval{First: start, Last: end})
		start = end + 1
	}
	procs := rng.Perm(m)
	mp.Alloc = make([][]int, p)
	for j := 0; j < p; j++ {
		mp.Alloc[j] = []int{procs[j]}
	}
	for _, u := range procs[p:] {
		if rng.Float64() < 0.5 {
			j := rng.Intn(p)
			mp.Alloc[j] = append(mp.Alloc[j], u)
		}
	}
	return mp
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// checkState asserts the state's incremental metrics are bitwise identical
// to a fresh batch evaluation of the materialized mapping — through the
// evaluator (mask path) and through the slice-based Evaluate.
func checkState(t *testing.T, ev *Evaluator, p *pipeline.Pipeline, pl *platform.Platform, st *EvalState, what string) {
	t.Helper()
	mp := st.ToMapping()
	got := st.Metrics()
	want, err := ev.EvaluateMapping(mp)
	if err != nil {
		t.Fatalf("%s: state materialized an invalid mapping %v: %v", what, mp, err)
	}
	if got != want {
		t.Fatalf("%s: incremental metrics %+v != batch evaluator %+v (mapping %v)", what, got, want, mp)
	}
	slice, err := Evaluate(p, pl, mp)
	if err != nil {
		t.Fatal(err)
	}
	if got != slice {
		t.Fatalf("%s: incremental metrics %+v != slice Evaluate %+v (mapping %v)", what, got, slice, mp)
	}
}

// mutate applies one random validity-preserving mutation and reports a
// description (empty when no move was applicable for the drawn kind).
func mutate(rng *rand.Rand, st *EvalState, m int) string {
	p := st.NumIntervals()
	switch rng.Intn(6) {
	case 0: // add an unused replica
		u := freeProc(rng, st, m)
		if u < 0 {
			return ""
		}
		j := rng.Intn(p)
		st.AddReplica(j, u)
		return "add"
	case 1: // remove a replica (keep intervals non-empty)
		j := rng.Intn(p)
		if st.Replication(j) < 2 {
			return ""
		}
		st.RemoveReplica(j, nthBit(st.Mask(j), rng.Intn(st.Replication(j))))
		return "remove"
	case 2: // replace a replica by an unused processor
		u := freeProc(rng, st, m)
		if u < 0 {
			return ""
		}
		j := rng.Intn(p)
		st.ReplaceReplica(j, nthBit(st.Mask(j), rng.Intn(st.Replication(j))), u)
		return "replace"
	case 3: // migrate a replica between intervals
		if p < 2 {
			return ""
		}
		j := rng.Intn(p)
		if st.Replication(j) < 2 {
			return ""
		}
		j2 := rng.Intn(p)
		if j2 == j {
			return ""
		}
		st.MoveReplica(j, j2, nthBit(st.Mask(j), rng.Intn(st.Replication(j))))
		return "move"
	case 4: // split an interval, sending a proper subset right
		j := rng.Intn(p)
		length := st.End(j) - st.First(j) + 1
		k := st.Replication(j)
		if length < 2 || k < 2 {
			return ""
		}
		cut := st.First(j) + 1 + rng.Intn(length-1)
		right := bitset.Make(m)
		keep := 1 + rng.Intn(k-1)
		for i := 0; i < keep; i++ {
			right.Add(nthBit(st.Mask(j), rng.Intn(k)))
		}
		if right.Equal(st.Mask(j)) || right.IsZero() {
			return ""
		}
		st.Split(j, cut, right)
		return "split"
	default: // merge two adjacent intervals
		if p < 2 {
			return ""
		}
		st.Merge(rng.Intn(p - 1))
		return "merge"
	}
}

func freeProc(rng *rand.Rand, st *EvalState, m int) int {
	free := make([]int, 0, m)
	for u := 0; u < m; u++ {
		if !st.Used().Test(u) {
			free = append(free, u)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[rng.Intn(len(free))]
}

func nthBit(s bitset.Set, i int) int {
	n := -1
	for k := 0; k <= i; k++ {
		n = s.NextOne(n + 1)
	}
	return n
}

// TestEvalStateMatchesBatchEvaluators drives random mutation sequences on
// random instances at one-word and multi-word strides and
// asserts the incrementally maintained metrics stay bitwise identical to
// the batch evaluators after every mutation. The extreme draws put +Inf,
// huge and tiny terms under AddReplica's max-update.
func TestEvalStateMatchesBatchEvaluators(t *testing.T) {
	draws := []func(*rand.Rand, int, int) (*pipeline.Pipeline, *platform.Platform){deltaInstance, extremeInstance}
	for _, m := range []int{8, 64, 80, 128} {
		for seed := int64(0); seed < 16; seed++ {
			rng := rand.New(rand.NewSource(seed/2*1000 + int64(m)))
			n := 2 + rng.Intn(6)
			p, pl := draws[seed%2](rng, n, m)
			ev, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			st := ev.NewState()
			st.Load(randomValidMapping(rng, n, m))
			checkState(t, ev, p, pl, st, "load")
			for step := 0; step < 60; step++ {
				if what := mutate(rng, st, m); what != "" {
					checkState(t, ev, p, pl, st, what)
				}
			}
		}
	}
}

// TestEvalStateUndoRoundTrip checks that the state is a pure function of
// (ends, masks): applying a mutation and its inverse restores the full
// state — boundary representation, cached terms and metrics — bitwise.
func TestEvalStateUndoRoundTrip(t *testing.T) {
	for _, m := range []int{8, 80} {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed*77 + int64(m)))
			n := 2 + rng.Intn(6)
			p, pl := deltaInstance(rng, n, m)
			ev, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			st := ev.NewState()
			st.Load(randomValidMapping(rng, n, m))
			before := ev.NewState()
			scratch := bitset.Make(m)
			for step := 0; step < 40; step++ {
				before.CopyFrom(st)
				pcount := st.NumIntervals()
				switch rng.Intn(4) {
				case 0:
					u := freeProc(rng, st, m)
					if u < 0 {
						continue
					}
					j := rng.Intn(pcount)
					st.AddReplica(j, u)
					st.RemoveReplica(j, u)
				case 1:
					if pcount < 2 {
						continue
					}
					j := rng.Intn(pcount - 1)
					if st.Replication(j) < 2 {
						continue
					}
					u := nthBit(st.Mask(j), rng.Intn(st.Replication(j)))
					st.MoveReplica(j, j+1, u)
					st.MoveReplica(j+1, j, u)
				case 2:
					j := rng.Intn(pcount)
					length := st.End(j) - st.First(j) + 1
					k := st.Replication(j)
					if length < 2 || k < 2 {
						continue
					}
					cut := st.First(j) + 1 + rng.Intn(length-1)
					scratch.Zero()
					scratch.Add(nthBit(st.Mask(j), k-1))
					st.Split(j, cut, scratch)
					st.Merge(j)
				default:
					if pcount < 2 {
						continue
					}
					j := rng.Intn(pcount - 1)
					cut := st.First(j + 1)
					scratch.Copy(st.Mask(j + 1))
					st.Merge(j)
					st.Split(j, cut, scratch)
				}
				assertStatesEqual(t, before, st)
			}
		}
	}
}

func assertStatesEqual(t *testing.T, a, b *EvalState) {
	t.Helper()
	if a.p != b.p {
		t.Fatalf("interval count diverged: %d vs %d", a.p, b.p)
	}
	stride := a.ev.stride
	for j := 0; j < a.p; j++ {
		if a.ends[j] != b.ends[j] {
			t.Fatalf("ends[%d] diverged: %d vs %d", j, a.ends[j], b.ends[j])
		}
		if !bitset.Set(a.words[j*stride : (j+1)*stride]).Equal(b.words[j*stride : (j+1)*stride]) {
			t.Fatalf("mask %d diverged", j)
		}
		if a.fail[j] != b.fail[j] {
			t.Fatalf("fail[%d] diverged: %g vs %g", j, a.fail[j], b.fail[j])
		}
		if a.ev.commHom {
			if a.commIn[j] != b.commIn[j] || a.compute[j] != b.compute[j] {
				t.Fatalf("Eq1 terms of interval %d diverged", j)
			}
		} else if a.term[j] != b.term[j] {
			t.Fatalf("Eq2 term of interval %d diverged: %g vs %g", j, a.term[j], b.term[j])
		}
	}
	if !a.used.Equal(b.used) {
		t.Fatal("used set diverged")
	}
	if a.inputSum != b.inputSum {
		t.Fatalf("input sum diverged: %g vs %g", a.inputSum, b.inputSum)
	}
	if a.Metrics() != b.Metrics() {
		t.Fatalf("metrics diverged: %+v vs %+v", a.Metrics(), b.Metrics())
	}
}

// TestEvalStateZeroAllocs pins the zero-allocation contract of the
// mutators, the FP and latency-floor preview reads and the metric
// accumulation on both mask representations.
func TestEvalStateZeroAllocs(t *testing.T) {
	for _, m := range []int{12, 80} {
		rng := rand.New(rand.NewSource(int64(m)))
		n := 6
		p, pl := deltaInstance(rng, n, m)
		ev, err := NewEvaluator(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		st := ev.NewState()
		snap := ev.NewState()
		st.Load(randomValidMapping(rng, n, m))
		snap.CopyFrom(st)
		right := bitset.Make(m)
		allocs := testing.AllocsPerRun(200, func() {
			u := freeFixed(st, m)
			st.AddReplica(0, u)
			_ = st.Metrics()
			st.RemoveReplica(0, u)
			last := st.NumIntervals() - 1
			_ = st.FailureProbWith(0, st.FailureFactorWith(0, st.Mask(0).NextOne(0), u), last, st.FailureFactorWith(last, -1, u))
			_ = st.FailureProbWithSplit(last, u, true)
			_ = st.LatencyFloorWithAdd(0, u)
			_ = st.LatencyFloorWithAdd(last, u)
			if st.End(0)-st.First(0)+1 >= 2 && st.Replication(0) >= 2 {
				right.Zero()
				right.Add(st.Mask(0).NextOne(0))
				st.Split(0, st.First(0)+1, right)
				_ = st.Metrics()
				st.Merge(0)
			}
			_ = st.Latency()
			_ = st.FailureProb()
			st.CopyFrom(snap)
		})
		if allocs != 0 {
			t.Errorf("m=%d: EvalState hot path allocates %.1f/op, want 0", m, allocs)
		}
	}
}

// freeFixed returns the lowest unused processor id (the hot-path variant
// of freeProc for the allocation test, which must not allocate).
func freeFixed(st *EvalState, m int) int {
	for u := 0; u < m; u++ {
		if !st.Used().Test(u) {
			return u
		}
	}
	return -1
}

// TestEvalStateFailureProbPreview: for every add, remove, replace and
// migrate move on random states at stride 1 and stride > 1, on both
// platform classes, the FP previewed by FailureFactorWith and
// FailureProbWith equals what FailureProb reads after applying the move,
// bitwise, and so does FailureProbWithSplit for every split that staffs a
// new half, left or right, with one unused processor, at every cut. The
// previews leave the state unchanged.
func TestEvalStateFailureProbPreview(t *testing.T) {
	draws := []func(*rand.Rand, int, int) (*pipeline.Pipeline, *platform.Platform){deltaInstance, extremeInstance}
	for _, m := range []int{8, 64, 80, 128} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed*31 + int64(m)))
			n := 2 + rng.Intn(6)
			p, pl := draws[seed%2](rng, n, m)
			ev, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			st, before, moved := ev.NewState(), ev.NewState(), ev.NewState()
			st.Load(randomValidMapping(rng, n, m))
			before.CopyFrom(st)
			check := func(what string, preview float64, apply func(*EvalState)) {
				t.Helper()
				assertStatesEqual(t, before, st)
				moved.CopyFrom(st)
				apply(moved)
				if got := moved.FailureProb(); preview != got {
					t.Fatalf("m=%d seed=%d %s: previewed FP %v, applied %v", m, seed, what, preview, got)
				}
			}
			free := make([]int, 0, m)
			for u := 0; u < m; u++ {
				if !st.Used().Test(u) {
					free = append(free, u)
				}
			}
			for j := 0; j < st.NumIntervals(); j++ {
				for _, u := range free {
					check("add", st.FailureProbWith(j, st.FailureFactorWith(j, -1, u), -1, 0),
						func(s *EvalState) { s.AddReplica(j, u) })
					for cut := st.First(j) + 1; cut <= st.End(j); cut++ {
						check("split-new-right", st.FailureProbWithSplit(j, u, false), func(s *EvalState) {
							s.AddReplica(j, u)
							right := bitset.Make(m)
							right.Add(u)
							s.Split(j, cut, right)
						})
						check("split-new-left", st.FailureProbWithSplit(j, u, true), func(s *EvalState) {
							right := bitset.Make(m)
							right.Copy(s.Mask(j))
							s.Split(j, cut, right)
							s.AddReplica(j, u)
						})
					}
				}
				replicas := st.Mask(j).AppendBits(nil)
				for _, u := range replicas {
					for _, u2 := range free {
						check("replace", st.FailureProbWith(j, st.FailureFactorWith(j, u, u2), -1, 0),
							func(s *EvalState) { s.ReplaceReplica(j, u, u2) })
					}
					if len(replicas) < 2 {
						continue
					}
					check("remove", st.FailureProbWith(j, st.FailureFactorWith(j, u, -1), -1, 0),
						func(s *EvalState) { s.RemoveReplica(j, u) })
					for j2 := 0; j2 < st.NumIntervals(); j2++ {
						if j2 == j {
							continue
						}
						check("migrate", st.FailureProbWith(j, st.FailureFactorWith(j, u, -1), j2, st.FailureFactorWith(j2, -1, u)),
							func(s *EvalState) { s.MoveReplica(j, j2, u) })
					}
				}
			}
			assertStatesEqual(t, before, st)
		}
	}
}

// TestEvalStateLatencyFloorWithAdd: for every addition on random states at
// stride 1 and stride > 1, on both platform classes and with extreme
// magnitudes (1e±300, overflowing quotients), LatencyFloorWithAdd is at
// most what Latency reads after AddReplica, bitwise — so a floor over a
// latency bound proves the addition infeasible under any monotone
// tolerance test — and equal to it on communication-homogeneous platforms
// and for interval 0. The read leaves the state unchanged.
func TestEvalStateLatencyFloorWithAdd(t *testing.T) {
	draws := []func(*rand.Rand, int, int) (*pipeline.Pipeline, *platform.Platform){deltaInstance, extremeInstance}
	for _, m := range []int{8, 64, 80, 128} {
		var classes [2]int // adds checked on {fully heterogeneous, comm-hom}
		strict := 0
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed*53 + int64(m)))
			n := 2 + rng.Intn(6)
			p, pl := draws[seed%2](rng, n, m)
			ev, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			st, before, moved := ev.NewState(), ev.NewState(), ev.NewState()
			st.Load(randomValidMapping(rng, n, m))
			before.CopyFrom(st)
			for j := 0; j < st.NumIntervals(); j++ {
				for u := 0; u < m; u++ {
					if st.Used().Test(u) {
						continue
					}
					floor := st.LatencyFloorWithAdd(j, u)
					assertStatesEqual(t, before, st)
					moved.CopyFrom(st)
					moved.AddReplica(j, u)
					lat := moved.Latency()
					exact := ev.CommHom() || j == 0
					if !(floor <= lat) || exact && floor != lat {
						t.Fatalf("m=%d seed=%d add(%d, %d): floor %v, applied latency %v (exact=%v)", m, seed, j, u, floor, lat, exact)
					}
					if floor < lat {
						strict++
					}
					if ev.CommHom() {
						classes[1]++
					} else {
						classes[0]++
					}
				}
			}
		}
		if classes[0] == 0 || classes[1] == 0 || strict == 0 {
			t.Errorf("m=%d: checked %d fully heterogeneous and %d comm-hom adds, %d with a strict floor: want all > 0",
				m, classes[0], classes[1], strict)
		}
	}
}
