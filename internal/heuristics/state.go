package heuristics

import (
	"repro/internal/bitset"
	"repro/internal/mapping"
)

// searcher is the per-search bundle shared by Greedy, Anneal and Repair:
// the problem, its cached evaluator, the live search state, and reusable
// scratch (snapshot states, free-processor buffer, split mask row) sized
// once so the move sweeps run without heap allocations.
type searcher struct {
	pr *Problem
	ev *mapping.Evaluator
	st *mapping.EvalState // the current search state

	m    int
	free []int // reusable unused-processor buffer (ascending ids)
	ids  []int // reusable replica-id buffer (ascending ids)
	// banned, when non-nil, removes processors from the candidate pool:
	// freeProcs never offers them, so no move enrolls one. Repair sets it
	// to the failed set of a fault-injection campaign; the full searches
	// leave it nil.
	banned bitset.Set
	// Greedy's per-class bounded structural candidate lists.
	topSplit, topMerge, topMigrate []rankEntry

	// Scratch replica-set row for the split moves. One row is enough:
	// moves are applied one at a time, and the solvers keep winners as
	// state snapshots, never as replayable moves.
	right bitset.Set

	snap    *mapping.EvalState // the state candidates are restored to (doc.go)
	bestSt  *mapping.EvalState // best successor found during a sweep
	satBase *mapping.EvalState // saturate's per-round base, made on first use
}

func newSearcher(pr *Problem) (*searcher, error) {
	ev, err := pr.evaluator()
	if err != nil {
		return nil, err
	}
	m := ev.NumProcs()
	return &searcher{
		pr:         pr,
		ev:         ev,
		st:         ev.NewState(),
		m:          m,
		free:       make([]int, 0, m),
		ids:        make([]int, 0, m),
		topSplit:   make([]rankEntry, 0, topKSplit),
		topMerge:   make([]rankEntry, 0, topKMerge),
		topMigrate: make([]rankEntry, 0, topKMigrate),
		right:      bitset.Make(m),
		snap:       ev.NewState(),
		bestSt:     ev.NewState(),
	}, nil
}

// freeProcs refills and returns the searcher's buffer of processors not
// enrolled by the current state (and not banned), in ascending id order.
func (s *searcher) freeProcs() []int {
	s.free = s.free[:0]
	used := s.st.Used()
	for u := 0; u < s.m; u++ {
		if used.Test(u) || (s.banned != nil && s.banned.Test(u)) {
			continue
		}
		s.free = append(s.free, u)
	}
	return s.free
}

// replicaIDs refills the searcher's id buffer with interval j's replica
// set in ascending order (a stable copy the sweeps can iterate while
// applying and restoring moves on the same interval).
func (s *searcher) replicaIDs(j int) {
	s.ids = s.st.Mask(j).AppendBits(s.ids[:0])
}

// nthProc returns the i-th smallest processor id in mask (i zero-based;
// the caller guarantees i < mask.Count()).
func nthProc(mask bitset.Set, i int) int {
	u := -1
	for k := 0; k <= i; k++ {
		u = mask.NextOne(u + 1)
	}
	return u
}

// moveKind enumerates the neighborhood of the local searches.
type moveKind uint8

const (
	// mvAdd adds the unused processor u to interval j's replica set.
	mvAdd moveKind = iota
	// mvRemove withdraws replica u from interval j (which keeps ≥ 1).
	mvRemove
	// mvReplace swaps replica u of interval j for the unused u2.
	mvReplace
	// mvMigrate moves replica u from interval j (which keeps ≥ 1) to j2.
	mvMigrate
	// mvSplitSelf splits interval j before stage cut, sending the replica
	// set stored in the searcher's scratch row to the right half (a proper
	// non-empty subset of the interval's replicas).
	mvSplitSelf
	// mvSplitNewRight splits interval j before stage cut; the right half
	// is staffed by the single unused processor u, the left keeps the set.
	mvSplitNewRight
	// mvSplitNewLeft splits interval j before stage cut; the left half is
	// staffed by the single unused processor u, the right half inherits
	// the old set (the winning structure of the paper's Figure 5 example).
	mvSplitNewLeft
	// mvMerge fuses intervals j and j+1 (replica sets united).
	mvMerge
)

// move is one neighborhood step. apply mutates the searcher's state in
// place; nothing is recorded to reverse it. Callers score the moved state
// and then restore a snapshot taken before the move (EvalState.CopyFrom),
// see the package invariants in doc.go. An mvSplitSelf move reads the
// searcher's scratch row, so setSplitSelfRight must run on the pre-move
// state before each apply.
type move struct {
	kind moveKind
	j    int
	j2   int // mvMigrate: destination interval
	cut  int // splits: first stage of the right half
	u    int
	u2   int // mvReplace: incoming processor
}

func (mv *move) apply(s *searcher) {
	st := s.st
	switch mv.kind {
	case mvAdd:
		st.AddReplica(mv.j, mv.u)
	case mvRemove:
		st.RemoveReplica(mv.j, mv.u)
	case mvReplace:
		st.ReplaceReplica(mv.j, mv.u, mv.u2)
	case mvMigrate:
		st.MoveReplica(mv.j, mv.j2, mv.u)
	case mvSplitSelf:
		st.Split(mv.j, mv.cut, s.right)
	case mvSplitNewRight:
		st.AddReplica(mv.j, mv.u)
		s.right.Zero()
		s.right.Add(mv.u)
		st.Split(mv.j, mv.cut, s.right)
	case mvSplitNewLeft:
		s.right.Copy(st.Mask(mv.j))
		st.Split(mv.j, mv.cut, s.right) // left transiently empty
		st.AddReplica(mv.j, mv.u)
	case mvMerge:
		st.Merge(mv.j)
	}
}

// setSplitSelfRight loads the scratch row with the canonical self-split
// right half of interval j: the ⌈k/2⌉ highest replica ids (the ascending-
// order analogue of the legacy Alloc[k/2:] split).
func (s *searcher) setSplitSelfRight(j int) {
	mask := s.st.Mask(j)
	k := mask.Count()
	s.right.Zero()
	skip := k / 2
	i := 0
	mask.ForEach(func(u int) bool {
		if i >= skip {
			s.right.Add(u)
		}
		i++
		return true
	})
}

// score returns the current state's metrics plus the feasibility verdict.
// When the test hook is installed it cross-checks the incremental metrics
// against the legacy clone-path evaluation (see reference_test.go).
func (s *searcher) score() (mapping.Metrics, bool) {
	met := s.st.Metrics()
	if testScoreCheck != nil {
		testScoreCheck(s.pr, s.st, met)
	}
	return met, s.pr.feasible(met)
}

// testScoreCheck, when non-nil (tests only), receives every metric the
// searchers read from the incremental state, so the equivalence suite can
// assert bitwise identity with the legacy Clone-and-Evaluate path at
// every single scoring point of a search.
var testScoreCheck func(*Problem, *mapping.EvalState, mapping.Metrics)
