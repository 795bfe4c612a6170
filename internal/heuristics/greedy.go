package heuristics

import (
	"context"
	"time"

	"repro/internal/mapping"
)

// topKSplit, topKMerge and topKMigrate bound, per move class, the number
// of structural candidates that receive the expensive saturated lookahead
// per improvement round. Every structural candidate is still scored raw
// through the incremental state (cheap); only the most promising of each
// class by that raw score — feasible candidates ranked by objective,
// infeasible ones after them by constraint violation, ties broken by
// enumeration order — are saturated. The legacy sweep saturated every
// candidate, which is what made a full-het m=80 Solve spend ~28s in
// greedy rounds; on small instances (fewer candidates than the class
// quota) the bounded sweep is exhaustive and the policies coincide.
//
// The quota is per class rather than global because the raw score is
// exactly the signal saturation exists to correct: the motivating
// Figure 5 split looks worse than the status quo until the lookahead
// re-replicates the fast half, and a shared list would let raw-neutral
// merges and migrations starve such splits out of the lookahead entirely.
const (
	topKSplit   = 10
	topKMerge   = 4
	topKMigrate = 6
)

// Greedy runs constructive local improvement. It seeds the search with the
// best result of SingleIntervalSweep (plus the full-replication mapping of
// Theorem 1 as an alternative start) and repeatedly applies the best
// improving move among:
//
//   - add an unused processor to an interval's replica set;
//   - remove a replica (keeping at least one per interval);
//   - replace a replica by an unused processor;
//   - split an interval at any point, staffing the new half with an unused
//     processor (on either side) or with half of the old replica set;
//   - merge two adjacent intervals (replica sets united);
//   - move a replica from one interval to another.
//
// Point moves (add/remove/replace) are scored raw; structural moves
// (split/merge/migrate) are scored after *saturation*: a nested greedy
// that re-optimizes replica counts before the comparison. Without the
// lookahead, profitable splits can look worse than the status quo — e.g.
// the paper's Figure 5 instance, where isolating the slow reliable
// processor only pays off once the fast stage is re-replicated tenfold.
// The saturated lookahead is bounded to the per-class raw-best structural
// candidates per round (topKSplit/topKMerge/topKMigrate).
//
// All candidates are scored through the problem's shared incremental
// mapping.EvalState (apply, score, restore the pre-sweep snapshot; no
// Mapping.Clone, zero allocations in the sweeps). Cancellation is polled
// per candidate: a canceled search returns the best feasible mapping
// reached so far alongside an error wrapping the context's cause.
func Greedy(ctx context.Context, pr *Problem) (Result, error) {
	if pr.Recorder != nil {
		defer pr.observeRun("greedy", time.Now())
	}
	best, err := seed(pr)
	if err != nil {
		return Result{}, err
	}
	s, err := newSearcher(pr)
	if err != nil {
		return Result{}, err
	}
	done := ctxDone(ctx)
	s.st.Load(best.Mapping)
	cur := s.saturate(done)
	for {
		if fired(done) {
			return s.result(cur), canceledErr(ctx)
		}
		improved, next := s.bestMove(cur, done)
		if !improved {
			if fired(done) {
				// The round was cut short: report the truncation so the
				// caller can grade the answer as partial.
				return s.result(cur), canceledErr(ctx)
			}
			return s.result(cur), nil
		}
		cur = next
	}
}

// result materializes the searcher's current state.
func (s *searcher) result(met mapping.Metrics) Result {
	return Result{Mapping: s.st.ToMapping(), Metrics: met}
}

// fired reports whether the done channel (possibly nil) is closed.
func fired(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// seed returns the best feasible starting point.
func seed(pr *Problem) (Result, error) {
	best, err := SingleIntervalSweep(pr)
	found := err == nil
	// Full replication is the global FP optimum (Theorem 1); it is the
	// natural start when the FP constraint is tight.
	n, m := pr.Pipe.NumStages(), pr.Plat.NumProcs()
	all := make([]int, m)
	for u := range all {
		all[u] = u
	}
	full := mapping.NewSingleInterval(n, all)
	if met, ok := pr.evaluate(full); ok && pr.feasible(met) {
		if !found || pr.better(met, best.Metrics) {
			best = Result{Mapping: full, Metrics: met}
			found = true
		}
	}
	if !found {
		return Result{}, ErrNotFound
	}
	return best, nil
}

// saturate repeatedly applies the best replica-count adjustment — additions
// when minimizing FP, removals when minimizing latency — until none
// improves (or done fires, which stops at the current state). It mutates
// the searcher's state in place and returns its final metrics. It never
// changes which stages form which interval.
func (s *searcher) saturate(done <-chan struct{}) mapping.Metrics {
	if s.satBase == nil { // only Greedy saturates: spare Repair the state
		s.satBase = s.ev.NewState()
	}
	curMet, _ := s.score()
	for {
		if fired(done) {
			return curMet
		}
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

// rankKey orders structural candidates for the saturated lookahead:
// feasible before infeasible, then by the value (the objective for
// feasible candidates, the constraint violation for infeasible ones),
// then by enumeration order.
type rankKey struct {
	infeasible bool
	val        float64
	idx        int
}

func (a rankKey) less(b rankKey) bool {
	if a.infeasible != b.infeasible {
		return b.infeasible
	}
	if a.val != b.val {
		return a.val < b.val
	}
	return a.idx < b.idx
}

// rankEntry is one structural candidate retained for saturation.
type rankEntry struct {
	key rankKey
	mv  move
}

// bestMove evaluates the candidate moves from the current state — point
// moves raw, the structuralTopK raw-best structural moves after
// saturation — and commits the best strictly improving feasible
// successor, returning its metrics. When done fires mid-round the
// remaining candidates are skipped, so cancellation latency is one
// candidate evaluation.
func (s *searcher) bestMove(curMet mapping.Metrics, done <-chan struct{}) (bool, mapping.Metrics) {
	bestMet := curMet
	improved := false
	s.snap.CopyFrom(s.st)
	tryRaw := func(mv move) {
		if fired(done) {
			return
		}
		mv.apply(s)
		if met, feas := s.score(); feas && s.pr.better(met, bestMet) {
			bestMet, improved = met, true
			s.bestSt.CopyFrom(s.st)
		}
		s.st.CopyFrom(s.snap)
	}

	p := s.st.NumIntervals()
	free := s.freeProcs()

	// Phase 1 — point moves, scored raw.
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

	// Phase 2 — rank every structural move by its raw delta score into the
	// per-class bounded candidate lists.
	topSplit := s.topSplit[:0]
	topMerge := s.topMerge[:0]
	topMigrate := s.topMigrate[:0]
	idx := 0
	offer := func(mv move, top *[]rankEntry, quota int) {
		if fired(done) {
			return
		}
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
			if s.pr.Goal == MinFP {
				key.val = met.Latency - s.pr.Bound
			} else {
				key.val = met.FailureProb - s.pr.Bound
			}
		}
		// Insertion into the bounded, sorted candidate list.
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

	// Phase 3 — saturated lookahead on the retained candidates. Saturation
	// can restore feasibility (e.g. dropping replicas after a split under a
	// latency bound), so infeasible raw candidates are saturated too.
	for _, top := range [][]rankEntry{topSplit, topMerge, topMigrate} {
		for i := range top {
			if fired(done) {
				break
			}
			mv := top[i].mv
			if mv.kind == mvSplitSelf {
				s.setSplitSelfRight(mv.j)
			}
			mv.apply(s)
			met := s.saturate(done)
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
