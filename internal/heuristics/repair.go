package heuristics

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/mapping"
)

// Warm-restart repair: instead of solving the instance from scratch after
// a processor failure, Repair loads the currently deployed mapping into
// the shared incremental mapping.EvalState, evicts the dead replicas in
// place (restaffing or merging intervals that lost their whole replica
// set), and runs a small, bounded number of best-improvement point-move
// rounds that never enroll a banned processor. The result is valid by
// construction and excludes every banned processor; it is returned even
// when the problem's bound can no longer be met (the caller grades the
// violation), because a degraded-but-running mapping beats none.

// repairRounds caps the best-improvement point-move rounds after
// eviction. Each round sweeps add/remove/replace/migrate moves and
// commits the single best strictly-improving one, stopping early at a
// local optimum, so the repair cost is at most repairRounds × one point
// sweep — warm-restart fast, never a full solve. 16 leaves room to walk
// back from a catastrophic failure (e.g. shed most of a big replica set
// to restore a latency bound) while a typical single-crash repair
// converges in two or three rounds.
const repairRounds = 16

// ErrNoAliveProcs is returned when eviction cannot produce any valid
// mapping because every processor is banned.
var ErrNoAliveProcs = fmt.Errorf("heuristics: repair: no alive processor left")

// Repair warm-restarts the search from start under the banned-processor
// set: dead replicas are evicted in place on the incremental state,
// intervals that lost every replica are restaffed with the best free
// alive processor (or merged into a neighbor when none is free), and up
// to repairRounds point-move improvement rounds then re-optimize the
// survivor placement. Moves never enroll banned processors.
//
// The returned mapping is always a valid interval mapping that uses no
// banned processor, even when it violates the problem's bound — callers
// check feasibility themselves and report the violation. The error is
// non-nil only when no valid mapping exists at all (every processor
// banned) or when ctx fired mid-repair (the best state reached so far is
// still returned; grade it partial).
//
// Repair is deterministic: sweeps enumerate moves in a fixed order and
// ties keep the earlier candidate.
func Repair(ctx context.Context, pr *Problem, start *mapping.Mapping, banned bitset.Set) (Result, error) {
	s, err := newSearcher(pr)
	if err != nil {
		return Result{}, err
	}
	s.banned = banned
	s.st.Load(start)
	if err := s.evict(); err != nil {
		return Result{}, err
	}
	done := ctxDone(ctx)
	met, _ := s.score()
	for r := 0; r < repairRounds; r++ {
		if fired(done) {
			return s.result(met), canceledErr(ctx)
		}
		improved, next := s.repairRound(met, done)
		if !improved {
			break
		}
		met = next
	}
	if fired(done) {
		return s.result(met), canceledErr(ctx)
	}
	return s.result(met), nil
}

// evict removes every banned replica from the state in place, then fixes
// intervals left empty: each is restaffed with the statically best free
// alive processor, or merged into a neighbor when no free processor
// remains. Returns ErrNoAliveProcs when eviction cannot end in a valid
// mapping.
func (s *searcher) evict() error {
	st := s.st
	for j := 0; j < st.NumIntervals(); j++ {
		s.replicaIDs(j)
		for _, u := range s.ids {
			if s.banned != nil && s.banned.Test(u) {
				st.RemoveReplica(j, u)
			}
		}
	}
	// Restaff or merge empty intervals left to right. Merging never
	// strands stages (interval counts shrink by fusing neighbors), and
	// each iteration either fixes interval j or reduces the interval
	// count, so the loop terminates.
	for j := 0; j < st.NumIntervals(); {
		if st.Replication(j) > 0 {
			j++
			continue
		}
		if free := s.freeProcs(); len(free) > 0 {
			st.AddReplica(j, s.bestRestaff(free))
			j++
			continue
		}
		switch {
		case st.NumIntervals() == 1:
			return ErrNoAliveProcs
		case j < st.NumIntervals()-1:
			st.Merge(j)
		default:
			st.Merge(j - 1)
			j--
		}
	}
	return nil
}

// bestRestaff picks the restaffing processor from the free pool by a
// static preference — no metric read, because other intervals may still
// be transiently empty during eviction. Minimizing FP favors reliability
// weighted by speed (the hybrid order); minimizing latency favors speed.
func (s *searcher) bestRestaff(free []int) int {
	pl := s.pr.Plat
	best, bestScore := free[0], math.Inf(-1)
	for _, u := range free {
		var sc float64
		if s.pr.Goal == MinFP {
			fp := pl.FailProb[u]
			if fp <= 0 {
				return u
			}
			sc = -math.Log(fp) * pl.Speed[u]
		} else {
			sc = pl.Speed[u]
		}
		if sc > bestScore {
			best, bestScore = u, sc
		}
	}
	return best
}

// violation measures how far metrics exceed the problem's bound (≤ 0 when
// feasible).
func (pr *Problem) violation(met mapping.Metrics) float64 {
	if pr.Goal == MinFP {
		return met.Latency - pr.Bound
	}
	return met.FailureProb - pr.Bound
}

// repairBetter orders repair candidates: feasible beats infeasible, among
// infeasible states the smaller bound violation wins, and otherwise the
// problem's usual objective ordering applies. This is what lets a repair
// climb back toward feasibility after a failure pushed the deployed
// mapping over its bound.
func repairBetter(pr *Problem, a, b mapping.Metrics) bool {
	fa, fb := pr.feasible(a), pr.feasible(b)
	if fa != fb {
		return fa
	}
	if !fa {
		va, vb := pr.violation(a), pr.violation(b)
		if va != vb {
			return va < vb
		}
	}
	return pr.better(a, b)
}

// fpCap returns the failure probability above which a candidate cannot be
// both feasible and better than best, whatever its latency: under MinFP a
// strictly larger FP loses (an equal one falls through to the latency
// tie-break); under MinLatency an FP over the bound is infeasible. Once
// best is feasible, such a candidate also loses under repairBetter.
func (pr *Problem) fpCap(best mapping.Metrics) float64 {
	if pr.Goal == MinFP {
		return best.FailureProb
	}
	return mapping.FailProbCap(pr.Bound)
}

// repairRound sweeps the point-move neighborhood (add, remove, replace,
// migrate — no structural moves, repair must stay cheap) and commits the
// best strictly-improving successor under repairBetter. Cancellation is
// polled per candidate.
//
// Each candidate's FP is previewed first (a product over replica sets,
// where scoring pays the Eq. (1)/(2) term recomputes); one that cannot
// beat the incumbent on FP alone is skipped unapplied. The preview equals
// the scored FP bitwise, so exactly the skipped candidates would have
// lost: the sweep picks the same winner as scoring every candidate.
func (s *searcher) repairRound(curMet mapping.Metrics, done <-chan struct{}) (bool, mapping.Metrics) {
	bestMet := curMet
	improved := false
	fpMax, capped := s.pr.fpCap(bestMet), s.pr.feasible(bestMet)
	s.snap.CopyFrom(s.st)
	try := func(mv move) {
		if fired(done) || capped && s.previewFP(&mv) > fpMax {
			return
		}
		mv.apply(s)
		if met, _ := s.score(); repairBetter(s.pr, met, bestMet) {
			bestMet, improved = met, true
			fpMax, capped = s.pr.fpCap(bestMet), s.pr.feasible(bestMet)
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
