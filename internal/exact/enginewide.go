package exact

import (
	"repro/internal/bitset"
	"repro/internal/mapping"
)

// This file is the wide-platform face of the enumeration engine: the
// same pruned, parallel branch-and-bound as engine.go's narrow search,
// with replica sets held in multi-word bitset rows instead of uint64
// registers, so any processor count is supported (engine.go documents the
// split). All per-depth state lives in flat buffers allocated once per
// worker — descending and backtracking never allocate and never need
// undo writes, preserving the zero-allocation contract of the narrow
// path.
//
// Task decomposition: the narrow replication path indexes first-interval
// subtrees as end·(2^m−1)+subset, which overflows an int64 past m = 62.
// The wide path fans out by (first-interval end, lowest replica id)
// instead — n·m tasks for every m — and enumerates, within task
// (end, p), the first-interval replica sets whose lowest processor is p:
// {p} ∪ T for every T ⊆ {p+1, …, m−1}, T walked in the decreasing
// DecAnd order. Tasks remain totally ordered and each subtree is
// explored sequentially by one worker, so results merge deterministically
// for every worker count, exactly as on the narrow path.

// searchWide is one worker's private state for the wide search. All
// buffers are indexed by depth (the number of intervals already chosen);
// mask-valued state uses rows of eng.stride words.
type searchWide struct {
	eng   *engine
	prune pruneFunc
	visit visitFunc
	task  int64

	ends  []int
	masks []uint64 // chosen replica sets, row d = interval d
	used  []uint64 // used[d] = union of rows 0..d-1, row-indexed like masks
	free  []uint64 // per-depth scratch: processors still unassigned
	sub   []uint64 // per-depth scratch: the subset iterator
	rest  []uint64 // task-level scratch: {p+1, …, m−1} and the T iterator
	// sib is the batch-evaluation scratch (see search.sib in engine.go).
	sib []mapping.Sibling
	// prevProc[d] is interval d's sole replica on non-replication levels,
	// tracked so the batch prefix never has to scan mask rows for it.
	prevProc []int
	localStats
	// lat and succ mirror search.lat / search.succ (see engine.go).
	lat  []float64
	succ []float64
}

func (s *searchWide) maskRow(d int) bitset.Set {
	return bitset.Set(s.masks[d*s.eng.stride : (d+1)*s.eng.stride])
}

func (s *searchWide) usedRow(d int) bitset.Set {
	return bitset.Set(s.used[d*s.eng.stride : (d+1)*s.eng.stride])
}

func (s *searchWide) freeRow(d int) bitset.Set {
	return bitset.Set(s.free[d*s.eng.stride : (d+1)*s.eng.stride])
}

func (s *searchWide) subRow(d int) bitset.Set {
	return bitset.Set(s.sub[d*s.eng.stride : (d+1)*s.eng.stride])
}

// workerWide claims (end, lowest replica id) first-interval subtrees
// until the space or the budget is exhausted.
func (g *engine) workerWide(prune pruneFunc, visit visitFunc) {
	W := g.stride
	s := &searchWide{
		eng:   g,
		prune: prune,
		visit: visit,
		ends:  make([]int, g.n),
		masks: make([]uint64, g.n*W),
		used:  make([]uint64, (g.n+1)*W),
		free:  make([]uint64, (g.n+1)*W),
		sub:   make([]uint64, (g.n+1)*W),
		rest:  make([]uint64, 2*W),
		lat:   make([]float64, g.n+1),
		succ:  make([]float64, g.n+1),
	}
	s.succ[0] = 1
	if g.ev != nil && !g.replication {
		s.sib = make([]mapping.Sibling, g.m)
		s.prevProc = make([]int, g.n)
	}
	defer g.flushStats(&s.localStats)
	firstSub := bitset.Set(s.sub[:W]) // depth-0 subset scratch
	rest := bitset.Set(s.rest[:W])
	iterT := bitset.Set(s.rest[W:])
	for !g.abort.Load() {
		t := g.nextTask.Add(1) - 1
		if t >= g.totalTasks {
			return
		}
		end := int(t / g.subsPerEnd)
		p := int(t % g.subsPerEnd)
		s.task = t
		if !g.replication {
			// Singleton first interval {p}; it equals the full set only
			// when m = 1, in which case stages must not remain.
			if end < g.n-1 && g.m == 1 {
				continue
			}
			firstSub.Zero()
			firstSub.Add(p)
			if s.prevProc != nil {
				s.prevProc[0] = p
			}
			if !s.explore(0, 0, end, firstSub) {
				return
			}
			continue
		}
		// Replication: every first-interval set with lowest replica p is
		// {p} ∪ T, T ⊆ rest = {p+1, …, m−1}, T in decreasing DecAnd order
		// (T = rest first, T = ∅ — the singleton {p} — last).
		rest.Copy(g.fullW)
		for q := 0; q <= p; q++ {
			rest.Remove(q)
		}
		iterT.Copy(rest)
		for {
			firstSub.Copy(iterT)
			firstSub.Add(p)
			if !(end < g.n-1 && firstSub.Equal(g.fullW)) {
				if !s.explore(0, 0, end, firstSub) {
					return
				}
			}
			if iterT.IsZero() {
				break
			}
			iterT.DecAnd(rest)
		}
	}
}

// explore pushes interval d = [first, end] on replica set sub and, when
// the subtree survives pruning, recurses into the remaining stages. It
// returns false when the whole enumeration must stop (the engine-level
// abort), mirroring the narrow worker's push + rec pair.
func (s *searchWide) explore(d, first, end int, sub bitset.Set) bool {
	if !s.push(d, first, end, sub) {
		return true // pruned, keep enumerating siblings
	}
	s.usedRow(d+1).Or(s.usedRow(d), sub)
	return s.rec(end+1, d+1)
}

// push mirrors search.push for multi-word replica sets: it records the
// interval, extends the incremental latency and success-probability
// accumulators through the Evaluator's *W methods (same operation order,
// hence bitwise-identical complete-node metrics), and applies pruning.
func (s *searchWide) push(d, first, end int, sub bitset.Set) bool {
	ev := s.eng.ev
	s.ends[d] = end
	s.maskRow(d).Copy(sub)
	if ev == nil {
		return true
	}
	s.nodes++
	s.succ[d+1] = s.succ[d] * ev.SuccessFactorW(sub)
	var newLat, lb float64
	if s.eng.commHom {
		commIn, compute := ev.IntervalEq1CostW(first, end, sub)
		newLat = s.lat[d] + commIn
		newLat += compute
		lb = newLat + ev.TailLatencyLB(end+1)
	} else {
		if d == 0 {
			newLat = ev.InputSumW(sub)
		} else {
			prevFirst := 0
			if d > 1 {
				prevFirst = s.ends[d-2] + 1
			}
			newLat = s.lat[d] + ev.IntervalEq2TermW(prevFirst, s.ends[d-1], s.maskRow(d-1), sub)
		}
		lb = newLat + ev.IntervalComputeLBW(first, end, sub) + ev.TailLatencyLB(end+1)
	}
	s.lat[d+1] = newLat
	if s.prune != nil && s.prune(lb, 1-s.succ[d+1]) {
		s.prunes++
		return false
	}
	return true
}

// rec extends the partial mapping (stages [0, start) assigned, depth
// intervals chosen, usedRow(depth) enrolled) with every completion. It
// returns false when the whole enumeration must stop.
//
// Non-replication levels with an evaluator run the batch path of
// search.rec (engine.go documents the bitwise contract), scoring every
// singleton sibling of one (start, end) prefix through a single
// EvaluateManyW call and completing final-stage blocks inline.
func (s *searchWide) rec(start, depth int) bool {
	g := s.eng
	if g.abort.Load() {
		return false
	}
	if start == g.n {
		return s.complete(depth)
	}
	free := s.freeRow(depth)
	free.AndNot(g.fullW, s.usedRow(depth))
	if free.IsZero() {
		return true
	}
	last := g.n - 1
	if g.replication || g.ev == nil {
		for end := start; end <= last; end++ {
			if g.replication {
				sub := s.subRow(depth)
				sub.Copy(free)
				for {
					if !(end < last && sub.Equal(free)) {
						if !s.explore(depth, start, end, sub) {
							return false
						}
					}
					if !sub.DecAnd(free) {
						break
					}
				}
			} else {
				sub := s.subRow(depth)
				freeIsSingleton := free.Count() == 1
				for u := free.NextOne(0); u >= 0; u = free.NextOne(u + 1) {
					if end < last && freeIsSingleton {
						continue // sub == free: no processor left for the rest
					}
					sub.Zero()
					sub.Add(u)
					if !s.explore(depth, start, end, sub) {
						return false
					}
				}
			}
		}
		return true
	}
	ev := g.ev
	pre := mapping.BatchPrefix{Depth: depth, Lat: s.lat[depth], Succ: s.succ[depth]}
	if !g.commHom {
		// rec always runs at depth ≥ 1 (the first interval comes from the
		// task loop), so interval depth−1 exists and is a singleton.
		pre.PrevLast = s.ends[depth-1]
		if depth > 1 {
			pre.PrevFirst = s.ends[depth-2] + 1
		}
		pre.PrevProc = s.prevProc[depth-1]
	}
	freeSingleton := free.Count() == 1
	for end := start; end <= last; end++ {
		if end < last && freeSingleton {
			continue // the lone free processor must serve the final interval
		}
		nb := ev.EvaluateManyW(pre, start, end, free, s.sib)
		s.batchCalls++
		s.batchCands += int64(nb)
		s.nodes += int64(nb)
		if end == last {
			if !s.completeBatch(depth, end, nb) {
				return false
			}
			continue
		}
		tail := ev.TailLatencyLB(end + 1)
		for i := 0; i < nb; i++ {
			sb := &s.sib[i]
			if s.prune != nil && s.prune(sb.LB+tail, 1-sb.Succ) {
				s.prunes++
				continue
			}
			s.ends[depth] = end
			mrow := s.maskRow(depth)
			mrow.Zero()
			mrow.Add(sb.Proc)
			s.prevProc[depth] = sb.Proc
			s.lat[depth+1] = sb.Lat
			s.succ[depth+1] = sb.Succ
			s.usedRow(depth+1).Or(s.usedRow(depth), mrow)
			if !s.rec(end+1, depth+1) {
				return false
			}
		}
	}
	return true
}

// completeBatch is the wide twin of search.completeBatch: surviving
// final-stage siblings are budget-charged and visited inline with the
// metrics EvaluateManyW already produced.
func (s *searchWide) completeBatch(depth, end, nb int) bool {
	g := s.eng
	tailN := g.ev.TailLatencyLB(g.n)
	var met mapping.Metrics
	for i := 0; i < nb; i++ {
		sb := &s.sib[i]
		if s.prune != nil && s.prune(sb.LB+tailN, 1-sb.Succ) {
			s.prunes++
			continue
		}
		if g.counter.Add(1) > g.budget {
			g.overBudget.Store(true)
			g.abort.Store(true)
			return false
		}
		met.Latency = sb.Final
		met.FailureProb = 1 - sb.Succ
		s.ends[depth] = end
		mrow := s.maskRow(depth)
		mrow.Zero()
		mrow.Add(sb.Proc)
		if !s.visit(s.task, s.ends[:depth+1], s.masks[:(depth+1)*g.stride], met) {
			g.abort.Store(true)
			return false
		}
	}
	return true
}

// complete finalizes the candidate's metrics and hands it to the
// visitor, charging the enumeration budget — the wide twin of
// search.complete.
func (s *searchWide) complete(depth int) bool {
	g := s.eng
	if g.counter.Add(1) > g.budget {
		g.overBudget.Store(true)
		g.abort.Store(true)
		return false
	}
	var met mapping.Metrics
	if ev := g.ev; ev != nil {
		if g.commHom {
			met.Latency = s.lat[depth] + ev.TailLatencyLB(g.n) // exact δ_n/b
		} else {
			first := 0
			if depth > 1 {
				first = s.ends[depth-2] + 1
			}
			met.Latency = s.lat[depth] + ev.IntervalEq2FinalTermW(first, s.ends[depth-1], s.maskRow(depth-1))
		}
		met.FailureProb = 1 - s.succ[depth]
	}
	if !s.visit(s.task, s.ends[:depth], s.masks[:depth*g.stride], met) {
		g.abort.Store(true)
		return false
	}
	return true
}
