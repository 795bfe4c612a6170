package exact

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/mapping"
	"repro/internal/telemetry"
)

// This file is the shared enumeration engine behind the four exact
// solvers and the throughput package's tri-criteria enumeration. It
// replaces the per-node [][]int materialization of the original
// enumerators with interval end boundaries + replica bitmasks, evaluates
// candidates incrementally through mapping.Evaluator with zero heap
// allocations, supports branch-and-bound pruning (prefix latency lower
// bound / monotone failure-probability prefix against an incumbent or a
// threshold), and fans the search out over worker goroutines by the
// choice of the first interval — its last stage and its replica set —
// exactly the decomposition ParetoFrontParallel pioneered.
//
// Two mask representations share the engine scaffolding (task claiming,
// budget, abort flag, incumbent, cancellation watcher):
//
//   - the narrow search of this file keeps replica sets in uint64
//     registers and covers m ≤ 64 (m ≤ 62 with replication, where task
//     indices pack end·(2^m−1)+subset into an int64);
//   - the wide search of enginewide.go stores replica sets as multi-word
//     bitset rows in flat per-depth buffers and covers any m, fanning out
//     by (first-interval end, lowest replica id) instead.
//
// Both paths run identical pruning, budget accounting, tie-breaking and
// cancellation; visitors receive masks as a flat []uint64 buffer of
// engine.stride words per interval (stride 1 on the narrow path, i.e.
// exactly the legacy one-word-per-interval slice).
//
// Determinism: every complete mapping is reported together with the index
// of the first-interval subtree (task) it belongs to, tasks are
// enumerated in a fixed order, and each subtree is explored sequentially
// by exactly one worker. Incumbent pruning is strict (subtrees are cut
// only when provably worse than the incumbent, never on ties), so
// merging per-worker results in task order yields the same answer for
// every worker count.

// pruneFunc decides whether to cut the subtree below a partial mapping.
// lbLat is a lower bound on the latency of every completion; prefixFP is
// the failure probability of the already-assigned intervals (a lower
// bound as well: FP is non-decreasing in added intervals).
type pruneFunc func(lbLat, prefixFP float64) bool

// visitFunc receives each complete enumerated mapping: the subtree index
// it was found in, its boundary representation (reused between calls —
// copy to retain; masks is a flat buffer of engine.stride words per
// interval), and its metrics (zero when the engine runs without an
// Evaluator). Returning false stops the whole enumeration early.
type visitFunc func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool

// engine carries the state shared by all workers of one enumeration.
type engine struct {
	ev          *mapping.Evaluator // nil: enumerate only, no metrics/pruning
	n, m        int
	stride      int        // bitset words per replica set (1 when m ≤ 64)
	wide        bool       // multi-word search + (end, min replica) tasks
	full        uint64     // narrow only: the all-processors mask
	fullW       bitset.Set // wide only: the all-processors set
	replication bool
	commHom     bool

	ctx        context.Context // nil: never canceled
	budget     int64
	counter    atomic.Int64 // complete mappings evaluated
	abort      atomic.Bool
	overBudget atomic.Bool
	canceled   atomic.Bool
	rec        *telemetry.Recorder // nil: no telemetry

	nextTask   atomic.Int64
	totalTasks int64
	subsPerEnd int64

	stats searchStats // aggregated worker-local counters (flushed at worker exit)
}

// searchStats aggregates the per-worker search telemetry. Workers count
// into plain int64 locals and flush once when they exit, so the hot path
// never touches shared cache lines; engine.run folds the aggregate into
// the telemetry registry after the fan-out completes.
type searchStats struct {
	nodes      atomic.Int64 // candidate nodes scored (batch siblings + pushes)
	prunes     atomic.Int64 // subtrees cut by the shared bound / constraint
	batchCalls atomic.Int64 // EvaluateMany block calls
	batchCands atomic.Int64 // siblings scored across those blocks
}

// localStats is the per-worker face of searchStats.
type localStats struct {
	nodes, prunes, batchCalls, batchCands int64
}

func (g *engine) flushStats(l *localStats) {
	g.stats.nodes.Add(l.nodes)
	g.stats.prunes.Add(l.prunes)
	g.stats.batchCalls.Add(l.batchCalls)
	g.stats.batchCands.Add(l.batchCands)
}

func newEngine(ev *mapping.Evaluator, n, m int, opts Options) (*engine, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("exact: need n>0 and m>0, got n=%d m=%d", n, m)
	}
	g := &engine{
		ev:          ev,
		n:           n,
		m:           m,
		stride:      bitset.Words(m),
		replication: opts.Replication,
		ctx:         opts.Ctx,
		budget:      opts.maxEnum(),
		rec:         opts.Recorder,
	}
	if ev != nil {
		g.commHom = ev.CommHom()
	}
	// The narrow (uint64-register) search covers m ≤ 64; with replication
	// its task indices pack end·(2^m−1)+subset into an int64, so m ≤ 62.
	// Beyond either limit the multi-word wide search takes over with the
	// overflow-free (end, lowest replica id) task decomposition.
	g.wide = opts.forceWide || m > mapping.MaxEvalProcs ||
		(opts.Replication && m > maxReplicationProcs)
	if g.wide {
		g.fullW = bitset.Make(m)
		g.fullW.Fill(m)
		g.subsPerEnd = int64(m)
	} else {
		if m == 64 {
			g.full = ^uint64(0)
		} else {
			g.full = 1<<uint(m) - 1
		}
		if opts.Replication {
			g.subsPerEnd = int64(1)<<uint(m) - 1
		} else {
			g.subsPerEnd = int64(m)
		}
	}
	if int64(n) > math.MaxInt64/g.subsPerEnd {
		return nil, fmt.Errorf("exact: instance too large to enumerate (n=%d, m=%d)", n, m)
	}
	g.totalTasks = int64(n) * g.subsPerEnd
	return g, nil
}

// run drains the task space with the given worker count. newWorker is
// invoked once per worker (with indices 0..workers-1) and returns that
// worker's prune and visit hooks; prune may be nil.
//
// When the engine carries a cancellable context, a watcher goroutine
// flips the abort flag as soon as the context is done; every worker
// checks that flag on each recursion entry, so cancellation latency is
// bounded by one sibling block (the m candidates a single EvaluateMany
// call scores), not one subtree. A canceled run returns an error
// wrapping both ErrCanceled and the context's cause.
func (g *engine) run(workers int, newWorker func(w int) (pruneFunc, visitFunc)) error {
	if g.rec != nil {
		// One-shot accounting per run: the inner loop never touches the
		// recorder, so the nil-recorder path and the hot path are identical.
		started := time.Now()
		defer func() {
			g.rec.Counter("exact_runs_total").Inc()
			g.rec.Counter("exact_enumerated_total").Add(g.counter.Load())
			g.rec.Counter("exact_nodes_total").Add(g.stats.nodes.Load())
			g.rec.Counter("exact_incumbent_prunes_total").Add(g.stats.prunes.Load())
			g.rec.Counter("exact_batch_calls_total").Add(g.stats.batchCalls.Load())
			g.rec.Counter("exact_batch_candidates_total").Add(g.stats.batchCands.Load())
			g.rec.Observe("exact_search_duration", time.Since(started))
		}()
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if int64(workers) > g.totalTasks {
		workers = int(g.totalTasks)
	}
	var stopWatch chan struct{}
	if g.ctx != nil {
		if done := g.ctx.Done(); done != nil {
			stopWatch = make(chan struct{})
			go func() {
				select {
				case <-done:
					g.canceled.Store(true)
					g.abort.Store(true)
				case <-stopWatch:
				}
			}()
		}
	}
	if workers <= 1 {
		prune, visit := newWorker(0)
		g.runWorker(prune, visit)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			prune, visit := newWorker(w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.runWorker(prune, visit)
			}()
		}
		wg.Wait()
	}
	if stopWatch != nil {
		close(stopWatch)
	}
	if g.canceled.Load() {
		return canceledErr(g.ctx)
	}
	if g.overBudget.Load() {
		return ErrBudget
	}
	return nil
}

// runWorker dispatches one worker onto the mask representation the
// engine selected at construction.
func (g *engine) runWorker(prune pruneFunc, visit visitFunc) {
	if g.wide {
		g.workerWide(prune, visit)
	} else {
		g.worker(prune, visit)
	}
}

// worker claims first-interval subtrees until the space or the budget is
// exhausted.
func (g *engine) worker(prune pruneFunc, visit visitFunc) {
	s := &search{
		eng:   g,
		prune: prune,
		visit: visit,
		ends:  make([]int, g.n),
		masks: make([]uint64, g.n),
		lat:   make([]float64, g.n+1),
		succ:  make([]float64, g.n+1),
	}
	s.succ[0] = 1
	if g.ev != nil && !g.replication {
		s.sib = make([]mapping.Sibling, g.m)
	}
	defer g.flushStats(&s.localStats)
	for !g.abort.Load() {
		t := g.nextTask.Add(1) - 1
		if t >= g.totalTasks {
			return
		}
		end := int(t / g.subsPerEnd)
		var sub uint64
		if g.replication {
			sub = uint64(t%g.subsPerEnd) + 1
		} else {
			sub = 1 << uint(t%g.subsPerEnd)
		}
		if end < g.n-1 && sub == g.full {
			continue // no processor left for the remaining stages
		}
		s.task = t
		if !s.push(0, 0, end, sub) {
			continue // pruned at the root
		}
		if !s.rec(end+1, sub, 1) {
			return
		}
	}
}

// search is one worker's private state. All slices are indexed by depth
// (the number of intervals already chosen) so descending and backtracking
// never allocate and never need undo writes.
type search struct {
	eng   *engine
	prune pruneFunc
	visit visitFunc
	task  int64

	ends  []int
	masks []uint64
	// sib is the batch-evaluation scratch: every non-replication level
	// scores all singleton siblings of one (start, end) prefix through a
	// single Evaluator.EvaluateMany call (m entries, allocated once per
	// worker, so the per-node path stays allocation-free).
	sib []mapping.Sibling
	localStats
	// lat[d] is the charged latency after d intervals: on comm-hom
	// platforms the full Eq. (1) terms of intervals 0..d-1; on fully
	// heterogeneous platforms the Eq. (2) input sum plus the full terms of
	// intervals 0..d-2 (interval d-1's term needs its successor set and is
	// charged when that successor is chosen).
	lat []float64
	// succ[d] is the success-probability product over intervals 0..d-1.
	succ []float64
}

// push records interval d = [first, end] on replica set sub, extends the
// incremental accumulators, and applies pruning. It reports whether the
// subtree should be explored. The accumulation mirrors the slice-based
// evaluators addition for addition so complete-node metrics are bitwise
// identical to mapping.Evaluate.
func (s *search) push(d, first, end int, sub uint64) bool {
	ev := s.eng.ev
	s.ends[d] = end
	s.masks[d] = sub
	if ev == nil {
		return true
	}
	s.nodes++
	s.succ[d+1] = s.succ[d] * ev.SuccessFactor(sub)
	var newLat, lb float64
	if s.eng.commHom {
		commIn, compute := ev.IntervalEq1Cost(first, end, sub)
		newLat = s.lat[d] + commIn
		newLat += compute
		lb = newLat + ev.TailLatencyLB(end+1)
	} else {
		if d == 0 {
			newLat = ev.InputSum(sub)
		} else {
			prevFirst := 0
			if d > 1 {
				prevFirst = s.ends[d-2] + 1
			}
			newLat = s.lat[d] + ev.IntervalEq2Term(prevFirst, s.ends[d-1], s.masks[d-1], sub)
		}
		lb = newLat + ev.IntervalComputeLB(first, end, sub) + ev.TailLatencyLB(end+1)
	}
	s.lat[d+1] = newLat
	if s.prune != nil && s.prune(lb, 1-s.succ[d+1]) {
		s.prunes++
		return false
	}
	return true
}

// rec extends the partial mapping (stages [0, start) assigned on the
// processors in used, depth intervals chosen) with every completion.
// It returns false when the whole enumeration must stop.
//
// Non-replication levels with an evaluator run the batch path: one
// EvaluateMany call scores every singleton sibling of the (start, end)
// prefix — sharing the previous interval's Eq. (2) term, the Eq. (1)
// input transfer and the work window across the block — and final-stage
// blocks complete inline, skipping the per-candidate push/rec/complete
// chain entirely. Candidate order, pruning decisions, budget charging and
// visit order are identical to the single-candidate path, so outputs are
// bitwise-unchanged.
func (s *search) rec(start int, used uint64, depth int) bool {
	g := s.eng
	if g.abort.Load() {
		return false
	}
	if start == g.n {
		return s.complete(depth)
	}
	free := g.full &^ used
	if free == 0 {
		return true
	}
	last := g.n - 1
	if g.replication || g.ev == nil {
		for end := start; end <= last; end++ {
			if g.replication {
				for sub := free; sub != 0; sub = (sub - 1) & free {
					if end < last && sub == free {
						continue
					}
					if !s.push(depth, start, end, sub) {
						continue
					}
					if !s.rec(end+1, used|sub, depth+1) {
						return false
					}
				}
			} else {
				for bm := free; bm != 0; bm &= bm - 1 {
					sub := bm & -bm
					if end < last && sub == free {
						continue
					}
					if !s.push(depth, start, end, sub) {
						continue
					}
					if !s.rec(end+1, used|sub, depth+1) {
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
		// rec always runs at depth ≥ 1 (the first interval is pushed by the
		// task loop), so the previous interval exists and — non-replication
		// — is a singleton.
		pre.PrevLast = s.ends[depth-1]
		if depth > 1 {
			pre.PrevFirst = s.ends[depth-2] + 1
		}
		pre.PrevProc = bits.TrailingZeros64(s.masks[depth-1])
	}
	freeSingleton := free&(free-1) == 0
	for end := start; end <= last; end++ {
		if end < last && freeSingleton {
			continue // the lone free processor must serve the final interval
		}
		nb := ev.EvaluateMany(pre, start, end, free, s.sib)
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
			bit := uint64(1) << uint(sb.Proc)
			s.ends[depth] = end
			s.masks[depth] = bit
			s.lat[depth+1] = sb.Lat
			s.succ[depth+1] = sb.Succ
			if !s.rec(end+1, used|bit, depth+1) {
				return false
			}
		}
	}
	return true
}

// completeBatch finalizes a final-stage sibling block inline: each
// surviving candidate is budget-charged and visited with the metrics the
// batch evaluation already produced — bitwise those of the push/complete
// chain it replaces.
func (s *search) completeBatch(depth, end, nb int) bool {
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
		s.masks[depth] = uint64(1) << uint(sb.Proc)
		if !s.visit(s.task, s.ends[:depth+1], s.masks[:depth+1], met) {
			g.abort.Store(true)
			return false
		}
	}
	return true
}

// complete finalizes the candidate's metrics and hands it to the visitor,
// charging the enumeration budget.
func (s *search) complete(depth int) bool {
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
			met.Latency = s.lat[depth] + ev.IntervalEq2FinalTerm(first, s.ends[depth-1], s.masks[depth-1])
		}
		met.FailureProb = 1 - s.succ[depth]
	}
	if !s.visit(s.task, s.ends[:depth], s.masks[:depth], met) {
		g.abort.Store(true)
		return false
	}
	return true
}

// fillMaskedMapping converts a boundary representation (flat masks,
// stride words per interval) into dst without allocating: dst's slices
// are resliced and the replica ids written into procBuf (which must hold
// at least m ints).
func fillMaskedMapping(dst *mapping.Mapping, procBuf []int, ends []int, masks []uint64, stride int) *mapping.Mapping {
	dst.Intervals = dst.Intervals[:0]
	dst.Alloc = dst.Alloc[:0]
	first := 0
	used := 0
	for j, end := range ends {
		dst.Intervals = append(dst.Intervals, mapping.Interval{First: first, Last: end})
		row := bitset.Set(masks[j*stride : (j+1)*stride])
		out := row.AppendBits(procBuf[used:used])
		used += len(out)
		dst.Alloc = append(dst.Alloc, out[:len(out):len(out)])
		first = end + 1
	}
	return dst
}
