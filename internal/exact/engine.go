package exact

import (
	"context"
	"fmt"
	"math"
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
// choice of the first interval: its last stage and its replica set.
//
// Two mask representations share the engine scaffolding (task claiming,
// budget, abort flag, incumbent, cancellation watcher):
//
//   - the wide search of enginewide.go stores replica sets as bitset rows
//     of engine.stride words in flat per-depth buffers, covers any m and
//     fans out by (first-interval end, lowest replica id). It runs every
//     replication-free enumeration and every replication enumeration the
//     narrow search cannot index;
//   - the narrow search of this file runs replication enumerations only,
//     keeping replica subsets in uint64 registers and indexing tasks as
//     end·(2^m−1)+subset, so it applies while that n·(2^m−1) task count
//     fits an int64 (m ≤ 62 for every n ≥ 2). It stays beside the wide
//     search because walking 2^|free| subsets in one register is what
//     keeps the small replication searches of the exact route fast.
//
// Both paths run identical pruning, budget accounting, tie-breaking and
// cancellation; visitors receive masks as a flat []uint64 buffer of
// engine.stride words per interval (stride 1 on the narrow path, i.e.
// exactly one word per interval).
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
// bound as well: mapping.AccumFailure never decreases it, in floating
// point too).
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
	wide        bool       // stride-word search + (end, min replica) tasks
	full        uint64     // narrow only: the all-processors mask
	fullW       bitset.Set // wide only: the all-processors set
	replication bool
	commHom     bool

	ctx        context.Context // nil: never canceled
	budget     int64
	counter    atomic.Int64 // node budget handed out to workers (see charge)
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
	nodes      atomic.Int64 // search nodes visited (batch siblings + pushes)
	visited    atomic.Int64 // complete mappings handed to the visitor
	prunes     atomic.Int64 // subtrees cut by the shared bound / constraint
	batchCalls atomic.Int64 // EvaluateManyW block calls
	batchCands atomic.Int64 // siblings scored across those blocks
}

// localStats is the per-worker face of searchStats. nodes counts the
// budget the worker took and reserved the part of it not yet spent, so
// the nodes visited are nodes − reserved.
type localStats struct {
	nodes, visited, prunes, batchCalls, batchCands int64
	reserved                                       int64
}

func (g *engine) flushStats(l *localStats) {
	g.stats.nodes.Add(l.nodes - l.reserved)
	g.stats.visited.Add(l.visited)
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
	// Narrow runs exactly the replication searches whose task count fits
	// (narrowTasksFit); everything else runs the wide search.
	g.wide = opts.forceWide || !opts.Replication || !narrowTasksFit(n, m)
	if g.wide {
		g.fullW = bitset.Make(m)
		g.fullW.Fill(m)
		g.subsPerEnd = int64(m)
	} else {
		g.full = 1<<uint(m) - 1
		g.subsPerEnd = int64(g.full)
	}
	if int64(n) > math.MaxInt64/g.subsPerEnd {
		return nil, fmt.Errorf("exact: instance too large to enumerate (n=%d, m=%d)", n, m)
	}
	g.totalTasks = int64(n) * g.subsPerEnd
	return g, nil
}

// narrowTasksFit reports whether the narrow search can index a
// replication enumeration: its n·(2^m−1) first-interval tasks
// (end·(2^m−1)+subset) must fit an int64.
func narrowTasksFit(n, m int) bool {
	return m < 64 && uint64(n) <= math.MaxInt64/(uint64(1)<<uint(m)-1)
}

// run drains the task space with the given worker count. newWorker is
// invoked once per worker (with indices 0..workers-1) and returns that
// worker's prune and visit hooks; prune may be nil.
//
// When the engine carries a cancellable context, a watcher goroutine
// flips the abort flag as soon as the context is done; every worker
// checks that flag on each recursion entry and before each replica
// subset of a replication level, so cancellation latency is bounded by
// one sibling block — the m candidates a single EvaluateManyW call scores,
// or one replica subset — not one subtree or one level's 2^|free|
// subsets. A canceled run returns an error wrapping both ErrCanceled and
// the context's cause.
func (g *engine) run(workers int, newWorker func(w int) (pruneFunc, visitFunc)) error {
	if g.rec != nil {
		// One-shot accounting per run: the inner loop never touches the
		// recorder, so the nil-recorder path and the hot path are identical.
		started := time.Now()
		defer func() {
			g.rec.Counter("exact_runs_total").Inc()
			g.rec.Counter("exact_enumerated_total").Add(g.stats.visited.Load())
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

// nodeBlock is the share of the node budget a worker takes at a time, so
// the shared counter is touched once per block, not once per node.
const nodeBlock = 1024

// charge spends k search nodes of the budget, taking a further block from
// the shared counter when the worker's share runs out. Once the budget
// cannot cover them it stops the whole enumeration with ErrBudget and
// reports false. The shares handed out never sum past the budget, so a
// sequential search trips exactly when it would visit node budget+1; with
// several workers, shares still unspent by the others can trip it up to
// nodeBlock nodes per worker sooner.
func (g *engine) charge(l *localStats, k int64) bool {
	if l.reserved >= k {
		l.reserved -= k
		return true
	}
	return g.refill(l, k)
}

// refill is charge's slow path, kept apart so charge inlines into push.
func (g *engine) refill(l *localStats, k int64) bool {
	need := k - l.reserved
	take := max(need, nodeBlock)
	granted := min(take, g.budget-(g.counter.Add(take)-take))
	if granted < need {
		l.reserved = 0
		g.overBudget.Store(true)
		g.abort.Store(true)
		return false
	}
	l.nodes += granted
	l.reserved = granted - need
	return true
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

// worker claims first-interval subtrees — (end, replica subset) pairs —
// until the space or the budget is exhausted.
func (g *engine) worker(prune pruneFunc, visit visitFunc) {
	s := &search{
		eng:   g,
		prune: prune,
		visit: visit,
		ends:  make([]int, g.n),
		masks: make([]uint64, g.n),
		lat:   make([]float64, g.n+1),
		fail:  make([]float64, g.n+1),
	}
	defer g.flushStats(&s.localStats)
	for !g.abort.Load() {
		t := g.nextTask.Add(1) - 1
		if t >= g.totalTasks {
			return
		}
		end := int(t / g.subsPerEnd)
		sub := uint64(t%g.subsPerEnd) + 1
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
	localStats
	// lat[d] is the charged latency after d intervals: on comm-hom
	// platforms the full Eq. (1) terms of intervals 0..d-1; on fully
	// heterogeneous platforms the Eq. (2) input sum plus the full terms of
	// intervals 0..d-2 (interval d-1's term needs its successor set and is
	// charged when that successor is chosen).
	lat []float64
	// fail[d] is the failure probability of intervals 0..d-1
	// (mapping.AccumFailure from fail[0] = 0).
	fail []float64
}

// push charges one node, records interval d = [first, end] on replica set
// sub, extends the incremental accumulators, and applies pruning. It
// reports whether the subtree should be explored (false also when the
// budget ran out, which aborts the search). The accumulation mirrors the
// slice-based evaluators addition for addition so complete-node metrics
// are bitwise identical to mapping.Evaluate.
func (s *search) push(d, first, end int, sub uint64) bool {
	if !s.eng.charge(&s.localStats, 1) {
		return false
	}
	ev := s.eng.ev
	s.ends[d] = end
	s.masks[d] = sub
	if ev == nil {
		return true
	}
	s.fail[d+1] = mapping.AccumFailure(s.fail[d], ev.FailureFactor(sub))
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
	if s.prune != nil && s.prune(lb, s.fail[d+1]) {
		s.prunes++
		return false
	}
	return true
}

// rec extends the partial mapping (stages [0, start) assigned on the
// processors in used, depth intervals chosen) with every completion: each
// next interval [start, end] on each non-empty subset of the free
// processors, walked in decreasing (sub−1)&free order. It returns false
// when the whole enumeration must stop.
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
	for end := start; end <= last; end++ {
		for sub := free; sub != 0; sub = (sub - 1) & free {
			// Up to 2^|free| siblings, most of them pruned on push:
			// re-check the abort flag per subset, not per descent.
			if g.abort.Load() {
				return false
			}
			if end < last && sub == free {
				continue // no processor left for the remaining stages
			}
			if !s.push(depth, start, end, sub) {
				continue
			}
			if !s.rec(end+1, used|sub, depth+1) {
				return false
			}
		}
	}
	return true
}

// complete finalizes the candidate's metrics and hands it to the visitor
// (its last interval's push already charged the budget).
func (s *search) complete(depth int) bool {
	g := s.eng
	s.visited++
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
		met.FailureProb = s.fail[depth]
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
