package exact

import "repro/internal/mapping"

// ForEachMappingParallel enumerates every valid interval mapping of n
// stages on m processors across opts.WorkerCount() goroutines, splitting
// the space by first-interval subtree. newVisitor is called once per
// worker (indices 0..WorkerCount()-1, some possibly unused on tiny
// instances) and returns that worker's visit function; visits within a
// worker are sequential. task identifies the first-interval subtree a
// mapping belongs to — tasks are totally ordered, so callers can merge
// per-worker answers deterministically by (metric, task) regardless of
// scheduling. The *mapping.Mapping handed to a visitor reuses the
// worker's buffers — clone it to retain it. A visitor returning false
// stops the whole enumeration. The error is ErrBudget if opts.MaxEnum was
// exceeded (the budget is shared across workers).
func ForEachMappingParallel(n, m int, opts Options, newVisitor func(worker int) func(task int64, mp *mapping.Mapping) bool) error {
	g, err := newEngine(nil, n, m, opts)
	if err != nil {
		return err
	}
	return g.run(opts.WorkerCount(), func(w int) (pruneFunc, visitFunc) {
		visitMapping := newVisitor(w)
		scratch := &mapping.Mapping{
			Intervals: make([]mapping.Interval, 0, n),
			Alloc:     make([][]int, 0, n),
		}
		procBuf := make([]int, m)
		visit := func(task int64, ends []int, masks []uint64, _ mapping.Metrics) bool {
			return visitMapping(task, fillMaskedMapping(scratch, procBuf, ends, masks, g.stride))
		}
		return nil, visit
	})
}
