// Package heuristics attacks the two bi-criteria cases for which the
// paper gives no polynomial algorithm: Communication Homogeneous with
// heterogeneous failure probabilities (left open, conjectured NP-hard in
// Section 4.4) and Fully Heterogeneous (NP-hard by Theorem 7).
//
// Three solver families are provided, in increasing cost and quality:
//
//   - SingleIntervalSweep: the best single-interval mapping over prefix
//     subsets of several processor orderings (the optimal shape on the
//     classes of Lemma 1, and a strong baseline elsewhere);
//   - Greedy: constructive local improvement — start from a feasible
//     mapping and repeatedly apply the best replica addition/removal,
//     split, or merge;
//   - Anneal: simulated annealing over the full interval-mapping search
//     space with repair-based neighborhood moves. The solve route runs
//     Greedy alone; Anneal fills ParetoSearch's trade-off archive.
//
// All solvers return the best feasible mapping found; ErrNotFound means
// the search saw no feasible mapping, which (heuristics being incomplete)
// does not prove infeasibility.
//
// # Search state and the move framework
//
// Greedy, Anneal and Repair share one search-state representation: a
// mapping.EvalState bound to the problem's cached Evaluator — interval
// ends plus stride-word replica masks, mirroring the exact engine's
// (ends, masks) form — wrapped with per-search scratch in the searcher of
// state.go. Candidate neighbors are expressed as moves (add, remove or
// replace a replica, migrate a replica between intervals, split an
// interval three ways, merge adjacent intervals) applied in place; no
// candidate is ever materialized as a Mapping, and no Mapping.Clone
// happens on the hot path.
//
// Invariants of the move framework ("apply, score, restore"):
//
//   - a sweep snapshots the state once (EvalState.CopyFrom into a spare
//     state); each candidate is applied, scored, and dropped by copying
//     the snapshot back. Moves record nothing for their reversal, so a
//     candidate recomputes the terms it touches once, and its restore is
//     a memcpy of p rows and terms. Anneal keeps the snapshot at the
//     current walk state: a rejected move restores it, an accepted one
//     re-takes it;
//   - every score read from the state is bitwise identical to the legacy
//     clone path (Mapping.Clone + slice mapping.Evaluate of the
//     ascending-id materialization), which is what keeps the delta
//     refactor observationally equivalent to per-candidate re-evaluation;
//     a restored state scores exactly like the snapshot it came from,
//     because EvalState is a pure function of (ends, masks);
//   - moves preserve mapping validity whenever their preconditions hold
//     (documented per constructor in state.go); the only transiently
//     invalid states are the empty halves inside the two-step split-new
//     moves, and no metric is read while they last.
//
// Invariants of the solvers: every solver is deterministic for a fixed
// seed and configuration; every long-running solver takes a
// context.Context and returns its best-so-far result alongside a
// cause-wrapping error when canceled. Platform width is unlimited — the
// search state and the beam search track processors in multi-word bitsets
// (internal/bitset), so m > 64 platforms run the same code paths.
package heuristics
