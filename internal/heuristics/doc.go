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
//   - Repair's point-move sweep previews each candidate's failure
//     probability before applying it (EvalState.FailureFactorWith and
//     FailureProbWith: a product over replica sets, while scoring pays
//     the Eq. (1)/(2) term recomputes). Once the incumbent is feasible, a
//     candidate whose FP alone makes it lose under repairBetter — above
//     the incumbent's FP when minimizing FP, above the bound when
//     minimizing latency — is skipped with no apply, score or restore.
//     The preview equals the FP the scored state would read, bitwise, so
//     only losing candidates are skipped and the sweep commits the same
//     winner as scoring them all: the repair trajectory is unchanged;
//   - Greedy previews every candidate the same way, in all three phases.
//     A point move (saturate, bestMove's raw sweep) is skipped when its
//     FP cannot be feasible and better than the sweep's best, or, for an
//     addition under MinFP, when EvalState.LatencyFloorWithAdd — a lower
//     bound on the latency after the move (Eq. (2)'s max-update for the
//     interval, the predecessor's outgoing sum left as it is) — already
//     breaks the bound. A structural offer (split-new moves through
//     EvalState.FailureProbWithSplit, migrations) is skipped when its FP
//     cannot rank it ahead of the last, feasible entry of a full
//     candidate list. The previews equal, or bound from below, the
//     metrics the scored state would read, bitwise, so every ranking and
//     every winner — and the answer — is the one scoring all candidates
//     gives. Anneal applies and scores every move it draws;
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
