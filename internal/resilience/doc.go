// Package resilience provides the serve tier's overload-protection
// primitives: a deadline-aware admission limiter (bounded concurrency
// plus a bounded wait queue that sheds requests whose deadline cannot be
// met), a generation-counted circuit breaker, and per-key singleflight
// coalescing.
//
// The primitives are policy-free building blocks: they decide *whether*
// work may proceed and report *why* it may not (a structured ShedError
// carrying a retry-after hint), but never touch HTTP or the solver — the
// serve package maps outcomes to status codes and counters.
//
// Invariants:
//
//   - Every primitive is safe for concurrent use.
//   - Time is read through the Clock interface; NewFakeClock makes
//     every state machine (breaker cooldowns, limiter service-time
//     estimates) deterministic in tests.
//   - The limiter never blocks past the caller's context: a request
//     that cannot be admitted before its deadline is shed immediately
//     with the estimated wait, instead of queuing doomed work.
//   - Breaker bookkeeping is generation-counted: outcomes recorded
//     against a superseded state (a Record racing a trip) are dropped,
//     so stale probes can neither re-open a freshly closed breaker nor
//     close a freshly opened one.
package resilience
