// Package telemetry is the measurement layer of the solver stack: a
// lock-cheap metrics registry (counters, gauges, streaming duration
// sketches) plus a solve Recorder that aggregates per-phase solve
// timings into latency distributions keyed by instance class and route.
// The serve tier exposes the aggregates on /v1/stats and /metrics. The
// recorder only observes: no solver reads it back, so an answer is the
// same with or without one.
//
// Invariants the tests enforce:
//
//   - The record paths (Counter.Add, Gauge.Set, Sketch.Observe,
//     Recorder.ObserveRoute on a warm key) perform no heap allocations
//     and take no exclusive lock — counters and sketch buckets are
//     atomics; the registry and recorder maps take a read-lock on warm
//     keys and a write-lock only on first registration.
//   - Sketch.Merge is bucket-wise addition: associative, commutative,
//     and exact (no resampling), so distributed aggregation is
//     deterministic regardless of merge order.
//   - Sketch.Quantile is deterministic for a fixed observation multiset
//     and within one log-linear bucket (≤ 1/8 relative width above 2^4
//     ns) of the exact percentile.
//
// A nil *Recorder is the disabled state: every method on a nil receiver
// is a no-op (or returns zero), so solver hot paths guard telemetry with
// a single pointer test and stay allocation-free when tracing is off.
package telemetry
