package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/telemetry"
)

// minRouteSamples is the per-(class, route) sample count the adaptive
// router requires before it trusts a latency profile over the structural
// gates. Below it a route's p95 is noise, and acting on noise would flap
// between routes during warm-up.
const minRouteSamples = 20

// solveTrace accumulates one solve's telemetry — the instance class, the
// timed route attempts, and the final outcome — and answers the adaptive
// router's deadline-fit queries from the recorder's per-class latency
// profiles. A nil *solveTrace (no Recorder configured) is valid and makes
// every method a no-op, so the instrumented paths cost one pointer test
// when telemetry is off.
type solveTrace struct {
	rec      *telemetry.Recorder
	class    telemetry.Class
	obs      telemetry.SolveObservation
	start    time.Time
	deadline time.Time // zero when the context carries no deadline
}

// startTrace opens a trace for one solve; returns nil when telemetry is
// disabled.
func startTrace(ctx context.Context, pr Problem, opts Options) *solveTrace {
	if opts.Recorder == nil {
		return nil
	}
	obj := telemetry.ObjLatency
	if pr.Objective == MinimizeFailureProb {
		obj = telemetry.ObjFP
	}
	_, commHom := pr.Platform.CommHomogeneous()
	tr := &solveTrace{
		rec:   opts.Recorder,
		class: telemetry.ClassOf(pr.Pipeline.NumStages(), pr.Platform.NumProcs(), commHom, obj),
		start: time.Now(),
	}
	if d, ok := ctx.Deadline(); ok {
		tr.deadline = d
	}
	tr.obs.Class = tr.class
	return tr
}

// begin stamps the start of a route attempt (zero time when disabled).
func (t *solveTrace) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a route attempt opened by begin.
func (t *solveTrace) end(route telemetry.Route, began time.Time, out telemetry.Outcome) {
	if t == nil {
		return
	}
	t.obs.AddAttempt(route, time.Since(began), out)
}

// fits reports whether the route's warm p95 latency for this instance
// class fits the remaining deadline budget. It answers true — deferring
// entirely to the structural gates, i.e. pre-telemetry behavior — when
// the trace is nil, the context has no deadline, or the profile is cold
// (fewer than minRouteSamples). A false answer is counted on the
// recorder's per-route skip counter.
func (t *solveTrace) fits(route telemetry.Route) bool {
	if t == nil || t.deadline.IsZero() {
		return true
	}
	p95, n := t.rec.RouteQuantile(t.class, route, 0.95)
	if n < minRouteSamples {
		return true
	}
	if p95 <= time.Until(t.deadline) {
		return true
	}
	t.rec.RecordRouteSkip(route)
	return false
}

// finish folds the completed solve into the recorder. Single-leaf solves
// (the polynomial routes) record no explicit attempts; their one attempt
// is synthesized from the total duration so every route builds a latency
// profile.
func (t *solveTrace) finish(res *Result, err error) {
	if t == nil {
		return
	}
	t.obs.Route = telemetry.ParseRoute(res.Route)
	t.obs.Outcome = solveOutcome(res, err)
	t.obs.Total = time.Since(t.start)
	if err == nil {
		t.obs.Certainty = certaintyLabel(res.Certainty)
	}
	if t.obs.NAttempts == 0 && t.obs.Route != telemetry.RouteNone {
		t.obs.AddAttempt(t.obs.Route, t.obs.Total, t.obs.Outcome)
	}
	t.rec.RecordSolve(t.obs)
}

// solveOutcome grades the solve's end state for telemetry.
func solveOutcome(res *Result, err error) telemetry.Outcome {
	switch {
	case err == nil && res.Certainty == Partial:
		return telemetry.OutcomePartial
	case err == nil:
		return telemetry.OutcomeOK
	case errors.Is(err, ErrInfeasible):
		return telemetry.OutcomeInfeasible
	case errors.Is(err, ErrNotFound):
		return telemetry.OutcomeNotFound
	default:
		return telemetry.OutcomeError
	}
}

// certaintyLabel renders a Certainty as a metric-label-safe token.
func certaintyLabel(c Certainty) string {
	switch c {
	case ProvablyOptimal:
		return "provably_optimal"
	case ExhaustivelyOptimal:
		return "exhaustively_optimal"
	case Partial:
		return "partial"
	default:
		return "heuristic"
	}
}

// attemptOutcome grades one route attempt's (result, error) pair.
func attemptOutcome(err error, partial bool) telemetry.Outcome {
	switch {
	case err == nil && partial:
		return telemetry.OutcomePartial
	case err == nil:
		return telemetry.OutcomeOK
	case errors.Is(err, ErrInfeasible):
		return telemetry.OutcomeInfeasible
	default:
		return telemetry.OutcomeError
	}
}
