// Package remap closes the simulator ↔ solver loop: a failure-reactive
// controller that keeps a deployed interval mapping valid — and as close
// to its latency/reliability bound as the surviving platform allows —
// while processors crash and recover.
//
// The controller subscribes to fault events (see internal/sim's
// fault-injection harness) and on each transition warm-restarts the
// search from the *current* mapping instead of solving from scratch:
// dead replicas are evicted in place on the incremental
// mapping.EvalState, bounded greedy repair re-optimizes the survivors
// (heuristics.Repair), and when the remaining per-event deadline budget
// allows it escalates to the exact branch-and-bound on the alive
// sub-platform. When the bound can no longer be met the controller
// degrades gracefully: it still installs the best valid mapping found
// (excluding every failed processor) and reports the violation, because
// a degraded-but-running pipeline beats none.
//
// Invariants:
//
//   - after every successfully applied event the installed mapping is a
//     valid interval mapping that assigns no failed processor, and
//     sim.SurvivesFailures(mapping, failed) holds;
//   - event application is serialized (internal mutex): the controller
//     is safe for concurrent Apply/Current use, including Current polls
//     while a Campaign replays a schedule on another goroutine;
//   - repair sequences are deterministic for a fixed (instance, start,
//     schedule, config) as long as the escalation decision is stable —
//     the mapping-count gate is deterministic, and the wall-clock gate
//     only flips when a repair consumes nearly the whole per-event
//     budget.
package remap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// DefaultDeadline is the per-event repair budget when Config.Deadline is
// zero: enough for the bounded greedy repair at any width plus a small
// exact escalation, small enough to keep a streaming controller live.
const DefaultDeadline = 50 * time.Millisecond

// DefaultExactBudget is the largest estimated interval-mapping count of
// the alive sub-platform for which a repair escalates to the exact
// search (Config.ExactBudget == 0). It is deliberately much smaller than
// the offline solver's budget: escalation shares the per-event deadline
// with the greedy repair that already ran.
const DefaultExactBudget = 200_000

// DefaultEscalateReserve is the minimum remaining per-event budget
// required to attempt exact escalation.
const DefaultEscalateReserve = 5 * time.Millisecond

// ErrAllFailed is returned by Apply and Sync when every processor is
// down: no valid mapping exists. The controller keeps the last installed
// mapping and waits for recoveries — the accompanying Repair record
// reports the hold (its mapping is the held one, so it necessarily
// enrolls failed processors). Campaign treats it as a non-fatal
// per-event outcome: it emits the hold record and keeps folding events,
// so a later recovery resumes repairs.
var ErrAllFailed = errors.New("remap: every processor has failed")

// Config tunes a Controller. The zero value minimizes failure
// probability with no latency bound under the default budgets.
type Config struct {
	// Objective selects the minimized criterion (the other is bounded).
	Objective core.Objective
	// MaxLatency bounds the latency when minimizing failure probability
	// (0 or +Inf: unconstrained).
	MaxLatency float64
	// MaxFailProb bounds the failure probability when minimizing latency
	// (0 or 1: unconstrained).
	MaxFailProb float64
	// Deadline is the per-event repair budget (default DefaultDeadline).
	// Past it the controller installs its best-so-far mapping graded
	// Partial.
	Deadline time.Duration
	// ExactBudget gates escalation to the exact search: it runs only
	// when the alive sub-platform's estimated mapping count is at most
	// this (0 = DefaultExactBudget; negative disables escalation).
	ExactBudget float64
	// Workers is the goroutine count of the escalated exact search
	// (0 = GOMAXPROCS).
	Workers int
	// Eval optionally carries the session-cached evaluator for
	// (pipeline, platform), so the controller's repair state shares the
	// precomputation. Built on demand when nil.
	Eval *mapping.Evaluator
	// Recorder, when non-nil, receives repair telemetry: each repair feeds
	// the instance class's "repair" route latency profile, and the
	// escalated exact solves record through the same recorder.
	Recorder *telemetry.Recorder
}

func (c Config) deadline() time.Duration {
	if c.Deadline <= 0 {
		return DefaultDeadline
	}
	return c.Deadline
}

func (c Config) exactBudget() float64 {
	if c.ExactBudget == 0 {
		return DefaultExactBudget
	}
	return c.ExactBudget
}

// Violation reports that the installed mapping exceeds the configured
// bound (the pipeline keeps running, degraded).
type Violation struct {
	// Metric is the violated bound: "latency" or "failureProb".
	Metric string `json:"metric"`
	// Value is the installed mapping's metric value.
	Value float64 `json:"value"`
	// Bound is the configured limit it exceeds.
	Bound float64 `json:"bound"`
}

// Repair reports one controller reaction: the event, the mapping now
// installed, its metrics and provenance, and the repair latency.
type Repair struct {
	// Event is the fault event that triggered the repair (zero-valued
	// Seq/Time for one-shot Sync repairs).
	Event sim.FaultEvent
	// Mapping is the installed mapping after the event (never assigns a
	// failed processor).
	Mapping *mapping.Mapping
	// Metrics are Mapping's analytic latency and failure probability,
	// computed through the controller's evaluator.
	Metrics mapping.Metrics
	// Certainty grades the repair: Heuristic for the greedy warm repair,
	// ExhaustivelyOptimal/ProvablyOptimal when escalation completed, and
	// Partial when the per-event deadline truncated the search.
	Certainty core.Certainty
	// Method names the repair route taken.
	Method string
	// Changed is false when the event required no re-mapping (redundant
	// transition, or a crash of a processor the mapping does not use).
	Changed bool
	// Violation is non-nil when the configured bound can no longer be
	// met on the surviving platform; the mapping is the best degraded
	// answer.
	Violation *Violation
	// Down lists the processors failed after this event (sorted).
	Down []int
	// Elapsed is the wall-clock repair time for this event.
	Elapsed time.Duration
}

// Controller is the failure-reactive re-mapping loop. Create it with
// New; it is safe for concurrent use.
type Controller struct {
	pipe  *pipeline.Pipeline
	plat  *platform.Platform
	cfg   Config
	hp    *heuristics.Problem
	class telemetry.Class // instance class for repair telemetry

	mu     sync.Mutex
	fs     *sim.FaultState
	banned bitset.Set
	cur    *mapping.Mapping
	met    mapping.Metrics
	grade  core.Certainty
}

// New validates the instance, the bounds (mapping.CheckBounds) and the
// starting mapping and returns a controller with every processor alive
// and start installed.
func New(pipe *pipeline.Pipeline, plat *platform.Platform, start *mapping.Mapping, cfg Config) (*Controller, error) {
	if pipe == nil || plat == nil || start == nil {
		return nil, fmt.Errorf("remap: controller needs a pipeline, a platform and a starting mapping")
	}
	if err := pipe.Validate(); err != nil {
		return nil, err
	}
	if err := plat.Validate(); err != nil {
		return nil, err
	}
	if err := mapping.CheckBounds(cfg.MaxLatency, cfg.MaxFailProb); err != nil {
		return nil, fmt.Errorf("remap: %w", err)
	}
	if err := start.Validate(pipe.NumStages(), plat.NumProcs()); err != nil {
		return nil, fmt.Errorf("remap: starting mapping: %w", err)
	}
	ev := cfg.Eval
	if ev == nil {
		var err error
		ev, err = mapping.NewEvaluator(pipe, plat)
		if err != nil {
			return nil, err
		}
	}
	hp := &heuristics.Problem{Pipe: pipe, Plat: plat, Eval: ev, Recorder: cfg.Recorder}
	if cfg.Objective == core.MinimizeFailureProb {
		hp.Goal = heuristics.MinFP
		hp.Bound = mapping.LatencyBound(cfg.MaxLatency)
	} else {
		hp.Goal = heuristics.MinLatency
		hp.Bound = mapping.FailProbBound(cfg.MaxFailProb)
	}
	met, err := ev.EvaluateMapping(start)
	if err != nil {
		return nil, err
	}
	obj := telemetry.ObjLatency
	if cfg.Objective == core.MinimizeFailureProb {
		obj = telemetry.ObjFP
	}
	_, commHom := plat.CommHomogeneous()
	return &Controller{
		pipe:   pipe,
		plat:   plat,
		cfg:    cfg,
		hp:     hp,
		class:  telemetry.ClassOf(pipe.NumStages(), plat.NumProcs(), commHom, obj),
		fs:     sim.NewFaultState(plat.NumProcs()),
		banned: bitset.Make(plat.NumProcs()),
		cur:    start,
		met:    met,
		grade:  core.Heuristic,
	}, nil
}

// Current snapshots the installed mapping, its metrics and the failed
// set. The mapping pointer is never mutated by the controller (repairs
// install fresh mappings), so the caller may read it freely; the failed
// slice is a copy.
func (c *Controller) Current() (*mapping.Mapping, mapping.Metrics, []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	failed := append([]bool(nil), c.fs.Failed()...)
	return c.cur, c.met, failed
}

// Apply folds one fault event into the controller's failure state and
// re-plans when the event affects the installed mapping (any crash of
// an enrolled processor, or any recovery — recoveries reopen placement
// options worth a cheap improvement pass). It returns the repair record;
// the error is non-nil only when no valid mapping exists (ErrAllFailed —
// the record still reports the held mapping) or the event is malformed.
func (c *Controller) Apply(ctx context.Context, ev sim.FaultEvent) (Repair, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	m := c.plat.NumProcs()
	if ev.Proc < 0 || ev.Proc >= m {
		return Repair{}, fmt.Errorf("remap: event targets processor %d (platform has %d)", ev.Proc, m)
	}
	if ev.Kind != sim.FaultCrash && ev.Kind != sim.FaultRecover {
		return Repair{}, fmt.Errorf("remap: unknown fault kind %d", int(ev.Kind))
	}
	changed := c.fs.Apply(ev)
	if changed {
		if ev.Kind == sim.FaultCrash {
			c.banned.Add(ev.Proc)
		} else {
			c.banned.Remove(ev.Proc)
		}
	}
	if !changed {
		return c.unchanged(ev, "no-op (redundant transition)", start), nil
	}
	if ev.Kind == sim.FaultCrash && !c.mappingUses(ev.Proc) {
		// The crash shrinks the pool but touches no installed replica:
		// the mapping stays valid, nothing to re-plan.
		return c.unchanged(ev, "unaffected (processor not enrolled)", start), nil
	}
	return c.repairLocked(ctx, ev, start)
}

// Sync replaces the whole failure state with the given crash pattern and
// repairs once — the one-shot Remap entry point.
func (c *Controller) Sync(ctx context.Context, failed []bool) (Repair, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.plat.NumProcs()
	if len(failed) != m {
		return Repair{}, fmt.Errorf("remap: failure vector has %d entries, want %d", len(failed), m)
	}
	start := time.Now()
	c.fs = sim.NewFaultState(m)
	c.banned.Zero()
	for u, f := range failed {
		if f {
			c.fs.Apply(sim.FaultEvent{Proc: u, Kind: sim.FaultCrash})
			c.banned.Add(u)
		}
	}
	return c.repairLocked(ctx, sim.FaultEvent{Seq: -1}, start)
}

// Campaign replays a scripted schedule synchronously, emitting one
// Repair per event. ErrAllFailed is non-fatal: the hold record is
// emitted and the replay continues, so later recoveries resume repairs.
func (c *Controller) Campaign(ctx context.Context, schedule sim.FaultSchedule, emit func(Repair) error) error {
	if err := schedule.Validate(c.plat.NumProcs()); err != nil {
		return err
	}
	for _, ev := range schedule {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("remap: campaign canceled: %w", context.Cause(ctx))
		}
		rep, err := c.Apply(ctx, ev)
		if err != nil && !errors.Is(err, ErrAllFailed) {
			return err
		}
		if emit != nil {
			if err := emit(rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// unchanged records a no-repair reaction (c.mu held).
func (c *Controller) unchanged(ev sim.FaultEvent, method string, start time.Time) Repair {
	return Repair{
		Event:     ev,
		Mapping:   c.cur,
		Metrics:   c.met,
		Certainty: c.grade,
		Method:    method,
		Violation: c.violation(c.met),
		Down:      c.fs.FailedProcs(),
		Elapsed:   time.Since(start),
	}
}

// mappingUses reports whether the installed mapping enrolls u (c.mu held).
func (c *Controller) mappingUses(u int) bool {
	for _, procs := range c.cur.Alloc {
		for _, v := range procs {
			if v == u {
				return true
			}
		}
	}
	return false
}

// violation grades met against the configured bound (nil when met).
func (c *Controller) violation(met mapping.Metrics) *Violation {
	if c.hp.Goal == heuristics.MinFP {
		if mapping.LatencyWithin(met.Latency, c.hp.Bound) {
			return nil
		}
		return &Violation{Metric: "latency", Value: met.Latency, Bound: c.hp.Bound}
	}
	if mapping.FailProbWithin(met.FailureProb, c.hp.Bound) {
		return nil
	}
	return &Violation{Metric: "failureProb", Value: met.FailureProb, Bound: c.hp.Bound}
}

// repairLocked re-plans from the current mapping under the current
// failure state (c.mu held): bounded greedy warm repair, then exact
// escalation when the remaining per-event budget and the alive
// sub-platform's size allow it.
func (c *Controller) repairLocked(ctx context.Context, ev sim.FaultEvent, start time.Time) (Repair, error) {
	if c.fs.Alive() == 0 {
		// No valid mapping exists; hold the last installed one (graded
		// Partial — it enrolls failed processors) until a recovery.
		hold := c.unchanged(ev, "all processors failed (holding last mapping)", start)
		hold.Certainty = core.Partial
		c.grade = core.Partial
		if rec := c.cfg.Recorder; rec != nil {
			rec.ObserveRoute(c.class, telemetry.RouteRepair, hold.Elapsed, telemetry.OutcomeError)
		}
		return hold, ErrAllFailed
	}
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := c.cfg.deadline()
	rctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	res, rerr := heuristics.Repair(rctx, c.hp, c.cur, c.banned)
	if res.Mapping == nil {
		if rerr == nil {
			rerr = fmt.Errorf("remap: repair produced no mapping")
		}
		return Repair{}, rerr
	}
	grade := core.Heuristic
	method := "greedy warm repair"
	if rerr != nil {
		grade = core.Partial
		method = "greedy warm repair (deadline truncated)"
	}

	// Escalate to the exact search on the alive sub-platform when the
	// remaining budget allows; a canceled escalation degrades to the
	// greedy result graded Partial.
	if rerr == nil {
		remaining := deadline - time.Since(start)
		exm, exMet, exCert, exMethod, status := c.escalate(rctx, remaining)
		switch status {
		case escDone:
			res.Mapping, res.Metrics = exm, exMet
			grade, method = exCert, exMethod
		case escCanceled:
			grade = core.Partial
			method = "greedy warm repair (escalation canceled)"
		}
	}

	c.cur, c.met, c.grade = res.Mapping, res.Metrics, grade
	elapsed := time.Since(start)
	if rec := c.cfg.Recorder; rec != nil {
		out := telemetry.OutcomeOK
		if grade == core.Partial {
			out = telemetry.OutcomePartial
		}
		rec.ObserveRoute(c.class, telemetry.RouteRepair, elapsed, out)
	}
	return Repair{
		Event:     ev,
		Mapping:   res.Mapping,
		Metrics:   res.Metrics,
		Certainty: grade,
		Method:    method,
		Changed:   true,
		Violation: c.violation(res.Metrics),
		Down:      c.fs.FailedProcs(),
		Elapsed:   elapsed,
	}, nil
}

// escStatus reports how an escalation attempt ended.
type escStatus int

const (
	// escSkipped: the gates blocked escalation, it failed, or it proved
	// infeasible — the greedy repair stands with its own grade.
	escSkipped escStatus = iota
	// escDone: the exact search completed; adopt its mapping and grade.
	escDone
	// escCanceled: the per-event deadline fired mid-escalation; the
	// greedy repair stands, graded Partial.
	escCanceled
)

// escalate runs the exact solver over the alive sub-platform when the
// gates pass. On success the returned metrics are recomputed through the
// controller's own evaluator, so installed metrics always share one
// float pipeline.
func (c *Controller) escalate(ctx context.Context, remaining time.Duration) (*mapping.Mapping, mapping.Metrics, core.Certainty, string, escStatus) {
	budget := c.cfg.exactBudget()
	if budget < 0 || remaining < DefaultEscalateReserve {
		return nil, mapping.Metrics{}, 0, "", escSkipped
	}
	n, alive := c.pipe.NumStages(), c.fs.Alive()
	if core.EstimateMappingCount(n, alive) > budget {
		return nil, mapping.Metrics{}, 0, "", escSkipped
	}
	sub, ids := alivePlatform(c.plat, c.fs.Failed())
	pr := core.Problem{
		Pipeline:    c.pipe,
		Platform:    sub,
		Objective:   c.cfg.Objective,
		MaxLatency:  c.cfg.MaxLatency,
		MaxFailProb: c.cfg.MaxFailProb,
	}
	ectx, cancel := context.WithTimeout(ctx, remaining)
	defer cancel()
	exres, err := core.SolveCtx(ectx, pr, core.Options{ExactBudget: budget, Workers: c.cfg.Workers, Recorder: c.cfg.Recorder})
	if ectx.Err() != nil {
		return nil, mapping.Metrics{}, 0, "", escCanceled
	}
	if err != nil || exres.Mapping == nil {
		return nil, mapping.Metrics{}, 0, "", escSkipped
	}
	if exres.Certainty != core.ExhaustivelyOptimal && exres.Certainty != core.ProvablyOptimal {
		// A truncated or heuristic escalation cannot beat the warm
		// repair's claim; keep the greedy result.
		return nil, mapping.Metrics{}, 0, "", escSkipped
	}
	// ids ascend, so the translated replica lists keep their order.
	translated := canon.TranslateMapping(exres.Mapping, ids)
	met, mErr := c.hp.Eval.EvaluateMapping(translated)
	if mErr != nil {
		return nil, mapping.Metrics{}, 0, "", escSkipped
	}
	return translated, met, exres.Certainty, "warm repair + exact escalation: " + exres.Method, escDone
}

// alivePlatform builds the platform restricted to the alive processors,
// returning it together with the sub-index → original-id table.
func alivePlatform(pl *platform.Platform, failed []bool) (*platform.Platform, []int) {
	m := pl.NumProcs()
	ids := make([]int, 0, m)
	for u := 0; u < m; u++ {
		if !failed[u] {
			ids = append(ids, u)
		}
	}
	k := len(ids)
	sub := &platform.Platform{
		Speed:    make([]float64, k),
		FailProb: make([]float64, k),
		B:        make([][]float64, k),
		BIn:      make([]float64, k),
		BOut:     make([]float64, k),
	}
	for i, u := range ids {
		sub.Speed[i] = pl.Speed[u]
		sub.FailProb[i] = pl.FailProb[u]
		sub.BIn[i] = pl.BIn[u]
		sub.BOut[i] = pl.BOut[u]
		row := make([]float64, k)
		for j, v := range ids {
			row[j] = pl.B[u][v]
		}
		sub.B[i] = row
	}
	return sub, ids
}
