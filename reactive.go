package repro

import (
	"context"

	"repro/internal/remap"
)

// Failure-reactive online re-mapping: the session methods in this file
// close the loop between the fault-injection harness (FaultSchedule,
// ScriptedCrashes, NewRandomFaultSchedule) and the solver. Instead of
// re-solving from scratch after a crash, the controller warm-restarts
// from the deployed mapping — evicting dead replicas in place, running a
// bounded greedy repair, and escalating to the exact search only when
// the per-event deadline budget allows — so a repair is typically an
// order of magnitude cheaper than a cold Solve on the same instance.

// NewRemapController builds a failure-reactive re-mapping controller
// bound to the session's instance, warm-started from start (typically a
// prior Solve result). The controller shares the session's cached
// evaluator and inherits the session worker count when cfg.Workers is
// zero. It is safe for concurrent use; feed it events one at a time with
// Apply, or replay a schedule with Campaign.
func (s *Session) NewRemapController(start *Mapping, cfg RemapConfig) (*RemapController, error) {
	if cfg.Eval == nil {
		cfg.Eval = s.ev
	}
	if cfg.Workers == 0 {
		cfg.Workers = s.cfg.workers
	}
	if cfg.Recorder == nil {
		cfg.Recorder = s.cfg.recorder
	}
	return remap.New(s.pipe, s.plat, start, cfg)
}

// Remap performs a one-shot failure-reactive repair: it warm-restarts
// from start under the complete crash pattern failed (failed[u] = true
// bans processor u) and returns the repaired mapping with its metrics,
// certainty grade, and — when the configured bound can no longer be met
// on the surviving platform — a violation report. The returned mapping
// never assigns a failed processor. ErrAllFailed is returned when every
// processor is down.
func (s *Session) Remap(ctx context.Context, start *Mapping, failed []bool, cfg RemapConfig) (RemapResult, error) {
	c, err := s.NewRemapController(start, cfg)
	if err != nil {
		return RemapResult{}, err
	}
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	return c.Sync(ctx, failed)
}

// RunReactive replays a fault schedule through a fresh controller and
// returns every repair in event order. The optional emit callback
// observes each repair as it happens (return an error to abort the
// campaign); pass nil to just collect the results. Completed runs are
// deterministic for a fixed (session, start, schedule, config).
func (s *Session) RunReactive(ctx context.Context, start *Mapping, schedule FaultSchedule, cfg RemapConfig, emit func(RemapResult) error) ([]RemapResult, error) {
	c, err := s.NewRemapController(start, cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.callCtx(ctx)
	defer cancel()
	out := make([]RemapResult, 0, len(schedule))
	err = c.Campaign(ctx, schedule, func(rep remap.Repair) error {
		out = append(out, rep)
		if emit != nil {
			return emit(rep)
		}
		return nil
	})
	return out, err
}
