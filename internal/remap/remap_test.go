package remap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// solveStart produces a starting mapping for an instance with the same
// objective/bounds the controller will run under.
func solveStart(t testing.TB, pr core.Problem) *mapping.Mapping {
	t.Helper()
	res, err := core.SolveCtx(context.Background(), pr, core.Options{})
	if err != nil {
		t.Fatalf("start solve: %v", err)
	}
	return res.Mapping
}

// assertRepairInvariant checks the controller's core guarantee: the
// installed mapping is valid, assigns no failed processor, and the
// simulator agrees it survives the failure pattern.
func assertRepairInvariant(t testing.TB, p *pipeline.Pipeline, pl *platform.Platform, rep Repair, failed []bool) {
	t.Helper()
	if rep.Mapping == nil {
		t.Fatal("repair installed a nil mapping")
	}
	if err := rep.Mapping.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		t.Fatalf("installed mapping invalid after %v: %v", rep.Event, err)
	}
	for j, procs := range rep.Mapping.Alloc {
		for _, u := range procs {
			if failed[u] {
				t.Fatalf("interval %d assigns failed processor %d after %v", j, u, rep.Event)
			}
		}
	}
	if !sim.SurvivesFailures(rep.Mapping, failed) {
		t.Fatalf("sim.SurvivesFailures disagrees after %v", rep.Event)
	}
}

// usedProcs returns distinct processors enrolled by m, in first-seen order.
func usedProcs(m *mapping.Mapping) []int {
	seen := map[int]bool{}
	var out []int
	for _, procs := range m.Alloc {
		for _, u := range procs {
			if !seen[u] {
				seen[u] = true
				out = append(out, u)
			}
		}
	}
	return out
}

// TestCampaignM80 is the acceptance campaign: three sequential crashes
// of enrolled processors on a wide (m = 80) platform, with the mapping
// staying valid throughout and the whole repair sequence deterministic
// across identical runs.
func TestCampaignM80(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := workload.Random(rng, platform.FullyHeterogeneous, 12, 80)
	// Self-calibrate a latency bound: twice the (heuristic) minimum
	// latency leaves room to replicate, so the min-FP start enrolls a
	// realistic multi-interval, multi-replica mapping.
	lref, err := core.SolveCtx(context.Background(), core.Problem{
		Pipeline: inst.Pipeline, Platform: inst.Platform, Objective: core.MinimizeLatency,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound := 2 * lref.Metrics.Latency
	pr := core.Problem{
		Pipeline:   inst.Pipeline,
		Platform:   inst.Platform,
		Objective:  core.MinimizeFailureProb,
		MaxLatency: bound,
	}
	start := solveStart(t, pr)
	victims := usedProcs(start)
	if len(victims) < 3 {
		t.Fatalf("start mapping enrolls only %d processors", len(victims))
	}
	schedule := sim.ScriptedCrashes(victims[0], victims[1], victims[2])

	run := func() []string {
		cfg := Config{Objective: core.MinimizeFailureProb, MaxLatency: bound}
		c, err := New(inst.Pipeline, inst.Platform, start, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var installed []string
		err = c.Campaign(context.Background(), schedule, func(rep Repair) error {
			_, _, failed := c.Current()
			assertRepairInvariant(t, inst.Pipeline, inst.Platform, rep, failed)
			if !rep.Changed {
				t.Fatalf("crash of enrolled processor %d did not trigger a repair", rep.Event.Proc)
			}
			installed = append(installed, rep.Mapping.String())
			t.Logf("event %v: %s in %v (grade %v)", rep.Event, rep.Method, rep.Elapsed, rep.Certainty)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return installed
	}

	a, b := run(), run()
	if len(a) != len(schedule) {
		t.Fatalf("got %d repairs for %d events", len(a), len(schedule))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("repair %d differs across identical runs:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestRandomCampaignsProperty sweeps seeds: under any generated
// crash/recovery schedule, every successfully applied event leaves a
// valid mapping that excludes the failed set.
func TestRandomCampaignsProperty(t *testing.T) {
	const n, m = 8, 20
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := workload.Random(rng, platform.FullyHeterogeneous, n, m)
		pr := core.Problem{Pipeline: inst.Pipeline, Platform: inst.Platform, Objective: core.MinimizeFailureProb}
		start := solveStart(t, pr)
		c, err := New(inst.Pipeline, inst.Platform, start, Config{Objective: core.MinimizeFailureProb})
		if err != nil {
			t.Fatal(err)
		}
		schedule := sim.RandomFaultSchedule(rng, m, sim.RandomFaultConfig{Events: 24})
		for _, ev := range schedule {
			rep, err := c.Apply(context.Background(), ev)
			if err != nil {
				t.Fatalf("seed %d, event %+v: %v", seed, ev, err)
			}
			_, _, failed := c.Current()
			assertRepairInvariant(t, inst.Pipeline, inst.Platform, rep, failed)
		}
	}
}

// FuzzCrashSchedule decodes arbitrary bytes into a fault-event stream
// and checks the repair invariant after every applied event. ErrAllFailed
// may only surface when the stream really killed every processor; the
// controller must keep working once recoveries arrive.
func FuzzCrashSchedule(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1})
	f.Add([]byte{3, 0, 3, 1, 3, 0, 5, 0, 7, 0})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0})

	const n, m = 4, 9
	rng := rand.New(rand.NewSource(17))
	inst := workload.Random(rng, platform.FullyHeterogeneous, n, m)
	pr := core.Problem{Pipeline: inst.Pipeline, Platform: inst.Platform, Objective: core.MinimizeFailureProb}
	res, err := core.SolveCtx(context.Background(), pr, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	start := res.Mapping

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(inst.Pipeline, inst.Platform, start, Config{Objective: core.MinimizeFailureProb})
		if err != nil {
			t.Fatal(err)
		}
		alive := m
		failed := make([]bool, m)
		for i := 0; i+1 < len(data); i += 2 {
			proc := int(data[i]) % m
			kind := sim.FaultCrash
			if data[i+1]%2 == 1 {
				kind = sim.FaultRecover
			}
			ev := sim.FaultEvent{Seq: i / 2, Time: float64(i), Proc: proc, Kind: kind}
			wouldKillAll := kind == sim.FaultCrash && !failed[proc] && alive == 1
			rep, err := c.Apply(context.Background(), ev)
			if wouldKillAll {
				if !errors.Is(err, ErrAllFailed) {
					t.Fatalf("killing the last processor: got %v, want ErrAllFailed", err)
				}
				failed[proc], alive = true, 0
				continue
			}
			if err != nil {
				t.Fatalf("event %+v: %v", ev, err)
			}
			if kind == sim.FaultCrash && !failed[proc] {
				failed[proc], alive = true, alive-1
			} else if kind == sim.FaultRecover && failed[proc] {
				failed[proc], alive = false, alive+1
			}
			if alive > 0 {
				// With every processor down the controller holds the last
				// mapping (which necessarily enrolls failed processors), so
				// the invariant only applies while someone survives.
				assertRepairInvariant(t, inst.Pipeline, inst.Platform, rep, failed)
			}
		}
	})
}

// TestCancelDuringEscalation: when the per-event deadline fires while
// the exact escalation is running, the controller returns the
// greedy-repaired mapping graded Partial — fast.
func TestCancelDuringEscalation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := workload.Random(rng, platform.FullyHeterogeneous, 12, 14)
	pr := core.Problem{
		Pipeline:   inst.Pipeline,
		Platform:   inst.Platform,
		Objective:  core.MinimizeFailureProb,
		MaxLatency: math.Inf(1),
	}
	start := solveStart(t, pr)
	// A finite latency bound keeps the problem in the hard class, and a
	// huge ExactBudget forces the escalation gate open on an instance far
	// too big to enumerate within the deadline.
	cfg := Config{
		Objective:   core.MinimizeFailureProb,
		MaxLatency:  1e12,
		Deadline:    30 * time.Millisecond,
		ExactBudget: 1e18,
		Workers:     1,
	}
	c, err := New(inst.Pipeline, inst.Platform, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := usedProcs(start)[0]
	t0 := time.Now()
	rep, err := c.Apply(context.Background(), sim.FaultEvent{Proc: victim, Kind: sim.FaultCrash})
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("deadline-truncated repair took %v, want < 100ms", elapsed)
	}
	if rep.Certainty != core.Partial {
		t.Errorf("certainty = %v (%s), want Partial", rep.Certainty, rep.Method)
	}
	_, _, failed := c.Current()
	assertRepairInvariant(t, inst.Pipeline, inst.Platform, rep, failed)
}

// TestEscalationCompletes: on a small instance with budget to spare the
// repair upgrades to an exact grade.
func TestEscalationCompletes(t *testing.T) {
	p, pl := workload.Fig5()
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeFailureProb, MaxLatency: 22}
	start := solveStart(t, pr)
	cfg := Config{
		Objective:   core.MinimizeFailureProb,
		MaxLatency:  22,
		Deadline:    5 * time.Second,
		ExactBudget: 5_000_000,
	}
	c, err := New(p, pl, start, cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := usedProcs(start)[0]
	rep, err := c.Apply(context.Background(), sim.FaultEvent{Proc: victim, Kind: sim.FaultCrash})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Certainty != core.ExhaustivelyOptimal && rep.Certainty != core.ProvablyOptimal {
		t.Errorf("certainty = %v (%s), want an exact grade", rep.Certainty, rep.Method)
	}
	_, _, failed := c.Current()
	assertRepairInvariant(t, p, pl, rep, failed)
}

// TestRecorderDoesNotSteerEscalation: the controller's recorder only
// observes. Seeded with a warm profile saying the exact route takes 10s
// on the alive sub-platform's class, a crash under a 5s per-event
// deadline still escalates to the exact search, and no greedy solve runs
// on the sub-platform.
func TestRecorderDoesNotSteerEscalation(t *testing.T) {
	p, pl := workload.Fig5()
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeFailureProb, MaxLatency: 22}
	rec := telemetry.NewRecorder()
	subClass := telemetry.ClassOf(p.NumStages(), pl.NumProcs()-1, true, telemetry.ObjFP)
	for i := 0; i < 25; i++ {
		rec.ObserveRoute(subClass, telemetry.RouteExact, 10*time.Second, telemetry.OutcomeOK)
	}
	c, err := New(p, pl, solveStart(t, pr), Config{
		Objective:   core.MinimizeFailureProb,
		MaxLatency:  22,
		Deadline:    5 * time.Second,
		ExactBudget: 5_000_000,
		Recorder:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Crashing processor 1 leaves a failure-heterogeneous platform, so
	// the escalation reaches branch and bound.
	rep, err := c.Apply(context.Background(), sim.FaultEvent{Proc: 1, Kind: sim.FaultCrash})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Certainty != core.ExhaustivelyOptimal {
		t.Fatalf("certainty = %v (%s), want ExhaustivelyOptimal", rep.Certainty, rep.Method)
	}
	for _, snap := range rec.SolveStats() {
		if snap.Class == subClass && snap.Route == telemetry.RouteHeuristic {
			t.Fatalf("greedy ran on the alive sub-platform: %+v", snap)
		}
	}
}

// TestEscalationMatchesSubPlatformOptimum: crashing processor 1 of the
// Figure 5 instance leaves a failure-heterogeneous platform, so the
// escalation runs branch and bound on the alive processors. The installed
// mapping and metrics are exact.MinFPUnderLatency's answer on a hand-built
// alive sub-platform, with sub-platform ids translated back to the
// original ones (every id from 1 on shifts up by one).
func TestEscalationMatchesSubPlatformOptimum(t *testing.T) {
	p, pl := workload.Fig5()
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeFailureProb, MaxLatency: 22}
	c, err := New(p, pl, solveStart(t, pr), Config{
		Objective:   core.MinimizeFailureProb,
		MaxLatency:  22,
		Deadline:    5 * time.Second,
		ExactBudget: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	const victim = 1
	rep, err := c.Apply(context.Background(), sim.FaultEvent{Proc: victim, Kind: sim.FaultCrash})
	if err != nil {
		t.Fatal(err)
	}

	var ids []int
	var speeds, fps []float64
	for u := 0; u < pl.NumProcs(); u++ {
		if u != victim {
			ids = append(ids, u)
			speeds = append(speeds, pl.Speed[u])
			fps = append(fps, pl.FailProb[u])
		}
	}
	sub, err := platform.NewCommHomogeneous(speeds, fps, pl.B[0][1])
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.MinFPUnderLatency(p, sub, 22, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantMap := &mapping.Mapping{Intervals: want.Mapping.Intervals, Alloc: make([][]int, len(want.Mapping.Alloc))}
	for j, procs := range want.Mapping.Alloc {
		for _, u := range procs {
			wantMap.Alloc[j] = append(wantMap.Alloc[j], ids[u])
		}
	}

	if rep.Certainty != core.ExhaustivelyOptimal {
		t.Errorf("certainty = %v (%s), want exhaustively optimal", rep.Certainty, rep.Method)
	}
	if rep.Mapping.String() != wantMap.String() {
		t.Errorf("installed mapping %s, want the sub-platform optimum translated back %s", rep.Mapping, wantMap)
	}
	if rep.Metrics != want.Metrics {
		t.Errorf("installed metrics %+v, want %+v", rep.Metrics, want.Metrics)
	}
}

// TestRecoveryReEnrolls: after a crash and a recovery the controller
// re-opens the recovered processor to placement and reports an empty
// failed set.
func TestRecoveryReEnrolls(t *testing.T) {
	p, pl := workload.Fig5()
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeFailureProb, MaxLatency: 22}
	start := solveStart(t, pr)
	c, err := New(p, pl, start, Config{Objective: core.MinimizeFailureProb, MaxLatency: 22})
	if err != nil {
		t.Fatal(err)
	}
	victim := usedProcs(start)[0]
	if _, err := c.Apply(context.Background(), sim.FaultEvent{Proc: victim, Kind: sim.FaultCrash}); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Apply(context.Background(), sim.FaultEvent{Proc: victim, Kind: sim.FaultRecover})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Changed {
		t.Error("recovery must trigger a re-optimization pass")
	}
	if len(rep.Down) != 0 {
		t.Errorf("Down = %v after full recovery, want empty", rep.Down)
	}
	_, met, failed := c.Current()
	assertRepairInvariant(t, p, pl, rep, failed)
	if met != rep.Metrics {
		t.Errorf("Current metrics %+v disagree with repair metrics %+v", met, rep.Metrics)
	}
}

// TestUnaffectedCrashFastPath: crashing a processor the mapping does not
// enroll must not re-plan.
func TestUnaffectedCrashFastPath(t *testing.T) {
	p, pl := workload.Fig5()
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeFailureProb, MaxLatency: 22}
	start := solveStart(t, pr)
	used := map[int]bool{}
	for _, u := range usedProcs(start) {
		used[u] = true
	}
	spare := -1
	for u := 0; u < pl.NumProcs(); u++ {
		if !used[u] {
			spare = u
			break
		}
	}
	if spare < 0 {
		t.Skip("start mapping enrolls every processor")
	}
	c, err := New(p, pl, start, Config{Objective: core.MinimizeFailureProb, MaxLatency: 22})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Apply(context.Background(), sim.FaultEvent{Proc: spare, Kind: sim.FaultCrash})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Changed {
		t.Errorf("crash of unenrolled processor %d re-planned: %s", spare, rep.Method)
	}
	if rep.Mapping != start {
		t.Error("unaffected crash must keep the installed mapping")
	}
	if len(rep.Down) != 1 || rep.Down[0] != spare {
		t.Errorf("Down = %v, want [%d]", rep.Down, spare)
	}
}

// TestViolationReport: when the surviving platform cannot meet the
// bound, the controller still installs a valid mapping and reports the
// violation.
func TestViolationReport(t *testing.T) {
	p, pl := workload.Fig34()
	start := mapping.NewSingleInterval(p.NumStages(), []int{0, 1})
	c, err := New(p, pl, start, Config{Objective: core.MinimizeFailureProb, MaxLatency: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Apply(context.Background(), sim.FaultEvent{Proc: 0, Kind: sim.FaultCrash})
	if err != nil {
		t.Fatal(err)
	}
	_, _, failed := c.Current()
	assertRepairInvariant(t, p, pl, rep, failed)
	if rep.Violation == nil {
		t.Fatalf("latency bound 1e-6 met with metrics %+v?", rep.Metrics)
	}
	if rep.Violation.Metric != "latency" {
		t.Errorf("violated metric = %q, want latency", rep.Violation.Metric)
	}
	if rep.Violation.Value <= rep.Violation.Bound {
		t.Errorf("violation value %g not above bound %g", rep.Violation.Value, rep.Violation.Bound)
	}
	// An out-of-range bound is rejected up front, not graded against.
	for _, cfg := range []Config{{MaxLatency: -5}, {Objective: core.MinimizeLatency, MaxFailProb: -1}, {MaxFailProb: 2}} {
		if _, err := New(p, pl, start, cfg); err == nil {
			t.Errorf("New accepted the out-of-range bounds of %+v", cfg)
		}
	}
}

// TestSyncOneShot: Sync replaces the failure state wholesale and repairs
// once — the Remap entry point.
func TestSyncOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	inst := workload.Random(rng, platform.FullyHeterogeneous, 8, 20)
	pr := core.Problem{Pipeline: inst.Pipeline, Platform: inst.Platform, Objective: core.MinimizeFailureProb}
	start := solveStart(t, pr)
	c, err := New(inst.Pipeline, inst.Platform, start, Config{Objective: core.MinimizeFailureProb})
	if err != nil {
		t.Fatal(err)
	}
	failed := make([]bool, 20)
	for _, u := range usedProcs(start)[:3] {
		failed[u] = true
	}
	rep, err := c.Sync(context.Background(), failed)
	if err != nil {
		t.Fatal(err)
	}
	assertRepairInvariant(t, inst.Pipeline, inst.Platform, rep, failed)
	if len(rep.Down) != 3 {
		t.Errorf("Down = %v, want 3 processors", rep.Down)
	}
	if _, err := c.Sync(context.Background(), make([]bool, 7)); err == nil {
		t.Error("mis-sized failure vector must be rejected")
	}
}

// TestControllerConcurrentEventLoop replays a Campaign on one goroutine
// while another polls Current — the -race exercise for the controller's
// serialization.
func TestControllerConcurrentEventLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inst := workload.Random(rng, platform.FullyHeterogeneous, 8, 16)
	pr := core.Problem{Pipeline: inst.Pipeline, Platform: inst.Platform, Objective: core.MinimizeFailureProb}
	start := solveStart(t, pr)
	c, err := New(inst.Pipeline, inst.Platform, start, Config{Objective: core.MinimizeFailureProb})
	if err != nil {
		t.Fatal(err)
	}
	schedule := sim.RandomFaultSchedule(rng, 16, sim.RandomFaultConfig{Events: 30})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				m, _, failed := c.Current()
				if m == nil || len(failed) != 16 {
					t.Error("Current returned an inconsistent snapshot")
					return
				}
			}
		}
	}()

	count := 0
	err = c.Campaign(context.Background(), schedule, func(rep Repair) error {
		count++
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if count != len(schedule) {
		t.Errorf("emitted %d repairs for %d events", count, len(schedule))
	}
	m, met, failed := c.Current()
	assertRepairInvariant(t, inst.Pipeline, inst.Platform, Repair{Mapping: m, Metrics: met}, failed)
}

// TestCampaignEmitErrorAborts: an emit error (disconnected stream
// consumer) stops the replay at the event that failed to emit.
func TestCampaignEmitErrorAborts(t *testing.T) {
	p, pl := workload.Fig5()
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeFailureProb, MaxLatency: 22}
	start := solveStart(t, pr)
	c, err := New(p, pl, start, Config{Objective: core.MinimizeFailureProb, MaxLatency: 22})
	if err != nil {
		t.Fatal(err)
	}
	schedule := sim.FaultSchedule{
		{Time: 1, Proc: usedProcs(start)[0], Kind: sim.FaultCrash},
		{Time: 2, Proc: usedProcs(start)[0], Kind: sim.FaultRecover},
	}
	schedule.Renumber()
	sentinel := errors.New("consumer gone")
	emitted := 0
	if err := c.Campaign(context.Background(), schedule, func(Repair) error {
		emitted++
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the emit error", err)
	}
	if emitted != 1 {
		t.Errorf("emit called %d times, want 1: the replay must stop at the first emit error", emitted)
	}
}

// TestCampaignHoldsThroughTotalFailure: a schedule that crashes every
// processor and then recovers one must not abort the campaign — the
// all-failed event yields a hold record (last mapping kept, graded
// Partial) and the recovery resumes repairs with a valid mapping.
func TestCampaignHoldsThroughTotalFailure(t *testing.T) {
	p, pl := workload.Fig5()
	m := pl.NumProcs()
	pr := core.Problem{Pipeline: p, Platform: pl, Objective: core.MinimizeFailureProb}
	start := solveStart(t, pr)
	c, err := New(p, pl, start, Config{Objective: core.MinimizeFailureProb})
	if err != nil {
		t.Fatal(err)
	}
	var schedule sim.FaultSchedule
	for u := 0; u < m; u++ {
		schedule = append(schedule, sim.FaultEvent{Time: float64(u + 1), Proc: u, Kind: sim.FaultCrash})
	}
	schedule = append(schedule, sim.FaultEvent{Time: float64(m + 1), Proc: 0, Kind: sim.FaultRecover})
	schedule.Renumber()

	var reps []Repair
	if err := c.Campaign(context.Background(), schedule, func(rep Repair) error {
		reps = append(reps, rep)
		return nil
	}); err != nil {
		t.Fatalf("campaign aborted: %v", err)
	}
	if len(reps) != m+1 {
		t.Fatalf("emitted %d repairs for %d events", len(reps), m+1)
	}
	hold := reps[m-1]
	if hold.Changed {
		t.Error("all-failed event must not claim a re-mapping")
	}
	if hold.Certainty != core.Partial {
		t.Errorf("hold record graded %v (%s), want Partial", hold.Certainty, hold.Method)
	}
	if hold.Mapping == nil {
		t.Fatal("hold record must carry the held mapping")
	}
	if len(hold.Down) != m {
		t.Errorf("hold record Down = %v, want all %d processors", hold.Down, m)
	}
	last := reps[m]
	failed := make([]bool, m)
	for u := 1; u < m; u++ {
		failed[u] = true
	}
	assertRepairInvariant(t, p, pl, last, failed)
	if !last.Changed {
		t.Error("recovery after total failure must re-plan")
	}
}
