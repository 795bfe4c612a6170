package repro_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro"
)

// remapStart solves the session's instance once to obtain the deployed
// mapping a reactive campaign starts from.
func remapStart(t *testing.T, s *repro.Session, req repro.SolveRequest) *repro.Mapping {
	t.Helper()
	res, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res.Mapping
}

// firstUsed returns the lowest processor id the mapping enrolls.
func firstUsed(m *repro.Mapping) int {
	best := -1
	for _, procs := range m.Alloc {
		for _, u := range procs {
			if best < 0 || u < best {
				best = u
			}
		}
	}
	return best
}

func TestSessionRemapOneShot(t *testing.T) {
	pipe, plat := repro.Fig5Instance()
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	req := repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 22}
	start := remapStart(t, s, req)
	failed := make([]bool, plat.NumProcs())
	failed[firstUsed(start)] = true
	rep, err := s.Remap(context.Background(), start, failed, repro.RemapConfig{
		Objective: repro.MinimizeFailureProb, MaxLatency: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Mapping.Validate(pipe.NumStages(), plat.NumProcs()); err != nil {
		t.Fatalf("remapped mapping invalid: %v", err)
	}
	for _, procs := range rep.Mapping.Alloc {
		for _, u := range procs {
			if failed[u] {
				t.Fatalf("remapped mapping assigns failed processor %d", u)
			}
		}
	}
	met, err := s.Evaluate(rep.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if met != rep.Metrics {
		t.Errorf("reported metrics %+v disagree with Evaluate %+v", rep.Metrics, met)
	}
}

// TestSessionRunReactiveCampaign drives a multi-failure campaign through
// the root API on a wide platform and checks the acceptance properties:
// the mapping stays valid after every event and warm repairs are far
// cheaper than cold solves (asserted loosely here; BenchmarkRepairM80
// carries the precise evidence).
func TestSessionRunReactiveCampaign(t *testing.T) {
	pipe, plat := rampPipeline(t, 12), hetPlatform(t, 80)
	s, err := repro.NewSession(pipe, plat, repro.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	// Bound the latency at twice the heuristic optimum so the min-FP
	// deployment replicates across several processors.
	lref, err := s.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeLatency})
	if err != nil {
		t.Fatal(err)
	}
	req := repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 2 * lref.Metrics.Latency}

	// Both sides of the speed check below are minima over campaignRuns
	// runs, so one preempted run on a loaded machine cannot flip it.
	const campaignRuns = 3
	var start *repro.Mapping
	coldSolve := time.Duration(math.MaxInt64)
	for k := 0; k < campaignRuns; k++ {
		t0 := time.Now()
		start = remapStart(t, s, req)
		coldSolve = min(coldSolve, time.Since(t0))
	}

	var victims []int
	seen := map[int]bool{}
	for _, procs := range start.Alloc {
		for _, u := range procs {
			if !seen[u] && len(victims) < 3 {
				seen[u] = true
				victims = append(victims, u)
			}
		}
	}
	if len(victims) < 3 {
		t.Fatalf("deployment enrolls only %d processors", len(victims))
	}
	schedule := repro.ScriptedCrashes(victims...)
	cfg := repro.RemapConfig{Objective: repro.MinimizeFailureProb, MaxLatency: req.MaxLatency}

	reps, err := s.RunReactive(context.Background(), start, schedule, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != len(schedule) {
		t.Fatalf("got %d repairs for %d events", len(reps), len(schedule))
	}
	failed := make([]bool, plat.NumProcs())
	for i, rep := range reps {
		failed[schedule[i].Proc] = true
		if err := rep.Mapping.Validate(pipe.NumStages(), plat.NumProcs()); err != nil {
			t.Fatalf("repair %d invalid: %v", i, err)
		}
		for _, procs := range rep.Mapping.Alloc {
			for _, u := range procs {
				if failed[u] {
					t.Fatalf("repair %d assigns failed processor %d", i, u)
				}
			}
		}
	}

	// Determinism: the same campaign replays to identical mappings. The
	// replays also time each repair again.
	repair := make([]time.Duration, len(reps))
	for i, rep := range reps {
		repair[i] = rep.Elapsed
	}
	for k := 1; k < campaignRuns; k++ {
		again, err := s.RunReactive(context.Background(), start, schedule, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reps {
			if reps[i].Mapping.String() != again[i].Mapping.String() {
				t.Fatalf("repair %d differs across identical campaigns", i)
			}
			repair[i] = min(repair[i], again[i].Elapsed)
		}
	}
	for i, rep := range reps {
		t.Logf("repair %d: %s in %v (cold solve %v; minima of %d runs)", i, rep.Method, repair[i], coldSolve, campaignRuns)
		if !raceEnabled && repair[i] > coldSolve {
			t.Errorf("repair %d slower than the cold solve: %v > %v (minima of %d runs)", i, repair[i], coldSolve, campaignRuns)
		}
	}
}

func TestSessionRunReactiveRandomSchedule(t *testing.T) {
	pipe, plat := rampPipeline(t, 6), hetPlatform(t, 12)
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	start := remapStart(t, s, repro.SolveRequest{Objective: repro.MinimizeFailureProb})
	schedule := repro.NewRandomFaultSchedule(rand.New(rand.NewSource(4)), plat.NumProcs(), repro.RandomFaultConfig{Events: 16})
	count := 0
	_, err = s.RunReactive(context.Background(), start, schedule, repro.RemapConfig{
		Objective: repro.MinimizeFailureProb,
	}, func(rep repro.RemapResult) error {
		count++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(schedule) {
		t.Fatalf("emit saw %d repairs for %d events", count, len(schedule))
	}
}
