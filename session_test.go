package repro_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
)

// hetPlatform builds a fully heterogeneous platform of m processors with
// mildly varying speeds, failure probabilities and bandwidths.
func hetPlatform(t *testing.T, m int) *repro.Platform {
	t.Helper()
	speed := make([]float64, m)
	fp := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	b := make([][]float64, m)
	for u := 0; u < m; u++ {
		speed[u] = 1 + 0.5*float64(u)
		fp[u] = 0.05 + 0.3*float64(u)/float64(m)
		bIn[u] = 1 + 0.1*float64(u)
		bOut[u] = 1 + 0.2*float64(u)
		b[u] = make([]float64, m)
		for v := 0; v < m; v++ {
			if u != v {
				b[u][v] = 1 + 0.05*float64(u+v)
			}
		}
	}
	pl, err := repro.NewFullyHeterogeneousPlatform(speed, fp, b, bIn, bOut)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func rampPipeline(t *testing.T, n int) *repro.Pipeline {
	t.Helper()
	w := make([]float64, n)
	delta := make([]float64, n+1)
	for i := range w {
		w[i] = float64(5 + i)
	}
	for i := range delta {
		delta[i] = float64(1 + i%3)
	}
	p, err := repro.NewPipeline(w, delta)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSessionSolveMatchesTopLevel: repeated solves through the session's
// cached evaluator answer exactly what the router answers when it builds
// its own evaluator.
func TestSessionSolveMatchesTopLevel(t *testing.T) {
	pipe, plat := repro.Fig5Instance()
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	req := repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 22}
	want, err := core.SolveCtx(context.Background(), core.Problem{
		Pipeline: pipe, Platform: plat,
		Objective: repro.MinimizeFailureProb, MaxLatency: 22,
	}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := s.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Metrics != want.Metrics || got.Certainty != want.Certainty {
			t.Errorf("run %d: session result %+v differs from the router's %+v", i, got, want)
		}
	}
}

func TestSessionEvaluateMatchesPackage(t *testing.T) {
	pipe, plat := repro.Fig5Instance()
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	m := repro.SingleIntervalMapping(pipe.NumStages(), []int{0, 1, 2})
	want, err := repro.Evaluate(pipe, plat, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("session Evaluate = %+v, package Evaluate = %+v (must be bitwise identical)", got, want)
	}
	// Invalid mappings are still rejected through the cached path.
	bad := repro.SingleIntervalMapping(pipe.NumStages()+3, []int{0})
	if _, err := s.Evaluate(bad); err == nil {
		t.Error("invalid mapping must fail validation")
	}
}

// TestSessionCancelledSolveReturnsPartial is the acceptance scenario: a
// solve under an already-cancelled context must come back with a feasible
// best-so-far mapping graded Partial (never a blocking search, never a
// fake optimality claim).
func TestSessionCancelledSolveReturnsPartial(t *testing.T) {
	pipe := rampPipeline(t, 10)
	plat := hetPlatform(t, 10)
	// Force the exact enumeration route regardless of instance size.
	s, err := repro.NewSession(pipe, plat, repro.WithExactBudget(1e15))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	start := time.Now()
	res, err := s.Solve(ctx, repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 1e6})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("cancelled solve must still produce a best-effort result, got %v", err)
	}
	if res.Certainty != repro.Partial {
		t.Errorf("certainty = %v, want Partial", res.Certainty)
	}
	if res.Mapping == nil {
		t.Fatal("partial result must carry a mapping")
	}
	if met, err := s.Evaluate(res.Mapping); err != nil || met.Latency > 1e6 {
		t.Errorf("partial mapping must be feasible: metrics %+v, err %v", met, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancelled solve took %v, want < 100ms", elapsed)
	}
}

// TestSessionCancelPrompt cancels an intractably large exact enumeration
// mid-flight and requires the solver to return within 100ms of the
// cancellation signal, with the incumbent graded Partial.
func TestSessionCancelPrompt(t *testing.T) {
	pipe := rampPipeline(t, 12)
	plat := hetPlatform(t, 14)
	s, err := repro.NewSession(pipe, plat, repro.WithExactBudget(1e18))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelledAt := make(chan time.Time, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancelledAt <- time.Now()
		cancel()
	}()
	res, err := s.Solve(ctx, repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 1e6})
	sinceCancel := time.Since(<-cancelledAt)
	if sinceCancel > 100*time.Millisecond {
		t.Errorf("solve returned %v after cancellation, want < 100ms", sinceCancel)
	}
	if err != nil {
		t.Fatalf("cancelled solve must return its best-so-far, got %v", err)
	}
	if res.Certainty != repro.Partial {
		t.Errorf("certainty = %v, want Partial", res.Certainty)
	}
	if res.Mapping == nil {
		t.Error("partial result must carry a mapping")
	}
}

// TestSessionDeterministicUnderWorkers: completed (uncancelled) session
// solves must be identical for every worker count.
func TestSessionDeterministicUnderWorkers(t *testing.T) {
	pipe := rampPipeline(t, 6)
	plat := hetPlatform(t, 6)
	var ref repro.Result
	for i, workers := range []int{1, 2, 7} {
		s, err := repro.NewSession(pipe, plat, repro.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 50})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Metrics != ref.Metrics || res.Mapping.String() != ref.Mapping.String() {
			t.Errorf("workers=%d: %+v differs from workers=1 result %+v", workers, res, ref)
		}
	}
}

// TestSessionConcurrentUse hammers one session from many goroutines (the
// -race CI job turns this into a data-race detector for the shared
// evaluator state) and checks that every goroutine sees identical answers.
func TestSessionConcurrentUse(t *testing.T) {
	pipe, plat := repro.Fig5Instance()
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	req := repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 22}
	want, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	m := repro.SingleIntervalMapping(pipe.NumStages(), []int{0, 1})
	wantMet, err := s.Evaluate(m)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*3)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := s.Solve(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if res.Metrics != want.Metrics {
					errs <- errors.New("concurrent solve diverged")
					return
				}
				met, err := s.Evaluate(m)
				if err != nil || met != wantMet {
					errs <- errors.New("concurrent evaluate diverged")
					return
				}
				if _, _, err := s.Pareto(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSessionErrorsIsRoundTrip: the sentinels must survive every layer of
// wrapping between the solvers and the session surface.
func TestSessionErrorsIsRoundTrip(t *testing.T) {
	pipe := rampPipeline(t, 4)
	plat := hetPlatform(t, 4)

	// Exact enumeration proves infeasibility: ErrInfeasible.
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 1e-4})
	if !errors.Is(err, repro.ErrInfeasible) {
		t.Errorf("errors.Is(err, ErrInfeasible) = false for %v", err)
	}
	if errors.Is(err, repro.ErrNotFound) {
		t.Errorf("proven infeasibility must not read as ErrNotFound: %v", err)
	}

	// Heuristic search exhausts without proof: ErrNotFound.
	sh, err := repro.NewSession(pipe, plat, repro.WithForceHeuristic(true))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sh.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 1e-4})
	if !errors.Is(err, repro.ErrNotFound) {
		t.Errorf("errors.Is(err, ErrNotFound) = false for %v", err)
	}
	if errors.Is(err, repro.ErrInfeasible) {
		t.Errorf("heuristic exhaustion must not claim proven infeasibility: %v", err)
	}
}

// TestSessionWithDeadlineOption: an (absurdly) short session deadline
// applies to every call without the caller wiring a context.
func TestSessionWithDeadlineOption(t *testing.T) {
	pipe := rampPipeline(t, 10)
	plat := hetPlatform(t, 10)
	s, err := repro.NewSession(pipe, plat,
		repro.WithExactBudget(1e15), repro.WithDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 1e6})
	if err != nil {
		t.Fatalf("deadline solve must degrade to best-effort, got %v", err)
	}
	if res.Certainty != repro.Partial {
		t.Errorf("certainty = %v, want Partial under an expired session deadline", res.Certainty)
	}
}

// TestSessionMonteCarloCancel: a cancelled campaign reports the trials it
// actually ran together with the context error.
func TestSessionMonteCarloCancel(t *testing.T) {
	pipe, plat := repro.Fig5Instance()
	s, err := repro.NewSession(pipe, plat, repro.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	m := repro.SingleIntervalMapping(pipe.NumStages(), []int{0, 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sum, err := s.MonteCarloCampaign(ctx, m, repro.SimConfig{}, 1_000_000)
	if err == nil {
		t.Fatal("cancelled campaign must report the cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if sum.Trials >= 1_000_000 {
		t.Errorf("campaign claims %d trials despite cancellation", sum.Trials)
	}

	// Uncancelled campaigns stay deterministic for a fixed seed.
	a, err := s.MonteCarloCampaign(context.Background(), m, repro.SimConfig{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.MonteCarloCampaign(context.Background(), m, repro.SimConfig{}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("campaign not deterministic: %+v vs %+v", a, b)
	}
}

// TestSessionPareto: the session Pareto front matches the router's front
// built without the session's evaluator, and degrades to a Partial grade
// under cancellation.
func TestSessionPareto(t *testing.T) {
	pipe, plat := repro.Fig5Instance()
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	front, cert, err := s.Pareto(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantFront, wantCert, err := core.ParetoCtx(context.Background(), pipe, plat, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert != wantCert || front.Len() != wantFront.Len() {
		t.Errorf("session front (%d pts, %v) differs from the router's (%d pts, %v)",
			front.Len(), cert, wantFront.Len(), wantCert)
	}

	big := rampPipeline(t, 9)
	bigPl := hetPlatform(t, 9)
	sBig, err := repro.NewSession(big, bigPl, repro.WithExactBudget(1e15))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, cert, err = sBig.Pareto(ctx)
	if err != nil {
		t.Fatalf("cancelled Pareto must return the partial front, got %v", err)
	}
	if cert != repro.Partial {
		t.Errorf("certainty = %v, want Partial", cert)
	}
	cancel()
}

// TestSessionBounds sanity-checks the interval latency bounds of a
// session's instance: the lower bound sits below the upper mapping's
// latency, and the session's evaluator scores that mapping as the bounds
// report it.
func TestSessionBounds(t *testing.T) {
	pipe := rampPipeline(t, 5)
	plat := hetPlatform(t, 5)
	s, err := repro.NewSession(pipe, plat)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := repro.IntervalLatencyBounds(s.Pipeline(), s.Platform())
	if err != nil {
		t.Fatal(err)
	}
	if !(bounds.Lower <= bounds.Upper.Metrics.Latency+1e-9) || math.IsNaN(bounds.Lower) {
		t.Errorf("inconsistent bounds: %+v", bounds)
	}
	met, err := s.Evaluate(bounds.Upper.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if met != bounds.Upper.Metrics {
		t.Errorf("session scores the upper mapping %+v, bounds report %+v", met, bounds.Upper.Metrics)
	}
}

// TestSessionParetoCancelledBeforeAnyPoint: a context that is already
// dead before the sweep starts must yield an error, not a silent empty
// front pretending to be a trade-off curve.
func TestSessionParetoCancelledBeforeAnyPoint(t *testing.T) {
	pipe := rampPipeline(t, 8)
	plat := hetPlatform(t, 8)
	s, err := repro.NewSession(pipe, plat, repro.WithForceHeuristic(true))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	front, _, err := s.Pareto(ctx)
	if err == nil {
		if front == nil || front.Len() == 0 {
			t.Error("cancelled Pareto returned an empty front with no error")
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

// TestSessionWithRecorder: a session built with WithRecorder reports
// every solve into the shared recorder, and Result.Route names the
// route taken.
func TestSessionWithRecorder(t *testing.T) {
	pipe, plat := rampPipeline(t, 4), hetPlatform(t, 4)
	rec := repro.NewRecorder()
	s, err := repro.NewSession(pipe, plat, repro.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(context.Background(), repro.SolveRequest{
		Objective:   repro.MinimizeLatency,
		MaxFailProb: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route == "" {
		t.Fatal("Result.Route is empty")
	}
	if got := rec.Counter("solve_total").Load(); got != 1 {
		t.Fatalf("solve_total = %d, want 1", got)
	}
	stats := rec.SolveStats()
	if len(stats) == 0 {
		t.Fatal("recorder has no route profiles after a solve")
	}
}
