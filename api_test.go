package repro

import (
	"context"
	"errors"
	"math"
	"testing"
)

// newTestSession builds a session over (p, pl) or fails the test.
func newTestSession(t *testing.T, p *Pipeline, pl *Platform, opts ...SessionOption) *Session {
	t.Helper()
	s, err := NewSession(p, pl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuickstartFlow exercises the documented public API end to end on
// the paper's Figure 5 instance.
func TestQuickstartFlow(t *testing.T) {
	p, pl := Fig5Instance()
	res, err := newTestSession(t, p, pl).Solve(context.Background(), SolveRequest{
		Objective:  MinimizeFailureProb,
		MaxLatency: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	if math.Abs(res.Metrics.FailureProb-want) > 1e-12 {
		t.Errorf("FP = %g, want %g", res.Metrics.FailureProb, want)
	}
	// Round trip through the public evaluators.
	met, err := Evaluate(p, pl, res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if met != res.Metrics {
		t.Error("Evaluate disagrees with Solve's metrics")
	}
	if lat, _ := Latency(p, pl, res.Mapping); lat != met.Latency {
		t.Error("Latency disagrees with Evaluate")
	}
	if fp := FailureProb(pl, res.Mapping); fp != met.FailureProb {
		t.Error("FailureProb disagrees with Evaluate")
	}
}

func TestConstructors(t *testing.T) {
	if _, err := NewPipeline([]float64{1}, []float64{1, 1}); err != nil {
		t.Errorf("NewPipeline: %v", err)
	}
	if _, err := NewPipeline(nil, nil); err == nil {
		t.Error("invalid pipeline accepted")
	}
	if p := UniformPipeline(4, 2, 3); p.NumStages() != 4 {
		t.Error("UniformPipeline wrong shape")
	}
	if p := JPEGPipeline(100, 100); p.NumStages() != 7 {
		t.Error("JPEGPipeline wrong shape")
	}
	if _, err := NewFullyHomogeneousPlatform(3, 1, 1, 0.5); err != nil {
		t.Errorf("NewFullyHomogeneousPlatform: %v", err)
	}
	if _, err := NewCommHomogeneousPlatform([]float64{1}, []float64{0.5}, 1); err != nil {
		t.Errorf("NewCommHomogeneousPlatform: %v", err)
	}
	if _, err := NewFullyHeterogeneousPlatform(
		[]float64{1}, []float64{0}, [][]float64{{0}}, []float64{1}, []float64{1}); err != nil {
		t.Errorf("NewFullyHeterogeneousPlatform: %v", err)
	}
}

func TestGeneralMappingAPI(t *testing.T) {
	p, pl := Fig34Instance()
	g, lat, err := MinLatencyGeneralMapping(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lat-7) > 1e-9 {
		t.Errorf("latency = %g, want 7", lat)
	}
	if !g.IsOneToOne() {
		t.Error("Fig34 optimum should be one-to-one")
	}
}

func TestMinFailureProbAPI(t *testing.T) {
	p, pl := Fig5Instance()
	res, err := newTestSession(t, p, pl).Solve(context.Background(), SolveRequest{Objective: MinimizeFailureProb})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != ProvablyOptimal {
		t.Error("Theorem 1 result should be provably optimal")
	}
}

func TestSimulationAPI(t *testing.T) {
	p, pl := Fig5Instance()
	m := SingleIntervalMapping(2, []int{1, 2})
	res, err := Simulate(p, pl, m, SimConfig{Mode: WorstCase})
	if err != nil {
		t.Fatal(err)
	}
	analytic, _ := Latency(p, pl, m)
	if math.Abs(res.MaxLatency-analytic) > 1e-9 {
		t.Errorf("simulated %g != analytic %g", res.MaxLatency, analytic)
	}
	inj, err := SimulateInjected(p, pl, m, SimConfig{}, make([]bool, 11))
	if err != nil || !inj.Completed {
		t.Errorf("injection with no failures must complete: %v %v", inj, err)
	}
	est, err := newTestSession(t, p, pl).EstimateFailureProb(context.Background(), m, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Within(FailureProb(pl, m), 4) {
		t.Errorf("estimate %g ± %g too far from analytic %g", est.FP, est.StdErr, FailureProb(pl, m))
	}
}

func TestParetoFrontAPI(t *testing.T) {
	p, _ := Fig5Instance()
	pl, _ := NewCommHomogeneousPlatform([]float64{1, 100, 100}, []float64{0.1, 0.8, 0.8}, 1)
	front, cert, err := newTestSession(t, p, pl).Pareto(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cert != ExhaustivelyOptimal || front.Len() == 0 {
		t.Errorf("front: %d points, certainty %v", front.Len(), cert)
	}
}

func TestLemma1API(t *testing.T) {
	p := UniformPipeline(3, 2, 1)
	pl, _ := NewFullyHomogeneousPlatform(4, 1, 1, 0.3)
	m := &Mapping{
		Intervals: []Interval{{First: 0, Last: 0}, {First: 1, Last: 2}},
		Alloc:     [][]int{{0, 1}, {2}},
	}
	single, err := Lemma1SingleInterval(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	if single.NumIntervals() != 1 {
		t.Error("Lemma 1 must return a single interval")
	}
	before, _ := Evaluate(p, pl, m)
	after, _ := Evaluate(p, pl, single)
	if after.Latency > before.Latency+1e-9 || after.FailureProb > before.FailureProb+1e-12 {
		t.Error("Lemma 1 transformation worsened a criterion")
	}
}

func TestErrorSentinels(t *testing.T) {
	p, pl := Fig5Instance()
	_, err := newTestSession(t, p, pl).Solve(context.Background(), SolveRequest{Objective: MinimizeFailureProb, MaxLatency: 0.1})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestThroughputAPI(t *testing.T) {
	p, err := NewPipeline([]float64{100}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewCommHomogeneousPlatform(
		[]float64{10, 10, 10}, []float64{0.3, 0.3, 0.3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := SingleIntervalMapping(1, []int{0, 1, 2})

	per, err := Period(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	sus, err := PeriodSustainable(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	no, err := PeriodNoOverlap(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	if !(per <= sus+1e-12 && sus <= no+1e-12) {
		t.Errorf("period ordering broken: %g, %g, %g", per, sus, no)
	}

	rr := RoundRobinMapping(m)
	if err := rr.Validate(1, 3); err != nil {
		t.Fatalf("RoundRobinMapping invalid: %v", err)
	}
	met, err := rr.Evaluate(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(met.Period-per) > 1e-9 {
		t.Errorf("single-group RR period %g != Period %g", met.Period, per)
	}

	s := newTestSession(t, p, pl)
	greedy, err := s.GreedyRoundRobin(context.Background(), m, math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Metrics.Period > per+1e-12 {
		t.Error("greedy RR worsened the period")
	}

	exactRes, err := s.MinPeriod(context.Background(), math.Inf(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if exactRes.Metrics.Period > greedy.Metrics.Period+1e-9 {
		t.Error("exhaustive tri-criteria worse than greedy")
	}

	front, err := s.TriPareto(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if front.Len() == 0 {
		t.Error("empty tri-criteria front")
	}
}

func TestParallelEstimatorsAPI(t *testing.T) {
	p, pl := Fig5Instance()
	m := &Mapping{
		Intervals: []Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	analytic := FailureProb(pl, m)
	s := newTestSession(t, p, pl, WithWorkers(4), WithSeed(3))
	est, err := s.EstimateFailureProb(context.Background(), m, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Within(analytic, 4) {
		t.Errorf("parallel estimate %g ± %g vs analytic %g", est.FP, est.StdErr, analytic)
	}
	sum, err := s.MonteCarloCampaign(context.Background(), m, SimConfig{}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Trials != 500 || sum.Completed+sum.Failures != 500 {
		t.Errorf("campaign accounting: %+v", sum)
	}
}

func TestTraceAPI(t *testing.T) {
	p, pl := Fig5Instance()
	m := SingleIntervalMapping(2, []int{1, 2})
	res, err := Simulate(p, pl, m, SimConfig{Mode: WorstCase, CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || res.Trace.Gantt(50) == "" {
		t.Error("trace missing through the public API")
	}
}
