package heuristics

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/frontier"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// fig5 builds the paper's Figure 5 instance (1 slow reliable + 10 fast
// unreliable processors).
func fig5() (*pipeline.Pipeline, *platform.Platform) {
	p := pipeline.MustNew([]float64{1, 100}, []float64{10, 1, 0})
	speeds := []float64{1}
	fps := []float64{0.1}
	for i := 0; i < 10; i++ {
		speeds = append(speeds, 100)
		fps = append(fps, 0.8)
	}
	pl, err := platform.NewCommHomogeneous(speeds, fps, 1)
	if err != nil {
		panic(err)
	}
	return p, pl
}

func fig34() (*pipeline.Pipeline, *platform.Platform) {
	p := pipeline.MustNew([]float64{2, 2}, []float64{100, 100, 100})
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 1}, []float64{0.5, 0.5},
		[][]float64{{0, 100}, {100, 0}},
		[]float64{100, 1}, []float64{1, 100})
	if err != nil {
		panic(err)
	}
	return p, pl
}

// TestSweepFig5 reproduces the paper's single-interval bound: under L=22
// the best single interval is two fast processors with FP 0.64.
func TestSweepFig5(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 22}
	res, err := SingleIntervalSweep(pr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.FailureProb-0.64) > 1e-12 {
		t.Errorf("sweep FP = %g, want 0.64 (paper's one-interval bound)", res.Metrics.FailureProb)
	}
}

// TestGreedyFig5 is experiment E2's core claim: greedy splitting discovers
// the paper's two-interval optimum FP = 1 − 0.9·(1−0.8^10) ≈ 0.186 < 0.2.
func TestGreedyFig5(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 22}
	res, err := Greedy(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	if math.Abs(res.Metrics.FailureProb-want) > 1e-12 {
		t.Errorf("greedy FP = %g, want %g (two-interval optimum)", res.Metrics.FailureProb, want)
	}
	if !leqTol(res.Metrics.Latency, 22) {
		t.Errorf("latency %g exceeds bound 22", res.Metrics.Latency)
	}
	if res.Mapping.NumIntervals() != 2 {
		t.Errorf("mapping has %d intervals, want 2: %v", res.Mapping.NumIntervals(), res.Mapping)
	}
}

// TestGreedyFig34 checks the latency goal on the fully heterogeneous
// motivating example: the split mapping of latency 7 must be found.
func TestGreedyFig34(t *testing.T) {
	p, pl := fig34()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinLatency, Bound: 1} // FP ≤ 1: unconstrained
	res, err := Greedy(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Latency-7) > 1e-9 {
		t.Errorf("greedy latency = %g, want 7", res.Metrics.Latency)
	}
}

func TestSweepInfeasible(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 0.5} // below any latency
	if _, err := SingleIntervalSweep(pr); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, err := Greedy(context.Background(), pr); !errors.Is(err, ErrNotFound) {
		t.Errorf("greedy err = %v, want ErrNotFound", err)
	}
	if _, err := Anneal(context.Background(), pr, AnnealConfig{Iters: 50, Restarts: 1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("anneal err = %v, want ErrNotFound", err)
	}
}

// TestAnnealFig5 checks the annealer also reaches the two-interval optimum
// on the Figure 5 instance (fixed seed for determinism).
func TestAnnealFig5(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 22}
	res, err := Anneal(context.Background(), pr, AnnealConfig{Seed: 3, Iters: 4000, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	if res.Metrics.FailureProb > want+1e-9 {
		t.Errorf("anneal FP = %g, want ≤ %g", res.Metrics.FailureProb, want)
	}
}

// Property: heuristic results are always feasible valid mappings and never
// beat the exhaustive optimum (sanity of both sides).
func TestHeuristicsNeverBeatExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		m := 2 + rng.Intn(3)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*2)
		L := 2 + rng.Float64()*30
		pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: L}

		ex, exErr := exact.MinFPUnderLatency(p, pl, L, exact.Options{})
		for _, solve := range []func() (Result, error){
			func() (Result, error) { return SingleIntervalSweep(pr) },
			func() (Result, error) { return Greedy(context.Background(), pr) },
			func() (Result, error) {
				return Anneal(context.Background(), pr, AnnealConfig{Seed: seed, Iters: 300, Restarts: 2})
			},
		} {
			res, err := solve()
			if err != nil {
				continue // heuristics may miss feasible mappings
			}
			if exErr != nil {
				return false // heuristic found a mapping where exact says none exists
			}
			if err := res.Mapping.Validate(n, m); err != nil {
				return false
			}
			if !leqTol(res.Metrics.Latency, L) {
				return false
			}
			if res.Metrics.FailureProb < ex.Metrics.FailureProb-1e-9 {
				return false // heuristic "beat" the exact optimum: a bug
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGreedyDominatesSweep: greedy starts from the sweep's solution, so it
// can only be at least as good.
func TestGreedyDominatesSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 2 + rng.Intn(5)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
		L := 2 + rng.Float64()*40
		pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: L}
		sweep, errS := SingleIntervalSweep(pr)
		greedy, errG := Greedy(context.Background(), pr)
		if errS != nil {
			return true // nothing to compare
		}
		if errG != nil {
			return false // greedy must succeed whenever the sweep does
		}
		return greedy.Metrics.FailureProb <= sweep.Metrics.FailureProb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGreedyMatchesExactOften: on a fixed panel of small open-case
// instances (CommHom + FailureHet), greedy finds the exhaustive optimum in
// the vast majority of cases. Deterministic: fixed seeds.
func TestGreedyMatchesExactOften(t *testing.T) {
	matches, total := 0, 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		m := 3 + rng.Intn(2)
		p := pipeline.Random(rng, n, 1, 5, 1, 5)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1)
		L := 5 + rng.Float64()*20
		pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: L}
		ex, err := exact.MinFPUnderLatency(p, pl, L, exact.Options{})
		if err != nil {
			continue
		}
		total++
		res, err := Greedy(context.Background(), pr)
		if err != nil {
			continue
		}
		if res.Metrics.FailureProb <= ex.Metrics.FailureProb+1e-9 {
			matches++
		}
	}
	if total == 0 {
		t.Skip("no feasible instances in panel")
	}
	if matches*2 < total {
		t.Errorf("greedy matched exact on %d/%d instances, want ≥ half", matches, total)
	}
}

func TestAnnealMinLatencyGoal(t *testing.T) {
	p, pl := fig34()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinLatency, Bound: 1}
	res, err := Anneal(context.Background(), pr, AnnealConfig{Seed: 11, Iters: 3000, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Latency-7) > 1e-9 {
		t.Errorf("anneal latency = %g, want 7", res.Metrics.Latency)
	}
}

// TestAnnealRespectsFPConstraint: with a binding FP bound the annealer
// returns only mappings within it.
func TestAnnealRespectsFPConstraint(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinLatency, Bound: 0.2}
	res, err := Anneal(context.Background(), pr, AnnealConfig{Seed: 5, Iters: 4000, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.FailureProb > 0.2+1e-12 {
		t.Errorf("FP %g exceeds bound 0.2", res.Metrics.FailureProb)
	}
	// The known two-interval mapping achieves latency 22 at FP < 0.2, so
	// the annealer must do at least roughly that well.
	if res.Metrics.Latency > 22+1e-9 {
		t.Errorf("latency = %g, want ≤ 22", res.Metrics.Latency)
	}
}

func TestParetoSearchFrontSane(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl}
	front, err := ParetoSearch(context.Background(), pr, AnnealConfig{Seed: 2, Iters: 2000, Restarts: 3})
	if err != nil {
		t.Fatalf("uncanceled ParetoSearch reported %v", err)
	}
	if front.Len() < 3 {
		t.Fatalf("front has %d points, want several", front.Len())
	}
	es := front.Entries()
	for i := 1; i < len(es); i++ {
		if es[i].Metrics.Latency <= es[i-1].Metrics.Latency ||
			es[i].Metrics.FailureProb >= es[i-1].Metrics.FailureProb {
			t.Fatal("archive front violates Pareto invariant")
		}
	}
	// Every archived mapping must evaluate to its recorded metrics.
	for _, e := range es {
		met, err := mapping.Evaluate(p, pl, e.Mapping)
		if err != nil {
			t.Fatalf("archived mapping invalid: %v", err)
		}
		if math.Abs(met.Latency-e.Metrics.Latency) > 1e-9 {
			t.Fatal("archived metrics do not match mapping")
		}
	}
}

// TestRandomStateValid: the annealer's random initial states are always
// valid mappings.
func TestRandomStateValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		p := pipeline.Uniform(n, 1, 1)
		pl, _ := platform.NewFullyHomogeneous(m, 1, 1, 0.5)
		pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: math.Inf(1)}
		st := randomState(rng, pr)
		return st.Validate(n, m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRandomMovePreservesValidity: every applicable random move applied to
// a valid search state yields a valid mapping whose incremental metrics
// equal a fresh evaluation, and restoring the pre-move snapshot brings
// back the previous mapping and metrics exactly (the apply, score, restore
// protocol of doc.go). Kept moves re-take the snapshot, as Anneal does.
func TestRandomMovePreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		p := pipeline.Uniform(n, 1, 1)
		pl, _ := platform.NewFullyHomogeneous(m, 1, 1, 0.5)
		pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: math.Inf(1)}
		s, err := newSearcher(pr)
		if err != nil {
			return false
		}
		s.st.Load(randomState(rng, pr))
		s.snap.CopyFrom(s.st)
		for i := 0; i < 30; i++ {
			mv, ok := s.randomMove(rng)
			if !ok {
				continue
			}
			before, beforeMet := s.st.ToMapping().String(), s.st.Metrics()
			mv.apply(s)
			mp := s.st.ToMapping()
			if mp.Validate(n, m) != nil {
				return false
			}
			if want, ok := pr.evaluate(mp); !ok || want != s.st.Metrics() {
				return false
			}
			if rng.Intn(2) == 0 {
				s.st.CopyFrom(s.snap)
				if s.st.ToMapping().String() != before || s.st.Metrics() != beforeMet {
					return false
				}
			} else {
				s.snap.CopyFrom(s.st)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestParetoArchiveSharedWithFront(t *testing.T) {
	p, pl := fig5()
	front := &frontier.Front{}
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: math.Inf(1)}
	_, err := Anneal(context.Background(), pr, AnnealConfig{Seed: 9, Iters: 500, Restarts: 1, Archive: front})
	if err != nil {
		t.Fatal(err)
	}
	if front.Len() == 0 {
		t.Error("archive stayed empty")
	}
}
