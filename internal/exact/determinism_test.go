package exact

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// This file pins the shared-incumbent determinism contract: the returned
// mapping AND metrics must be bitwise-identical for every worker count —
// with and without a (live, unfired) cancellation context — because
// incumbent pruning is strict and equal-metric candidates resolve by task
// order, never by scheduling.
// The tests run under -race in CI, where stale bound reads and racing
// offer calls are exercised for real.

// workerCounts returns the deduplicated worker ladder {1, 4, GOMAXPROCS}.
func workerCounts() []int {
	ws := []int{1, 4, runtime.GOMAXPROCS(0)}
	out := ws[:0]
	seen := map[int]bool{}
	for _, w := range ws {
		if w > 0 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// resultKey captures a solver answer for bitwise comparison: metrics
// compared with ==, the mapping by its canonical rendering.
func resultKey(r Result) (mapping.Metrics, string) {
	s := ""
	if r.Mapping != nil {
		s = r.Mapping.String()
	}
	return r.Metrics, s
}

func checkBitwiseSame(t *testing.T, label string, base Result, baseErr error, got Result, gotErr error) {
	t.Helper()
	if (baseErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: err = %v, baseline err = %v", label, gotErr, baseErr)
	}
	if baseErr != nil {
		if !errors.Is(gotErr, ErrInfeasible) || !errors.Is(baseErr, ErrInfeasible) {
			t.Fatalf("%s: unexpected errors %v / %v", label, gotErr, baseErr)
		}
		return
	}
	bm, bs := resultKey(base)
	gm, gs := resultKey(got)
	if bm != gm {
		t.Fatalf("%s: metrics %+v, baseline %+v", label, gm, bm)
	}
	if bs != gs {
		t.Fatalf("%s: mapping %s, baseline %s", label, gs, bs)
	}
}

// TestSharedIncumbentDeterminism: every solver must return the bitwise
// answer of the sequential run for Workers ∈ {1, 4, GOMAXPROCS}, both
// without a context and under a live cancellation context that never
// fires.
func TestSharedIncumbentDeterminism(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p, pl := randomInstance(seed)
		rng := rand.New(rand.NewSource(seed + 900))
		L := 1 + rng.Float64()*40
		F := rng.Float64()

		type solver struct {
			name string
			run  func(opts Options) (Result, error)
		}
		solvers := []solver{
			{"MinLatencyInterval", func(o Options) (Result, error) { return MinLatencyInterval(p, pl, o) }},
			{"MinFPUnderLatency", func(o Options) (Result, error) { return MinFPUnderLatency(p, pl, L, o) }},
			{"MinLatencyUnderFP", func(o Options) (Result, error) { return MinLatencyUnderFP(p, pl, F, o) }},
		}
		for _, sv := range solvers {
			base, baseErr := sv.run(Options{Workers: 1})
			for _, workers := range workerCounts() {
				got, gotErr := sv.run(Options{Workers: workers})
				checkBitwiseSame(t, sv.name, base, baseErr, got, gotErr)

				ctx, cancel := context.WithCancel(context.Background())
				got, gotErr = sv.run(Options{Workers: workers, Ctx: ctx})
				cancel()
				checkBitwiseSame(t, sv.name+" (live ctx)", base, baseErr, got, gotErr)
			}
		}

		baseFront, err := ParetoFront(p, pl, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range workerCounts() {
			front, err := ParetoFront(p, pl, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(front) != len(baseFront) {
				t.Fatalf("seed %d workers %d: front size %d, sequential %d", seed, workers, len(front), len(baseFront))
			}
			for i := range front {
				if front[i].Metrics != baseFront[i].Metrics || front[i].Mapping.String() != baseFront[i].Mapping.String() {
					t.Fatalf("seed %d workers %d: front[%d] differs from the sequential run", seed, workers, i)
				}
			}
		}
	}
}

// quantizedCommHom builds a communication-homogeneous platform whose
// speeds fold into exactly `classes` values, so the processors of one
// class tie on every Eq. (1) cost and the engine's task-order tie-break
// decides the answer, at wide processor counts too.
func quantizedCommHom(rng *rand.Rand, m, classes int) *platform.Platform {
	pl := platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 2)
	speeds := make([]float64, classes)
	for c := range speeds {
		speeds[c] = 1 + rng.Float64()*9
	}
	for u := range pl.Speed {
		pl.Speed[u] = speeds[u%classes]
	}
	return pl
}

// TestSolverEquivalenceWide: at m ∈ {8, 64, 80, 128} — spanning the
// narrow search, both m=64 boundaries and the wide stride-word search —
// MinLatencyInterval must match the unpruned slice reference's optimum
// bitwise for every worker count, on fully heterogeneous and on
// speed-quantized communication-homogeneous platforms. The reference
// breaks latency ties differently, so the objective value is compared
// against it while the mapping itself is pinned engine-vs-engine: every
// worker count must reproduce the sequential engine's answer bit for
// bit.
func TestSolverEquivalenceWide(t *testing.T) {
	for _, m := range []int{8, 64, 80, 128} {
		n := 3
		if m >= 64 {
			n = 2 // keep the exhaustive reference tractable (O(m^n) slice evals)
		}
		rng := rand.New(rand.NewSource(int64(100*n + m)))
		p := pipeline.Random(rng, n, 1, 10, 1, 10)

		het := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
		ref, err := refMinLatency(p, het, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, baseErr := MinLatencyInterval(p, het, Options{Workers: 1})
		if baseErr != nil || base.Metrics.Latency != ref.Metrics.Latency {
			t.Fatalf("m=%d het: latency %v (err %v), reference %v", m, base.Metrics.Latency, baseErr, ref.Metrics.Latency)
		}
		for _, workers := range workerCounts() {
			got, gotErr := MinLatencyInterval(p, het, Options{Workers: workers})
			checkBitwiseSame(t, "het", base, baseErr, got, gotErr)
		}

		hom := quantizedCommHom(rng, m, 3)
		ref, err = refMinLatency(p, hom, Options{})
		if err != nil {
			t.Fatal(err)
		}
		base, baseErr = MinLatencyInterval(p, hom, Options{Workers: 1})
		if baseErr != nil || base.Metrics.Latency != ref.Metrics.Latency {
			t.Fatalf("m=%d commHom: latency %v (err %v), reference %v", m, base.Metrics.Latency, baseErr, ref.Metrics.Latency)
		}
		for _, workers := range workerCounts() {
			got, gotErr := MinLatencyInterval(p, hom, Options{Workers: workers})
			checkBitwiseSame(t, "commHom", base, baseErr, got, gotErr)
		}
	}
}

// TestDeterminismUnderCancellation: a mid-run cancellation may truncate
// the answer, but whatever comes back must be a valid feasible mapping
// that reproduces its reported metrics, for every worker count.
func TestDeterminismUnderCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n, m := 8, 10
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
	for _, workers := range workerCounts() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
		res, err := MinLatencyInterval(p, pl, Options{Workers: workers, Ctx: ctx})
		cancel()
		if err == nil {
			continue // finished before the deadline — nothing to check
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers %d: err = %v, want ErrCanceled", workers, err)
		}
		if res.Mapping == nil {
			continue // canceled before any incumbent
		}
		if verr := res.Mapping.Validate(n, m); verr != nil {
			t.Fatalf("workers %d: canceled result invalid: %v", workers, verr)
		}
		met, merr := mapping.Evaluate(p, pl, res.Mapping)
		if merr != nil || met != res.Metrics {
			t.Fatalf("workers %d: canceled result does not reproduce its metrics (%+v vs %+v, %v)",
				workers, met, res.Metrics, merr)
		}
	}
}
