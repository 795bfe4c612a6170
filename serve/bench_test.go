package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/platform"
)

// benchWideInstance builds the wide constrained instance the solution
// cache is designed to amortize: 60 stages on 80 fully heterogeneous
// processors, minFailureProb under a binding latency bound, which routes
// to the greedy/annealing heuristic (milliseconds per cold solve).
func benchWideInstance(b *testing.B) (*pipeline.Pipeline, *platform.Platform) {
	b.Helper()
	n, m := 60, 80
	w := make([]float64, n)
	d := make([]float64, n+1)
	for i := range w {
		w[i] = float64(10 + i)
	}
	for i := range d {
		d[i] = float64(1 + i%3)
	}
	speed := make([]float64, m)
	fp := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	bw := make([][]float64, m)
	for u := 0; u < m; u++ {
		speed[u] = float64(1 + u)
		fp[u] = 0.05 + 0.9*float64(u)/float64(m)
		bIn[u] = 1 + 0.1*float64(u)
		bOut[u] = 1 + 0.2*float64(u)
		bw[u] = make([]float64, m)
	}
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			bw[u][v] = 1 + 0.05*float64(u+v)
			bw[v][u] = bw[u][v]
		}
	}
	pl, err := platform.NewFullyHeterogeneous(speed, fp, bw, bIn, bOut)
	if err != nil {
		b.Fatal(err)
	}
	return pipeline.MustNew(w, d), pl
}

// benchWideSpec derives the bounded solve request: the latency bound is
// twice the unconstrained optimum, so it is feasible but binding.
func benchWideSpec(b *testing.B) SolveSpec {
	b.Helper()
	p, pl := benchWideInstance(b)
	svc := New(Config{SolutionCacheSize: -1})
	latRes := svc.solveOne(context.Background(), SolveSpec{
		Pipeline: p, Platform: pl, Objective: "minLatency",
	})
	if latRes.Error != "" {
		b.Fatal(latRes.Error)
	}
	return SolveSpec{
		Pipeline:   p,
		Platform:   pl,
		Objective:  "minFailureProb",
		MaxLatency: 2 * latRes.Latency,
	}
}

// BenchmarkColdM80Solve is the baseline the solution cache is measured
// against: every iteration stands up a fresh service (empty caches) and
// pays canonicalization, session construction and the full heuristic
// solve for the wide instance.
func BenchmarkColdM80Solve(b *testing.B) {
	spec := benchWideSpec(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := New(Config{})
		if res := svc.solveOne(context.Background(), spec); res.Error != "" {
			b.Fatal(res.Error)
		}
	}
}

// BenchmarkCachedPermutedSolve measures the cross-request solution-cache
// path end to end: each iteration requests a freshly relabeled variant of
// the warm instance, so the service canonicalizes the permuted platform,
// hits the solution cache, and translates the stored mapping into the
// request's labeling — no solver run. The per-op time over
// BenchmarkColdM80Solve is the cache's amortization factor.
func BenchmarkCachedPermutedSolve(b *testing.B) {
	spec := benchWideSpec(b)
	svc := New(Config{})
	if res := svc.solveOne(context.Background(), spec); res.Error != "" {
		b.Fatal(res.Error)
	}
	// Pre-build the relabeled request variants: the benchmark measures the
	// serve path (canonicalize, cache hit, translate), not the client's
	// instance construction.
	rng := rand.New(rand.NewSource(7))
	m := spec.Platform.NumProcs()
	variants := make([]SolveSpec, 8)
	for i := range variants {
		variants[i] = spec
		variants[i].Platform = spec.Platform.Permute(rng.Perm(m))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := svc.solveOne(context.Background(), variants[i%len(variants)])
		if res.Error != "" {
			b.Fatal(res.Error)
		}
		if !res.Cached {
			b.Fatal("permuted request missed the solution cache")
		}
	}
}

// BenchmarkDecodeSolveSpec measures the serve path's body decode — the
// one json.Unmarshal of a solve request into SolveSpec that admission
// runs — on fully heterogeneous instances, whose O(m²) bandwidth matrix
// dominates the body. MB/s is over the body bytes.
func BenchmarkDecodeSolveSpec(b *testing.B) {
	for _, m := range []int{16, 80, 128} {
		rng := rand.New(rand.NewSource(int64(m)))
		body, err := json.Marshal(SolveSpec{
			Pipeline:   pipeline.Random(rng, 20, 1, 100, 1, 10),
			Platform:   platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.01, 0.2, 1, 10),
			Objective:  "minFailureProb",
			MaxLatency: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var spec SolveSpec
				if err := json.Unmarshal(body, &spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
