package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sort"
	"testing"

	"repro"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// benchWideInstance builds the wide constrained instance the solution
// cache is designed to amortize: 60 stages on 80 fully heterogeneous
// processors, minFailureProb under a binding latency bound, which routes
// to the greedy heuristic (milliseconds per cold solve).
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

// BenchmarkRelabeledHitHandler is one relabeled-repeat request through
// the handler: a freshly relabeled variant of the warm m = 80 instance is
// POSTed to /v1/solve as JSON, so the body read, the one-pass decode,
// canonicalization, the solution-cache hit, translation and the JSON
// encode all count. Its ~150 KB body is O(m²): the Fully Heterogeneous
// bandwidth matrix.
func BenchmarkRelabeledHitHandler(b *testing.B) {
	spec := benchWideSpec(b)
	svc := New(Config{})
	if res := svc.solveOne(context.Background(), spec); res.Error != "" {
		b.Fatal(res.Error)
	}
	rng := rand.New(rand.NewSource(7))
	m := spec.Platform.NumProcs()
	bodies := make([][]byte, 8)
	for i := range bodies {
		variant := spec
		variant.Platform = spec.Platform.Permute(rng.Perm(m))
		body, err := json.Marshal(variant)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	solve := func(body []byte) {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if out := rec.Body.Bytes(); rec.Code != http.StatusOK || !bytes.Contains(out, []byte(`"cached":true`)) {
			b.Fatalf("relabeled request answered %d: %.300s", rec.Code, out)
		}
	}
	solve(bodies[0]) // registers the telemetry series and fills the body pool
	b.SetBytes(int64(len(bodies[0])))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		solve(bodies[i%len(bodies)])
		i++
	}
}

// BenchmarkDecodeSolveSpec measures the serve path's body decode — the
// one-pass decodeSolveSpec that admission runs on a solve request — on
// fully heterogeneous instances, whose O(m²) bandwidth matrix dominates
// the body. MB/s is over the body bytes.
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
				if err := decodeSolveSpec(body, &spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemapStreamM80 runs one /v1/remap/stream request through the
// handler per iteration: the m = 80 full-het instance of the root
// package's BenchmarkRemapCampaign, deployed as 4 intervals × 3 replicas
// on its 12 fastest processors, minimizing FP under 1.5× that mapping's
// latency, while the 16 fastest processors crash one by one and then
// recover in the same order (32 events). Decode, session build, the
// campaign and the NDJSON encode all count.
func BenchmarkRemapStreamM80(b *testing.B) {
	const n, m = 12, 80
	rng := rand.New(rand.NewSource(100*n + m))
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
	fastest := pl.ProcsBySpeedDesc()
	start := &repro.Mapping{}
	for j := 0; j < 4; j++ {
		start.Intervals = append(start.Intervals, repro.Interval{First: j * n / 4, Last: (j+1)*n/4 - 1})
		procs := append([]int(nil), fastest[3*j:3*j+3]...)
		sort.Ints(procs)
		start.Alloc = append(start.Alloc, procs)
	}
	met, err := repro.Evaluate(p, pl, start)
	if err != nil {
		b.Fatal(err)
	}
	var schedule repro.FaultSchedule
	for k, u := range fastest[:16] {
		schedule = append(schedule, repro.FaultEvent{Time: float64(k + 1), Proc: u, Kind: repro.FaultCrash})
	}
	for k, u := range fastest[:16] {
		schedule = append(schedule, repro.FaultEvent{Time: float64(17 + k), Proc: u, Kind: repro.FaultRecover})
	}
	body, err := json.Marshal(RemapSpec{
		Pipeline: p, Platform: pl, Objective: "minFailureProb", MaxLatency: 1.5 * met.Latency,
		Start: start, Events: schedule.Renumber(),
	})
	if err != nil {
		b.Fatal(err)
	}
	svc := New(Config{})
	stream := func() {
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/remap/stream", bytes.NewReader(body)))
		out := rec.Body.Bytes()
		if rec.Code != http.StatusOK || bytes.Contains(out, []byte(`"error"`)) || !bytes.Contains(out, []byte(`"done":true`)) {
			b.Fatalf("stream answered %d: %.300s", rec.Code, out)
		}
	}
	// One untimed stream first registers the service's telemetry series
	// and fills the sync.Pools that encoding/json and the simulator draw
	// from. Collection stays off while the streams run: a cycle landing
	// inside one would empty those pools and add a few allocs/op at
	// random, which the CI guard's no-growth check on allocs/op cannot
	// tell from a regression. ns/op therefore leaves out the collector's
	// share of the stream's ~830 KB of garbage.
	stream()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b.ReportAllocs()
	for b.Loop() {
		stream()
	}
}
