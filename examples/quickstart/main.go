// Quickstart: solve the paper's Figure 5 instance through the session
// API.
//
// A two-stage pipeline (a cheap stage followed by an expensive one) must
// run on one slow-but-reliable processor and ten fast-but-unreliable ones.
// Under a latency budget of 22 time units, the best single-interval
// mapping is stuck at a 64% failure probability; the optimal mapping puts
// the cheap stage alone on the reliable processor and replicates the
// expensive stage on all ten fast processors, cutting the failure
// probability below 20% at exactly the latency budget.
//
// The program creates one Session for the instance and issues every query
// through it — the solve, the latency-optimum comparison, a simulator
// cross-check and a Monte-Carlo campaign — so the instance is validated
// and the evaluator precomputed exactly once. It also demonstrates the
// deadline behavior: a context cancelled before the solve still returns a
// best-effort mapping, graded Partial instead of optimal.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// The application: w = {1, 100}, δ = {10, 1, 0}.
	pipe, err := repro.NewPipeline([]float64{1, 100}, []float64{10, 1, 0})
	if err != nil {
		log.Fatal(err)
	}

	// The platform: P1 slow and reliable, P2..P11 fast and flaky;
	// every link has bandwidth 1 (Communication Homogeneous).
	speeds := []float64{1}
	fps := []float64{0.1}
	for i := 0; i < 10; i++ {
		speeds = append(speeds, 100)
		fps = append(fps, 0.8)
	}
	plat, err := repro.NewCommHomogeneousPlatform(speeds, fps, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("application:", pipe)
	fmt.Println("platform:   ", plat)

	// One session per instance: validation and the evaluator
	// precomputation happen here, once, instead of on every call.
	sess, err := repro.NewSession(pipe, plat, repro.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Minimize the failure probability under the latency budget.
	res, err := sess.Solve(ctx, repro.SolveRequest{
		Objective:  repro.MinimizeFailureProb,
		MaxLatency: 22,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbest mapping:", res.Mapping)
	fmt.Printf("latency:      %.4g (budget 22)\n", res.Metrics.Latency)
	fmt.Printf("failure prob: %.4g\n", res.Metrics.FailureProb)
	fmt.Printf("method:       %s (%s)\n", res.Method, res.Certainty)

	// Compare with the best the fastest processor alone can do — the
	// session reuses the cached evaluator state for this second solve.
	fastest, err := sess.Solve(ctx, repro.SolveRequest{Objective: repro.MinimizeLatency})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlatency optimum (no reliability constraint): %.4g with FP %.4g\n",
		fastest.Metrics.Latency, fastest.Metrics.FailureProb)

	// Cross-check the analytic metrics on the simulator substrate.
	simRes, err := repro.Simulate(pipe, plat, res.Mapping, repro.SimConfig{Mode: repro.WorstCase})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated worst-case latency: %.4g (matches the analytic formula)\n", simRes.MaxLatency)

	// Validate the failure probability empirically: a parallel
	// Monte-Carlo campaign with the session's deterministic seed.
	mc, err := sess.MonteCarloCampaign(ctx, res.Mapping, repro.SimConfig{}, 20_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Monte-Carlo FP over %d trials: %.4g (analytic %.4g)\n",
		mc.Trials, mc.FailureRate, res.Metrics.FailureProb)

	// Deadline-aware solving: a context that is already cancelled cannot
	// block — the session answers with its best-so-far mapping, graded
	// Partial instead of optimal. In cmd/pipeserve the same mechanism
	// backs the per-request "deadlineMillis" field.
	cancelled, cancel := context.WithTimeout(ctx, time.Nanosecond)
	defer cancel()
	partial, err := sess.Solve(cancelled, repro.SolveRequest{
		Objective:  repro.MinimizeFailureProb,
		MaxLatency: 22,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunder an expired deadline: %s mapping %v (FP %.4g)\n",
		partial.Certainty, partial.Mapping, partial.Metrics.FailureProb)
}
