// Streaming: the three-criteria extension announced in the paper's
// future work (§5). A video-rate JPEG pipeline must sustain a target
// throughput; reliability replication raises latency AND the input cycle
// (the paper's first replication type), while round-robin data
// parallelism lowers the period at the cost of more failure modes (the
// second type). This example walks the trade-off on a small platform and
// validates the analytic period against the simulator's steady state.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the walkthrough, writing the report to w. Split from main
// so the example is smoke-testable: the test drives it end to end against
// a buffer and checks the headline numbers.
func run(w io.Writer) error {
	// A compact 3-stage pipeline (preprocess / transform / encode).
	pipe, err := repro.NewPipeline([]float64{20, 120, 30}, []float64{8, 6, 4, 2})
	if err != nil {
		return err
	}
	plat, err := repro.NewCommHomogeneousPlatform(
		[]float64{10, 10, 10, 10, 10, 2},
		[]float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.02},
		4,
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "application:", pipe)
	fmt.Fprintln(w, "platform:   ", plat)

	sess, err := repro.NewSession(pipe, plat)
	if err != nil {
		return err
	}
	ctx := context.Background()

	// Reliability-only mapping from the bi-criteria solver.
	res, err := sess.Solve(ctx, repro.SolveRequest{
		Objective:  repro.MinimizeFailureProb,
		MaxLatency: 40,
	})
	if err != nil {
		return err
	}
	period, err := repro.Period(pipe, plat, res.Mapping)
	if err != nil {
		return err
	}
	sustainable, _ := repro.PeriodSustainable(pipe, plat, res.Mapping)
	noOverlap, _ := repro.PeriodNoOverlap(pipe, plat, res.Mapping)
	fmt.Fprintf(w, "\nreliability mapping: %s\n", res.Mapping)
	fmt.Fprintf(w, "latency %.4g, FP %.4g\n", res.Metrics.Latency, res.Metrics.FailureProb)
	fmt.Fprintf(w, "period: output %.4g, sustainable %.4g, no-overlap %.4g\n", period, sustainable, noOverlap)

	// Validate the analytic period on the simulator: stream 64 data sets
	// and measure the inter-completion gap.
	const d = 64
	simRes, err := repro.Simulate(pipe, plat, res.Mapping, repro.SimConfig{Mode: repro.WorstCase, NumDataSets: d})
	if err != nil {
		return err
	}
	gap := simRes.DatasetLatencies[d-1] - simRes.DatasetLatencies[d-2]
	fmt.Fprintf(w, "simulated steady-state gap: %.4g (analytic %.4g)\n", gap, period)

	// Round-robin: split bottleneck groups while FP stays under 0.5.
	rr, err := sess.GreedyRoundRobin(ctx, res.Mapping, math.Inf(1), 0.5)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nround-robin mapping: %s\n", rr.Mapping)
	fmt.Fprintf(w, "period %.4g (was %.4g), FP %.4g (was %.4g), latency %.4g\n",
		rr.Metrics.Period, period, rr.Metrics.FailureProb, res.Metrics.FailureProb, rr.Metrics.Latency)

	// The exhaustive three-criteria front on this small instance.
	front, err := sess.TriPareto(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nthree-criteria Pareto front (%d points, first 12 by latency):\n", front.Len())
	fmt.Fprintf(w, "%-10s %-12s %-10s %s\n", "latency", "failureProb", "period", "mapping")
	for i, e := range front.Entries() {
		if i == 12 {
			fmt.Fprintln(w, "  ...")
			break
		}
		fmt.Fprintf(w, "%-10.5g %-12.5g %-10.5g %s\n",
			e.Metrics.Latency, e.Metrics.FailureProb, e.Metrics.Period, e.Mapping)
	}
	return nil
}
