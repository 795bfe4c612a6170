// JPEG encoder case study (the real-world workflow of the paper's
// companion report [3]): map the 7-stage encoder pipeline onto a mixed
// cluster of slow-reliable and fast-unreliable workstations, then sweep
// the latency budget to expose the latency/reliability trade-off.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A 640×480 frame through the standard encoder stages: color
	// conversion, subsampling, block split, DCT, quantization,
	// zigzag+RLE, Huffman.
	pipe := repro.JPEGPipeline(640, 480)
	fmt.Println("JPEG pipeline:", pipe)

	// The cluster: 2 old reliable workstations + 6 fast flaky desktops,
	// 100 Mbit-class network (5e5 data units per time unit).
	speeds := []float64{2e6, 2e6, 12e6, 12e6, 12e6, 12e6, 12e6, 12e6}
	fps := []float64{0.02, 0.02, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25}
	plat, err := repro.NewCommHomogeneousPlatform(speeds, fps, 5e5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster:", plat)

	// One session answers every query below; its seed drives the
	// Monte-Carlo check at the end.
	sess, err := repro.NewSession(pipe, plat, repro.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Latency floor: the whole pipeline on the fastest desktop.
	floor, err := sess.Solve(ctx, repro.SolveRequest{Objective: repro.MinimizeLatency})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlatency floor (Theorem 2): %.4g with FP %.4g\n",
		floor.Metrics.Latency, floor.Metrics.FailureProb)

	fmt.Println("\nbudget(xfloor)  intervals  procs  latency      FP          method")
	for _, factor := range []float64{1.0, 1.3, 1.8, 2.5, 4.0} {
		budget := floor.Metrics.Latency * factor
		res, err := sess.Solve(ctx, repro.SolveRequest{
			Objective:  repro.MinimizeFailureProb,
			MaxLatency: budget,
		})
		if err != nil {
			fmt.Printf("%-15.1f infeasible\n", factor)
			continue
		}
		fmt.Printf("%-15.1f %-10d %-6d %-12.5g %-11.4g %s\n",
			factor, res.Mapping.NumIntervals(), len(res.Mapping.UsedProcs()),
			res.Metrics.Latency, res.Metrics.FailureProb, res.Certainty)
	}

	// Validate the most reliable mapping empirically.
	res, err := sess.Solve(ctx, repro.SolveRequest{
		Objective:  repro.MinimizeFailureProb,
		MaxLatency: floor.Metrics.Latency * 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	est, err := sess.EstimateFailureProb(ctx, res.Mapping, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nMonte-Carlo check on the 4x mapping: sampled FP %.4g ± %.2g (analytic %.4g)\n",
		est.FP, est.StdErr, res.Metrics.FailureProb)
}
