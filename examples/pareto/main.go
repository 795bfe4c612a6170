// Pareto exploration on the open problem class (Communication Homogeneous
// with heterogeneous failure probabilities, paper §4.4): compute the full
// latency/reliability trade-off curve of a small instance exactly, print
// it as a table and a rough ASCII curve, and show where the paper's
// single-interval lemma stops applying.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	// Three-stage pipeline on a 6-processor mixed platform.
	pipe, err := repro.NewPipeline(
		[]float64{4, 30, 8},
		[]float64{6, 2, 3, 1},
	)
	if err != nil {
		log.Fatal(err)
	}
	plat, err := repro.NewCommHomogeneousPlatform(
		[]float64{1, 2, 8, 8, 10, 12},
		[]float64{0.02, 0.05, 0.30, 0.30, 0.40, 0.45},
		2,
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("application:", pipe)
	fmt.Println("platform:   ", plat)

	sess, err := repro.NewSession(pipe, plat)
	if err != nil {
		log.Fatal(err)
	}
	front, certainty, err := sess.Pareto(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPareto front (%s, %d points):\n", certainty, front.Len())
	fmt.Printf("%-12s %-12s %-10s %s\n", "latency", "failureProb", "intervals", "mapping")
	for _, e := range front.Entries() {
		fmt.Printf("%-12.5g %-12.5g %-10d %s\n",
			e.Metrics.Latency, e.Metrics.FailureProb, e.Mapping.NumIntervals(), e.Mapping)
	}

	// How many Pareto-optimal mappings need more than one interval? On
	// FullyHom/FailureHom platforms Lemma 1 says none would; here the
	// heterogeneous failure probabilities make splits worthwhile.
	multi := 0
	for _, e := range front.Entries() {
		if e.Mapping.NumIntervals() > 1 {
			multi++
		}
	}
	fmt.Printf("\n%d of %d Pareto-optimal mappings use several intervals\n", multi, front.Len())

	// ASCII trade-off curve: latency left to right, reliability as bars.
	fmt.Println("\nfailure probability by latency (each column one Pareto point):")
	es := front.Entries()
	const height = 12
	for row := 0; row < height; row++ {
		level := 1 - float64(row)/height
		var b strings.Builder
		for _, e := range es {
			if e.Metrics.FailureProb >= level-1e-12 {
				b.WriteString("█ ")
			} else {
				b.WriteString("  ")
			}
		}
		fmt.Printf("%4.2f |%s\n", level, b.String())
	}
	fmt.Printf("      %s\n", strings.Repeat("--", len(es)))
	lo, hi := es[0].Metrics.Latency, es[len(es)-1].Metrics.Latency
	fmt.Printf("      latency %.3g .. %.3g\n", lo, hi)

	// Hypervolume quality indicator against a loose reference point.
	ref := hi * 1.1
	fmt.Printf("\nhypervolume vs reference (%.3g, 1.0): %.4g\n", ref, front.Hypervolume(ref, 1))
}
