// Command paperbench regenerates every experiment table of the
// reproduction (paperbench -list names them): the paper's worked
// examples, executable validations of each theorem, and the extension
// experiments.
//
// Usage:
//
//	paperbench             # run every experiment
//	paperbench -run E2,E5  # run selected experiments
//	paperbench -list       # list experiment ids and titles
//	paperbench -timeout 30s # stop starting experiments past the budget
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

var experiments = []struct {
	id  string
	fn  func() *bench.Table
	ttl string
}{
	{"E1", bench.E1Fig34, "Figures 3-4 example"},
	{"E2", bench.E2Fig5, "Figure 5 example"},
	{"E3", bench.E3MinFP, "Theorem 1 validation"},
	{"E4", bench.E4MinLatencyCommHom, "Theorem 2 validation"},
	{"E5", bench.E5TSPReduction, "Theorem 3 reduction"},
	{"E6", bench.E6GeneralShortestPath, "Theorem 4 validation"},
	{"E7", bench.E7FullyHomBiCriteria, "Theorem 5 (Algorithms 1-2)"},
	{"E8", bench.E8CommHomBiCriteria, "Theorem 6 (Algorithms 3-4)"},
	{"E9", bench.E9PartitionReduction, "Theorem 7 reduction"},
	{"E10", bench.E10HeuristicsOpenCase, "open-case heuristics"},
	{"E11", bench.E11SimulatorValidation, "simulator validation"},
	{"E12", bench.E12JPEG, "JPEG case study"},
	{"E13", bench.E13Scalability, "scalability"},
	{"E14", bench.E14ReplicationAblation, "replication ablation"},
	{"E15", bench.E15TriCriteria, "tri-criteria (future work §5)"},
	{"E16", bench.E16PeriodValidation, "period model validation"},
	{"E17", bench.E17IntervalBounds, "open problem: interval latency bounds"},
}

func main() {
	runFlag := flag.String("run", "all", "comma-separated experiment ids (e.g. E1,E5) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	timeout := flag.Duration("timeout", 0, "wall-clock budget; experiments not started before it expires are skipped (0 = none)")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.ttl)
		}
		return
	}
	want := map[string]bool{}
	all := *runFlag == "all"
	if !all {
		for _, id := range strings.Split(*runFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ran := 0
	var skipped []string
	for _, e := range experiments {
		if !all && !want[e.id] {
			continue
		}
		if ctx.Err() != nil {
			skipped = append(skipped, e.id)
			continue
		}
		fmt.Println(e.fn().String())
		ran++
	}
	if len(skipped) > 0 {
		fmt.Fprintf(os.Stderr, "paperbench: wall-clock budget %s hit; skipped %s\n",
			*timeout, strings.Join(skipped, ","))
	}
	if ran == 0 && len(skipped) == 0 {
		fmt.Fprintf(os.Stderr, "paperbench: no experiment matches %q (use -list)\n", *runFlag)
		os.Exit(1)
	}
}
