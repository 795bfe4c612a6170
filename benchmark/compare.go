package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// compareFiles implements -compare: the files are result files written by
// -out, grouped by directory, base directory first. For every workload and
// end-to-end metric it prints each side's quartiles, the share of run
// pairs the change wins, and a verdict under the benchmark's bounds.
func compareFiles(files []string, w io.Writer) error {
	var dirs []string
	sides := map[string]map[string]map[string][]float64{} // dir → workload → metric → values in file order
	for _, f := range files {
		dir := filepath.Dir(f)
		if sides[dir] == nil {
			dirs = append(dirs, dir)
			sides[dir] = map[string]map[string][]float64{}
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var doc struct {
			Reports []report `json:"reports"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for _, rep := range doc.Reports {
			byMetric := sides[dir][rep.Workload]
			if byMetric == nil {
				byMetric = map[string][]float64{}
				sides[dir][rep.Workload] = byMetric
			}
			for name, v := range rep.Metrics {
				byMetric[name] = append(byMetric[name], v.Value)
			}
		}
	}
	if len(dirs) != 2 {
		return fmt.Errorf("-compare needs result files from exactly two directories, got %d", len(dirs))
	}
	base, change := sides[dirs[0]], sides[dirs[1]]
	fmt.Fprintf(w, "base %s, change %s; quartiles q1/median/q3, verdict by the bounds in BENCHMARK.json\n", dirs[0], dirs[1])
	fmt.Fprintf(w, "%-17s %-17s %-32s %-32s %5s  %s\n", "workload", "metric", "base", "change", "wins", "verdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			b, c := base[wl.name][spec.Name], change[wl.name][spec.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, wins := verdict(spec, b, c)
			fmt.Fprintf(w, "%-17s %-17s %-32s %-32s %4.0f%%  %s\n", wl.name, spec.Name, fmtQuartiles(b), fmtQuartiles(c), 100*wins, v)
		}
	}
	return nil
}

func fmtQuartiles(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}

// verdict applies the claim rule to one metric: regressed when the
// change's median is worse than the base's by more than the bound;
// unresolved when the base's own quartile spread exceeds the bound (unless
// every change run beats every base run); improved when the change wins at
// least 90% of the run pairs and its median moved by more than the base's
// quartile spread; unchanged otherwise. It also returns the share of pairs
// (base run i, change run i) the change wins, ties counting for neither.
func verdict(spec metricSpec, base, change []float64) (string, float64) {
	better := func(a, b float64) bool { // a reads better than b
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			wins++
		}
	}
	winShare := float64(wins) / float64(pairs)

	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	q1, mb, q3 := quartiles(base)
	_, mc, _ := quartiles(change)
	spread := q3 - q1
	worse := mc - mb
	if spec.Better == "higher" {
		worse = -worse
	}
	switch {
	case allBetter:
		return "improved", winShare
	case spread > spec.Bound*math.Abs(mb):
		return "unresolved", winShare
	case worse > spec.Bound*math.Abs(mb):
		return "regressed", winShare
	case winShare >= 0.9 && -worse > spread:
		return "improved", winShare
	}
	return "unchanged", winShare
}
