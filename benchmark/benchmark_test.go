package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro"
	"repro/internal/mapping"
	"repro/serve"
)

// declared reads BENCHMARK.json at the repository root.
func declared(t *testing.T) (e2e, layers []metricSpec) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Fatalf("BENCHMARK.json workloads %v, program has %q at %d", names, w.name, i)
		}
	}
	return doc.EndToEnd, doc.PerLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprogram:\n%v", e2e, endToEnd)
	}
	if !slices.Equal(layers, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprogram:\n%v", layers, perLayer)
	}
	for _, s := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(s.Name) || len(s.Name) > 64 {
			t.Errorf("metric name %q", s.Name)
		}
	}
}

// resultLine runs the benchmark and decodes the last line of its output.
func resultLine(t *testing.T, args ...string) map[string]value {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("run %v exited %d:\n%s%s", args, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run %v: correct %t, attempted %d, failed %d", args, res.Correct, res.Attempted, res.Failed)
	}
	return res.Metrics
}

func checkNames(t *testing.T, got map[string]value, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics, want %d", len(got), len(want))
	}
	for _, s := range want {
		if v, ok := got[s.Name]; !ok || v.Unit != s.Unit {
			t.Errorf("metric %s: got %+v (present %t), want unit %s", s.Name, v, ok, s.Unit)
		}
	}
}

func TestEveryWorkloadReportsTheDeclaredMetrics(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		t.Run(w.name+"/e2e", func(t *testing.T) {
			t.Parallel()
			checkNames(t, resultLine(t, "-workload", w.name, "-seed", "1", "-requests", "20"), e2e)
		})
		t.Run(w.name+"/trace", func(t *testing.T) {
			t.Parallel()
			checkNames(t, resultLine(t, "-workload", w.name, "-seed", "1", "-requests", "2", "-trace", "1"), layers)
		})
	}
}

func TestRequestsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.traffic(1), w.traffic(1), w.traffic(2)
		for i := 0; i < 5; i++ {
			ra, rb, rc := a.at(1, i), b.at(1, i), c.at(2, i)
			if !bytes.Equal(ra.body(), rb.body()) {
				t.Errorf("%s request %d differs between two draws of seed 1", w.name, i)
			}
			if bytes.Equal(ra.body(), rc.body()) {
				t.Errorf("%s request %d is the same for seeds 1 and 2", w.name, i)
			}
		}
	}
}

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	r := exactSmall(1, 0)
	single := mapping.NewSingleInterval(r.pipe.NumStages(), []int{r.plat.FastestProc()})
	met, err := mapping.Evaluate(r.pipe, r.plat, single)
	if err != nil {
		t.Fatal(err)
	}
	good := serve.SolveResult{Mapping: single, Latency: met.Latency, FailureProb: met.FailureProb, Certainty: "heuristic"}
	if _, err := r.checkSolve(good); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	tampered := good
	tampered.Latency *= 1.001
	if _, err := r.checkSolve(tampered); err == nil {
		t.Error("tampered latency accepted")
	}
	tight := r
	tight.bound = met.Latency / 2
	if _, err := tight.checkSolve(good); err == nil || !strings.Contains(err.Error(), "exceeds the bound") {
		t.Errorf("violated bound: got %v", err)
	}

	s := remapStream(1, 0)
	recs, err := newLadder(false).stream(0, s.body())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.checkStream(recs); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	// Put the processor the first event crashed back into the first
	// repair's mapping, with metrics that match, so only the down check
	// can object.
	ev := recs[0]
	m := &mapping.Mapping{Intervals: ev.Mapping.Intervals, Alloc: slices.Clone(ev.Mapping.Alloc)}
	m.Alloc[0] = append(slices.Clone(m.Alloc[0]), s.schedule[0].Proc)
	if met, err = mapping.Evaluate(s.pipe, s.plat, m); err != nil {
		t.Fatal(err)
	}
	ev.Mapping, ev.Latency, ev.FailureProb = m, met.Latency, met.FailureProb
	ev.Violation = &repro.RemapViolation{}
	bad := append([]serve.RemapEvent{ev}, recs[1:]...)
	if _, err := s.checkStream(bad); err == nil || !strings.Contains(err.Error(), "down processor") {
		t.Errorf("record assigning a down processor: got %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.02, 9.98, 10.01, 9.99}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{scale(0.8), "improved"},
		{scale(1.3), "regressed"},
		{scale(1.001), "unchanged"},
	} {
		if got, _ := verdict(lat, base, tc.change); got != tc.want {
			t.Errorf("change %v: %s, want %s", tc.change[:2], got, tc.want)
		}
	}
	noisy := []float64{5, 15, 7, 13, 9, 11, 6, 14, 8, 12}
	if got, _ := verdict(lat, noisy, scale(1.05)); got != "unresolved" {
		t.Errorf("noisy base: %s, want unresolved", got)
	}
}
