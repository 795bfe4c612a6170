// Command benchmark is the end-to-end benchmark of the pipeserve service.
//
// It starts a real serve.New(serve.Config{}) on a loopback listener,
// drives it with a closed loop of min(2, nproc) clients sending seeded
// requests of one of four workloads, checks every answer, and prints the
// end-to-end metrics. With -trace 1 it instead replays the first requests
// of the workload in-process through each layer's public functions and
// prints per-layer metrics. See README.md for the workloads, metrics and
// the -compare mode.
//
//	go run . -workload wide-cold -seed 1 -seconds 10
//	go run . -workload wide-cold -seed 1 -trace 1 -spans spans.json
//	go run . -compare base/*.json change/*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any answer was wrong.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the run's flags.
type options struct {
	seed     int64
	seconds  float64
	requests int
	spans    string
	clients  int
}

// report is one workload's outcome; the first four fields form the result
// line.
type report struct {
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]value   `json:"metrics"`
	Workload   string             `json:"workload"`
	Info       map[string]float64 `json:"info"`
	Violations []string           `json:"violations,omitempty"`
}

// setupRepeats is how many times a timed end-to-end run sets the service
// up; setup_s is the median. A -requests run is a quick check and sets up
// once.
const setupRepeats = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run, one of "+strings.Join(names, ", ")+" (default: all)")
	seed := fs.Int64("seed", 1, "seed of the generated requests")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	requests := fs.Int("requests", 0, "measure exactly this many requests instead of -seconds, after a single set-up")
	trace := fs.Int("trace", 0, "1: print per-layer metrics from a traced replay instead of end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	out := fs.String("out", "", "also write the reports, with the machine they ran on, to this JSON file")
	compare := fs.Bool("compare", false, "compare the result files of two directories given as arguments (base first)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := compareFiles(fs.Args(), stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: usage: -workload W -seed N -seconds S -trace 0|1, or -compare FILES")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []*workload{w}
	}
	o := options{seed: *seed, seconds: *seconds, requests: *requests, spans: *spans, clients: min(2, runtime.NumCPU())}

	var reports []report
	for _, w := range selected {
		var rep report
		var err error
		if *trace == 1 {
			rep, err = traceRun(w, o)
		} else {
			rep, err = measure(w, o)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, rep, o)
		reports = append(reports, rep)
	}
	if *out != "" {
		if err := writeReports(*out, o, *trace == 1, reports); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, rep := range reports {
		if !rep.Correct {
			return 1
		}
	}
	return 0
}

// measure runs one workload end to end with tracing off.
func measure(w *workload, o options) (report, error) {
	genStart := time.Now()
	tr := w.traffic(o.seed)
	genSeconds := time.Since(genStart).Seconds()

	warm, ta := &tally{w: w}, &tally{w: w}
	var srv *server
	var setups []float64
	repeats := setupRepeats
	if o.requests > 0 {
		repeats = 1
	}
	for k := 0; k < repeats; k++ {
		if srv != nil {
			srv.close()
		}
		s, d, reqs, outs := setup(w, tr, o.clients)
		srv = s
		setups = append(setups, d.Seconds())
		for _, out := range outs {
			warm.add(reqs[out.idx], out)
		}
	}
	defer srv.close()

	at := func(i int) (string, []byte) {
		r := tr.at(o.seed, i)
		return r.path, r.body()
	}
	runtime.GC()
	before := readRuntime()
	outs, wall := drive(srv, o.clients, o.requests, time.Now().Add(time.Duration(o.seconds*float64(time.Second))), at)
	after := readRuntime()
	stats, err := srv.stats()
	if err != nil {
		return report{}, fmt.Errorf("reading /v1/stats: %w", err)
	}
	if len(outs) == 0 {
		return report{}, fmt.Errorf("no request completed")
	}

	// Check every answer against its regenerated request. Generating and
	// encoding every genSample-th request again measures what generation
	// allocated during the timed phase, which alloc_kb_per_req excludes.
	const genSample = 10
	var genBytes, sampled float64
	var latencies, events []float64
	for k, out := range outs {
		if k%genSample == 0 {
			b := allocBytes()
			at(out.idx)
			genBytes += allocBytes() - b
			sampled++
		}
		r := tr.at(o.seed, out.idx)
		ta.add(r, out)
		latencies = append(latencies, ms(out.latency))
		if r.path == streamPath {
			for _, g := range out.gaps {
				events = append(events, ms(g))
			}
		} else {
			events = append(events, ms(out.latency))
		}
	}
	n := float64(len(outs))
	rps := throughput(outs, wall)
	outs = nil
	heapLive := heapLiveBytes()

	vals := map[string]float64{
		"latency_p50_ms":   quantile(latencies, 0.5),
		"latency_p99_ms":   quantile(latencies, 0.99),
		"throughput_rps":   rps,
		"event_p99_ms":     quantile(events, 0.99),
		"setup_s":          quantile(setups, 0.5),
		"alloc_kb_per_req": (after.allocBytes - before.allocBytes - genBytes*n/sampled) / n / 1024,
		"heap_live_mb":     heapLive / (1 << 20),
	}
	info := map[string]float64{
		"gen_s":              genSeconds,
		"wall_s":             wall.Seconds(),
		"events":             float64(len(events)),
		"slo_limit_ms":       w.sloMillis,
		"slo_miss_rate":      ratio(float64(ta.sloMisses), float64(ta.sloBase)),
		"error_rate":         ratio(float64(ta.failed), float64(ta.attempted)),
		"quality_log10":      mean(ta.quality),
		"optimal_share":      ratio(float64(ta.optimal), float64(ta.attempted)),
		"exact_resolved":     float64(ta.resolved),
		"gc_cpu_share":       ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU),
		"gc_cycles_per_kreq": ratio(after.gcCycles-before.gcCycles, n/1000),
	}
	for k, v := range statsInfo(stats) {
		info[k] = v
	}
	violations := append(warm.violations, ta.violations...)
	return report{
		Correct:    len(violations) == 0,
		Attempted:  ta.attempted,
		Failed:     ta.failed,
		Metrics:    metricSet(endToEnd, vals),
		Workload:   w.name,
		Info:       info,
		Violations: violations,
	}, nil
}

// statsInfo condenses /v1/stats into the serve tier's cache ratios and
// counters; they cover the server's whole life, warm-up included.
func statsInfo(st serve.Stats) map[string]float64 {
	return map[string]float64{
		"session_hit_ratio":  ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)),
		"solution_hit_ratio": ratio(float64(st.SolutionHits), float64(st.SolutionHits+st.SolutionMisses)),
		"solution_evicted":   float64(st.SolutionEvicted),
		"coalesced":          float64(st.Coalesced),
		"shed":               float64(st.Shed),
		"solves":             float64(st.Solves),
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printReport(w io.Writer, rep report, o options) {
	fmt.Fprintf(w, "%s: seed %d, %d clients, GOMAXPROCS %d: %d attempted, %d succeeded, %d failed\n",
		rep.Workload, o.seed, o.clients, runtime.GOMAXPROCS(0), rep.Attempted, rep.Attempted-rep.Failed, rep.Failed)
	specs := endToEnd
	if _, ok := rep.Metrics[perLayer[0].Name]; ok {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", s.Name, rep.Metrics[s.Name].Value, s.Unit)
	}
	for _, k := range sortedKeys(rep.Info) {
		fmt.Fprintf(w, "  info %-23s %14.6g\n", k, rep.Info[k])
	}
	for _, v := range rep.Violations {
		fmt.Fprintln(w, "  VIOLATION", v)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		panic(err) // only finite numbers and strings
	}
	fmt.Fprintln(w, string(line))
}

// writeReports saves the reports with the machine they ran on, for
// -compare and the committed baselines.
func writeReports(path string, o options, traced bool, reports []report) error {
	doc := map[string]any{
		"seed":    o.seed,
		"seconds": o.seconds,
		"trace":   traced,
		"env": map[string]any{
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"clients":    o.clients,
			"go":         runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
			"cpu":        cpuModel(),
		},
		"reports": reports,
	}
	if o.requests > 0 {
		doc["requests"] = o.requests
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cpuModel reads the processor name on Linux ("" elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
