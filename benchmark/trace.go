package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/serve"
)

// span is one layer call of the traced replay.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 on a request's root span
	Layer  string `json:"layer"`
	Start  int64  `json:"startNs"` // since the trace began
	End    int64  `json:"endNs"`
	// OnPath is false on probes: calls of a layer the serve path skips
	// for this request (relabeled-repeat's session builds, remap-stream's
	// canonicalization and solve, the repair probe of a solve answer, the
	// heuristics run directly), timed on the same request so that every
	// layer reports on every workload. Probes run in a second pass, so
	// they neither slow nor warm the on-path calls, and they are not part
	// of the ladder sum the residual is taken against.
	OnPath bool   `json:"onPath"`
	Route  string `json:"route,omitempty"` // solve spans: the route that answered
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(req, parent int, layer string, onPath bool) int {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Layer: layer, OnPath: onPath})
	id := len(t.spans) - 1
	t.spans[id].Start = int64(time.Since(t.origin))
	return id
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.origin)) }

// add records a span that has already ended.
func (t *tracer) add(req, parent int, layer string, onPath bool, start, end time.Time) {
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Layer: layer, OnPath: onPath,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// ladder replays requests in-process through the layers' public functions,
// in the order the serve path calls them: decode → canonicalize → session
// build → solve → translate → encode (streams: decode → session build →
// reactive repairs, each encoded as it is emitted).
type ladder struct {
	tr  *tracer
	rec *repro.Recorder
	// probeRec takes the probes' telemetry, so they neither feed the
	// exact-engine counters nor the adaptive router's profiles.
	probeRec *repro.Recorder
	// cached makes the ladder keep the service's session and solution
	// caches itself (relabeled-repeat), keyed by canonical bytes.
	cached   bool
	sessions map[string]*repro.Session
	answers  map[string]serve.SolveResult
	// canonical is each traced solve's answer in canonical labels, the
	// start of its repair probe.
	canonical map[int]*repro.Mapping
	// changed and events count the repairs that re-mapped.
	changed, events int
	// procs is each traced request's processor count.
	procs map[int]int
}

func newLadder(cached bool) *ladder {
	return &ladder{
		tr:        &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)},
		rec:       repro.NewRecorder(),
		probeRec:  repro.NewRecorder(),
		cached:    cached,
		sessions:  map[string]*repro.Session{},
		answers:   map[string]serve.SolveResult{},
		canonical: map[int]*repro.Mapping{},
		procs:     map[int]int{},
	}
}

// requestCtx mirrors the service: the request's deadline, or its 30 s
// default.
func requestCtx(deadlineMillis int64) (context.Context, context.CancelFunc) {
	d := 30 * time.Second
	if deadlineMillis > 0 {
		d = time.Duration(deadlineMillis) * time.Millisecond
	}
	return context.WithTimeout(context.Background(), d)
}

func objectiveOf(name string) repro.Objective {
	if name == "minLatency" {
		return repro.MinimizeLatency
	}
	return repro.MinimizeFailureProb
}

// solve replays one /v1/solve request body as request i.
func (l *ladder) solve(i int, body []byte) (serve.SolveResult, error) {
	t := l.tr
	root := t.begin(i, -1, "request", true)
	defer t.end(root)

	var spec serve.SolveSpec
	id := t.begin(i, root, "decode", true)
	err := json.Unmarshal(body, &spec)
	t.end(id)
	if err != nil {
		return serve.SolveResult{}, err
	}

	id = t.begin(i, root, "canonicalize", true)
	cn, err := repro.CanonicalizeInstance(spec.Pipeline, spec.Platform)
	t.end(id)
	if err != nil {
		return serve.SolveResult{}, err
	}
	key := string(cn.Bytes)
	solKey := fmt.Sprintf("%s|%s|%g|%g|%d", key, spec.Objective, spec.MaxLatency, spec.MaxFailProb, spec.DeadlineMillis)

	var sess *repro.Session
	var res serve.SolveResult
	hit := false
	if l.cached {
		id = t.begin(i, root, "cache", true)
		res, hit = l.answers[solKey]
		sess = l.sessions[key]
		t.end(id)
	}
	if sess == nil {
		id = t.begin(i, root, "session", true)
		sess, err = repro.NewSession(cn.Pipeline(), cn.Platform(), repro.WithRecorder(l.rec))
		t.end(id)
		if err != nil {
			return serve.SolveResult{}, err
		}
		if l.cached {
			l.sessions[key] = sess
		}
	}
	if !hit {
		ctx, cancel := requestCtx(spec.DeadlineMillis)
		id = t.begin(i, root, "solve", true)
		out, err := sess.Solve(ctx, repro.SolveRequest{Objective: objectiveOf(spec.Objective), MaxLatency: spec.MaxLatency, MaxFailProb: spec.MaxFailProb})
		t.end(id)
		cancel()
		if err != nil {
			return serve.SolveResult{}, err
		}
		t.spans[id].Route = out.Route
		res = serve.SolveResult{
			Mapping: out.Mapping, Latency: out.Metrics.Latency, FailureProb: out.Metrics.FailureProb,
			Certainty: out.Certainty.String(), Method: out.Method, Route: out.Route,
			Partial: out.Certainty == repro.Partial,
		}
		if l.cached && !res.Partial {
			l.answers[solKey] = res
		}
	}
	l.canonical[i] = res.Mapping

	id = t.begin(i, root, "translate", true)
	res.Mapping = cn.ToOriginal(res.Mapping)
	t.end(id)

	id = t.begin(i, root, "encode", true)
	_, err = json.Marshal(res)
	t.end(id)
	return res, err
}

// stream replays one /v1/remap/stream request body as request i and
// returns the records it would send.
func (l *ladder) stream(i int, body []byte) ([]serve.RemapEvent, error) {
	t := l.tr
	root := t.begin(i, -1, "request", true)
	defer t.end(root)

	var spec serve.RemapSpec
	id := t.begin(i, root, "decode", true)
	err := json.Unmarshal(body, &spec)
	t.end(id)
	if err != nil {
		return nil, err
	}

	id = t.begin(i, root, "session", true)
	sess, err := repro.NewSession(spec.Pipeline, spec.Platform, repro.WithRecorder(l.rec))
	t.end(id)
	if err != nil {
		return nil, err
	}

	var recs []serve.RemapEvent
	encode := func(ev serve.RemapEvent) error {
		ev.Seq = len(recs)
		if _, err := json.Marshal(ev); err != nil {
			return err
		}
		recs = append(recs, ev)
		return nil
	}
	cfg := repro.RemapConfig{Objective: objectiveOf(spec.Objective), MaxLatency: spec.MaxLatency, MaxFailProb: spec.MaxFailProb}
	err = l.reactive(i, root, sess, spec.Start, spec.Events, cfg, true, func(rep repro.RemapResult) error {
		ev := rep.Event
		return encode(serve.RemapEvent{
			Event: &ev, Mapping: rep.Mapping, Latency: rep.Metrics.Latency, FailureProb: rep.Metrics.FailureProb,
			Certainty: rep.Certainty.String(), Method: rep.Method, Changed: rep.Changed,
			Violation: rep.Violation, Down: rep.Down, RepairMicros: rep.Elapsed.Microseconds(),
		})
	})
	if err != nil {
		return nil, err
	}
	id = t.begin(i, root, "encode", true)
	err = encode(serve.RemapEvent{Done: true, Events: len(recs)})
	t.end(id)
	return recs, err
}

// reactive replays a fault schedule through Session.RunReactive. Each
// repair span runs from the previous emit callback (or the call) to the
// next one; emit, when set, encodes each record inside its own span.
func (l *ladder) reactive(i, parent int, sess *repro.Session, start *repro.Mapping, schedule repro.FaultSchedule, cfg repro.RemapConfig, onPath bool, emit func(repro.RemapResult) error) error {
	t := l.tr
	id := t.begin(i, parent, "reactive", onPath)
	defer t.end(id)
	mark := time.Now()
	ctx, cancel := requestCtx(0)
	defer cancel()
	_, err := sess.RunReactive(ctx, start, schedule, cfg, func(rep repro.RemapResult) error {
		t.add(i, id, "repair", onPath, mark, time.Now())
		l.events++
		if rep.Changed {
			l.changed++
		}
		if emit != nil {
			eid := t.begin(i, id, "encode", onPath)
			err := emit(rep)
			t.end(eid)
			if err != nil {
				return err
			}
		}
		mark = time.Now()
		return nil
	})
	return err
}

// probe times, for traced request i, the layers the serve path does not
// call for it, under a root span of its own. What the probes start from
// (decoded spec, canonical form, session) is rebuilt untimed.
func (l *ladder) probe(i int, r request, body []byte) error {
	t := l.tr
	root := t.begin(i, -1, "probes", false)
	defer t.end(root)
	if r.path == streamPath {
		var spec serve.RemapSpec
		if err := json.Unmarshal(body, &spec); err != nil {
			return err
		}
		sess, err := repro.NewSession(spec.Pipeline, spec.Platform, repro.WithRecorder(l.probeRec))
		if err != nil {
			return err
		}
		// A stream stays raw-labeled and starts from the supplied mapping:
		// canonicalization, the cold solve (what the service runs for a
		// stream without a start mapping) and translation are probes.
		id := t.begin(i, root, "canonicalize", false)
		cn, err := repro.CanonicalizeInstance(spec.Pipeline, spec.Platform)
		t.end(id)
		if err != nil {
			return err
		}
		ctx, cancel := requestCtx(0)
		defer cancel()
		id = t.begin(i, root, "solve", false)
		out, err := sess.Solve(ctx, repro.SolveRequest{Objective: objectiveOf(spec.Objective), MaxLatency: spec.MaxLatency})
		t.end(id)
		if err != nil {
			return err
		}
		t.spans[id].Route = out.Route
		id = t.begin(i, root, "translate", false)
		cn.ToOriginal(spec.Start)
		t.end(id)
		l.heuristicsProbe(i, root, spec.Pipeline, spec.Platform, spec.MaxLatency)
		return nil
	}

	var spec serve.SolveSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return err
	}
	cn, err := repro.CanonicalizeInstance(spec.Pipeline, spec.Platform)
	if err != nil {
		return err
	}
	// relabeled-repeat's warm cache spares the session build; time it.
	id := -1
	if l.cached {
		id = t.begin(i, root, "session", false)
	}
	sess, err := repro.NewSession(cn.Pipeline(), cn.Platform(), repro.WithRecorder(l.probeRec))
	if id >= 0 {
		t.end(id)
	}
	if err != nil {
		return err
	}
	if spec.Objective != "minLatency" {
		l.heuristicsProbe(i, root, spec.Pipeline, spec.Platform, spec.MaxLatency)
	}
	// Repair probe: crash the answer's first processor, then recover it.
	start := l.canonical[i]
	u := start.Alloc[0][0]
	schedule := sim.FaultSchedule{{Seq: 0, Time: 1, Proc: u, Kind: sim.FaultCrash}, {Seq: 1, Time: 2, Proc: u, Kind: sim.FaultRecover}}
	cfg := repro.RemapConfig{Objective: objectiveOf(spec.Objective), MaxLatency: spec.MaxLatency, MaxFailProb: spec.MaxFailProb}
	return l.reactive(i, root, sess, start, schedule, cfg, false, nil)
}

// heuristicsProbe times heuristics.Greedy and heuristics.Anneal directly
// on the request's instance (minimum FP under maxLatency), with a
// prebuilt evaluator and the session's default annealing configuration.
func (l *ladder) heuristicsProbe(i, root int, p *repro.Pipeline, pl *repro.Platform, maxLatency float64) {
	ev, err := mapping.NewEvaluator(p, pl)
	if err != nil {
		return // the session build already validated the instance
	}
	hp := &heuristics.Problem{Pipe: p, Plat: pl, Goal: heuristics.MinFP, Bound: maxLatency, Eval: ev}
	ctx := context.Background()
	id := l.tr.begin(i, root, "greedy", false)
	_, _ = heuristics.Greedy(ctx, hp) // not finding a feasible mapping is an answer too
	l.tr.end(id)
	id = l.tr.begin(i, root, "anneal", false)
	_, _ = heuristics.Anneal(ctx, hp, heuristics.AnnealConfig{Seed: 1})
	l.tr.end(id)
}

// replay runs request i through the ladder and checks the answer.
func (l *ladder) replay(i int, r request, body []byte, ta *tally) error {
	l.procs[i] = r.plat.NumProcs()
	o := outcome{idx: i, status: 200}
	var err error
	if r.path == streamPath {
		o.records, err = l.stream(i, body)
	} else {
		o.solve, err = l.solve(i, body)
	}
	if err != nil {
		return err
	}
	ta.add(r, o)
	return nil
}

// traceRun replays the workload's first requests through the ladder (40%
// of -seconds, or -requests of them, at most the workload's ladderCap),
// probes the same requests in a second pass, then sends them to a freshly
// set-up service with the closed loop and attributes its end-to-end mean
// to the layers.
func traceRun(w *workload, o options) (report, error) {
	tr := w.traffic(o.seed)
	l := newLadder(tr.nPrewarm > 0)
	ta := &tally{w: w}
	for k := 0; k < tr.nPrewarm; k++ {
		// Warm the ladder's caches as set-up warms the service's; these
		// replays are not part of the trace.
		if _, err := l.solve(-1-k, tr.prewarm(k).body()); err != nil {
			return report{}, fmt.Errorf("pre-warm %d: %w", k, err)
		}
	}
	l.tr.spans = l.tr.spans[:0]
	engine0 := l.rec.CounterValues("exact_")

	until := time.Now().Add(time.Duration(0.4 * o.seconds * float64(time.Second)))
	more := func(n int) bool {
		if n == 0 {
			return true
		}
		if o.requests > 0 {
			return n < min(o.requests, w.ladderCap)
		}
		return n < w.ladderCap && time.Now().Before(until)
	}
	n := 0
	var bodyKB []float64
	for ; more(n); n++ {
		r := tr.at(o.seed, n)
		body := r.body()
		bodyKB = append(bodyKB, float64(len(body))/1024)
		if err := l.replay(n, r, body, ta); err != nil {
			return report{}, fmt.Errorf("replaying request %d: %w", n, err)
		}
	}
	engine := l.rec.CounterValues("exact_")
	for k, v := range engine0 {
		engine[k] -= v
	}
	for i := 0; i < n; i++ {
		r := tr.at(o.seed, i)
		if err := l.probe(i, r, r.body()); err != nil {
			return report{}, fmt.Errorf("probing request %d: %w", i, err)
		}
	}

	// The same requests end to end, through a freshly set-up service.
	warm := &tally{w: w}
	srv, _, reqs, outs := setup(w, tr, o.clients)
	for _, out := range outs {
		warm.add(reqs[out.idx], out)
	}
	defer srv.close()
	runtime0 := readRuntime()
	outs, _ = drive(srv, o.clients, n, time.Time{}, func(i int) (string, []byte) {
		r := tr.at(o.seed, i)
		return r.path, r.body()
	})
	runtime1 := readRuntime()
	stats, err := srv.stats()
	if err != nil {
		return report{}, fmt.Errorf("reading /v1/stats: %w", err)
	}
	e2e := &tally{w: w}
	var latencies []float64
	for _, out := range outs {
		e2e.add(tr.at(o.seed, out.idx), out)
		latencies = append(latencies, ms(out.latency))
	}

	vals, info := layerMetrics(l, n, engine)
	vals["serve.body_kb.mean"] = mean(bodyKB)
	vals["serve.residual_ms.mean"] = mean(latencies) - info["ladder_ms.mean"]
	vals["runtime.gc_cpu_share"] = ratio(runtime1.gcCPU-runtime0.gcCPU, runtime1.totalCPU-runtime0.totalCPU)
	vals["runtime.gc_cycles_per_kreq"] = ratio(runtime1.gcCycles-runtime0.gcCycles, float64(n)/1000)
	st := statsInfo(stats)
	for _, k := range []string{"session_hit_ratio", "solution_hit_ratio", "solution_evicted", "coalesced", "shed"} {
		vals["serve."+k] = st[k]
	}
	info["e2e_ms.mean"] = mean(latencies)
	info["requests"] = float64(n)

	if o.spans != "" {
		if err := writeSpans(o.spans, w.name, o.seed, l.tr.spans); err != nil {
			return report{}, err
		}
	}
	violations := append(append(ta.violations, warm.violations...), e2e.violations...)
	return report{
		Correct:    len(violations) == 0,
		Attempted:  ta.attempted + e2e.attempted,
		Failed:     ta.failed + e2e.failed,
		Metrics:    metricSet(perLayer, vals),
		Workload:   w.name,
		Info:       info,
		Violations: violations,
	}, nil
}

// layerMetrics derives the per-layer metrics from the spans of n traced
// requests and the exact-engine counter deltas. info carries each layer's
// mean self time per request (ms, on-path and probe separately), their
// on-path sum, and the numbers the declared metrics are not built from.
func layerMetrics(l *ladder, n int, engine map[string]int64) (map[string]float64, map[string]float64) {
	spans := l.tr.spans
	childTime := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.dur()
		}
	}
	durs := map[string][]float64{} // layer → µs per call
	perReq := map[string]float64{} // "layer" or "layer(probe)" → total self ms
	ladderMS := 0.0
	routeCount := map[string]float64{}
	routeUS := map[string][]float64{}
	widthUS := map[string][]float64{} // "narrow" (m ≤ 64) or "wide"
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		us := float64(s.dur()) / 1e3
		durs[s.Layer] = append(durs[s.Layer], us)
		self := float64(s.dur()-childTime[s.ID]) / 1e6
		key := s.Layer
		if s.OnPath {
			ladderMS += self
		} else {
			key += "(probe)"
		}
		perReq[key] += self
		if s.Layer == "solve" {
			routeCount[s.Route]++
			routeUS[s.Route] = append(routeUS[s.Route], us)
			width := "narrow"
			if l.procs[s.Req] > 64 {
				width = "wide"
			}
			widthUS[width] = append(widthUS[width], us)
		}
	}
	encodePerReq := 0.0
	for _, us := range durs["encode"] {
		encodePerReq += us
	}
	nf := float64(n)
	solves := float64(len(durs["solve"]))
	vals := map[string]float64{
		"serve.decode_us.p50":        quantile(durs["decode"], 0.5),
		"serve.decode_us.mean":       mean(durs["decode"]),
		"serve.encode_us.mean":       encodePerReq / nf,
		"canon.canonicalize_us.p50":  quantile(durs["canonicalize"], 0.5),
		"canon.canonicalize_us.mean": mean(durs["canonicalize"]),
		"canon.translate_us.mean":    mean(durs["translate"]),
		"session.build_us.mean":      mean(durs["session"]),
		"core.solve_us.p50":          quantile(durs["solve"], 0.5),
		"core.solve_us.mean":         mean(durs["solve"]),
		"core.solve_us.p99":          quantile(durs["solve"], 0.99),
		"heuristics.greedy_us.mean":  mean(durs["greedy"]),
		"heuristics.anneal_us.mean":  mean(durs["anneal"]),
		"remap.repair_us.p50":        quantile(durs["repair"], 0.5),
		"remap.repair_us.p99":        quantile(durs["repair"], 0.99),
		"remap.changed_share":        ratio(float64(l.changed), float64(l.events)),
	}
	for _, route := range []string{"poly", "dp", "exact", "heuristic", "beam", "sweep"} {
		vals["core.route_share."+route] = ratio(routeCount[route], solves)
	}
	nodes := float64(engine["exact_nodes_total"])
	vals["exact.nodes_per_solve"] = ratio(nodes, float64(engine["exact_runs_total"]))
	vals["exact.prune_ratio"] = ratio(float64(engine["exact_incumbent_prunes_total"]), nodes)

	info := map[string]float64{"ladder_ms.mean": ladderMS / nf}
	for k, v := range perReq {
		info["self_ms."+k] = v / nf
	}
	for route, us := range routeUS {
		info["core.route_us."+route] = mean(us)
	}
	for width, us := range widthUS {
		info["core.solve_us."+width+".mean"] = mean(us)
	}
	info["exact.ns_per_node"] = ratio(1e3*mean(routeUS["exact"])*float64(len(routeUS["exact"])), nodes)
	// The batch evaluator serves only non-replicated searches and the
	// suffix memo only Comm-Hom ones, which the router sends to the DP:
	// on these workloads both stay at 0.
	info["exact.batch_fill"] = ratio(float64(engine["exact_batch_candidates_total"]), float64(engine["exact_batch_calls_total"]))
	info["exact.memo_hit_ratio"] = ratio(float64(engine["exact_memo_hits_total"]), float64(engine["exact_memo_hits_total"]+engine["exact_memo_misses_total"]))
	return vals, info
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": sorted})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
