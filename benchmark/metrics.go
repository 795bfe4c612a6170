package main

import (
	"math"
	"sort"
)

// metricSpec declares one reported metric. The two tables below are the
// program's copy of BENCHMARK.json's "end_to_end" and "per_layer" lists;
// the tests fail when they drift apart.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the user-visible metrics, measured with tracing off. Bound
// is the share of the parent's median by which a metric may worsen before
// a change counts as a regression (see README.md, Calibration).
var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.25},
	{"event_p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_req", "KiB", "lower", 0.1},
	{"heap_live_mb", "MiB", "lower", 0.15},
}

// perLayer are the traced run's metrics, one or more per module on the
// request path (see README.md for the end-to-end metric each should move).
var perLayer = []metricSpec{
	{Name: "serve.decode_us.p50", Unit: "us", Better: "lower"},
	{Name: "serve.decode_us.mean", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us.mean", Unit: "us", Better: "lower"},
	{Name: "serve.body_kb.mean", Unit: "KiB", Better: "lower"},
	{Name: "serve.residual_ms.mean", Unit: "ms", Better: "lower"},
	{Name: "serve.session_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "serve.solution_hit_ratio", Unit: "fraction", Better: "higher"},
	{Name: "serve.solution_evicted", Unit: "count", Better: "lower"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "canon.canonicalize_us.p50", Unit: "us", Better: "lower"},
	{Name: "canon.canonicalize_us.mean", Unit: "us", Better: "lower"},
	{Name: "canon.translate_us.mean", Unit: "us", Better: "lower"},
	{Name: "session.build_us.mean", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.p50", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.mean", Unit: "us", Better: "lower"},
	{Name: "core.solve_us.p99", Unit: "us", Better: "lower"},
	{Name: "core.route_share.poly", Unit: "fraction", Better: "higher"},
	{Name: "core.route_share.dp", Unit: "fraction", Better: "higher"},
	{Name: "core.route_share.exact", Unit: "fraction", Better: "higher"},
	{Name: "core.route_share.heuristic", Unit: "fraction", Better: "lower"},
	{Name: "core.route_share.beam", Unit: "fraction", Better: "lower"},
	{Name: "core.route_share.sweep", Unit: "fraction", Better: "lower"},
	{Name: "exact.nodes_per_solve", Unit: "count", Better: "lower"},
	{Name: "exact.prune_ratio", Unit: "fraction", Better: "higher"},
	{Name: "heuristics.greedy_us.mean", Unit: "us", Better: "lower"},
	{Name: "heuristics.anneal_us.mean", Unit: "us", Better: "lower"},
	{Name: "remap.repair_us.p50", Unit: "us", Better: "lower"},
	{Name: "remap.repair_us.p99", Unit: "us", Better: "lower"},
	{Name: "remap.changed_share", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kreq", Unit: "count", Better: "lower"},
}

// value is one reported number with its unit, as printed in the result
// line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills the declared metrics of specs from vals, which must hold
// every one of them.
func metricSet(specs []metricSpec, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			panic("metric " + s.Name + " was not computed")
		}
		out[s.Name] = value{v, s.Unit}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so spreads printed here match the ones a Python script gets.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a count over an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
