package main

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"time"

	"repro/internal/exact"
	"repro/internal/mapping"
	"repro/internal/sim"
	"repro/serve"
)

// relTol is the relative tolerance on every reported metric.
const relTol = 1e-9

var certainties = map[string]bool{
	"provably optimal": true, "exhaustively optimal": true,
	"heuristic": true, "partial (canceled)": true,
}

func optimal(certainty string) bool {
	return certainty == "provably optimal" || certainty == "exhaustively optimal"
}

func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// within mirrors the solvers' bound tolerance.
func within(x, bound float64) bool {
	return bound == 0 || x <= bound+relTol*math.Max(1, math.Abs(bound))
}

// objective returns the request's minimized criterion of met.
func (r request) objective(met mapping.Metrics) float64 {
	if r.minLatency {
		return met.Latency
	}
	return met.FailureProb
}

// checkMapping verifies that m is valid for the request's own instance and
// labeling, that it reproduces the reported metrics, and (unless the
// answer reports a violation) that it meets the bound.
func (r request) checkMapping(m *mapping.Mapping, latency, fp float64, certainty string, violated bool) (mapping.Metrics, error) {
	if !certainties[certainty] {
		return mapping.Metrics{}, fmt.Errorf("unknown certainty %q", certainty)
	}
	if m == nil {
		return mapping.Metrics{}, fmt.Errorf("no mapping")
	}
	met, err := mapping.Evaluate(r.pipe, r.plat, m)
	if err != nil {
		return met, fmt.Errorf("invalid mapping: %v", err)
	}
	if !near(met.Latency, latency) || !near(met.FailureProb, fp) {
		return met, fmt.Errorf("reported (latency %v, FP %v) but the mapping evaluates to (%v, %v)", latency, fp, met.Latency, met.FailureProb)
	}
	if violated {
		return met, nil
	}
	if r.minLatency && !within(met.FailureProb, r.bound) {
		return met, fmt.Errorf("FP %v exceeds the bound %v", met.FailureProb, r.bound)
	}
	if !r.minLatency && !within(met.Latency, r.bound) {
		return met, fmt.Errorf("latency %v exceeds the bound %v", met.Latency, r.bound)
	}
	return met, nil
}

// checkSolve judges one /v1/solve answer and returns its objective.
func (r request) checkSolve(res serve.SolveResult) (float64, error) {
	if res.Error != "" {
		return 0, fmt.Errorf("in-band error: %s", res.Error)
	}
	met, err := r.checkMapping(res.Mapping, res.Latency, res.FailureProb, res.Certainty, false)
	return r.objective(met), err
}

// checkStream judges a remap stream's records against the request's own
// schedule: one record per event, each valid and never assigning a
// processor the schedule has down at that point (unless every processor
// is down: the hold record), then a terminal record counting every event.
// It returns the objective after each event.
func (r request) checkStream(recs []serve.RemapEvent) ([]float64, error) {
	if len(recs) != len(r.schedule)+1 {
		return nil, fmt.Errorf("%d records for %d events", len(recs), len(r.schedule))
	}
	down := make([]bool, r.plat.NumProcs())
	var objs []float64
	for k, ev := range recs[:len(r.schedule)] {
		if ev.Error != "" || ev.Done {
			return nil, fmt.Errorf("record %d: error %q (done %t)", k, ev.Error, ev.Done)
		}
		down[r.schedule[k].Proc] = r.schedule[k].Kind == sim.FaultCrash
		var want []int
		for u, d := range down {
			if d {
				want = append(want, u)
			}
		}
		if !slices.Equal(want, ev.Down) {
			return nil, fmt.Errorf("record %d: down %v, schedule says %v", k, ev.Down, want)
		}
		met, err := r.checkMapping(ev.Mapping, ev.Latency, ev.FailureProb, ev.Certainty, ev.Violation != nil)
		if err != nil {
			return nil, fmt.Errorf("record %d: %v", k, err)
		}
		if len(want) < len(down) {
			for _, procs := range ev.Mapping.Alloc {
				for _, u := range procs {
					if down[u] {
						return nil, fmt.Errorf("record %d assigns down processor %d", k, u)
					}
				}
			}
		}
		objs = append(objs, r.objective(met))
	}
	last := recs[len(recs)-1]
	if !last.Done || last.Error != "" || last.Events != len(r.schedule) {
		return nil, fmt.Errorf("terminal record: done %t, error %q, %d events (want %d)", last.Done, last.Error, last.Events, len(r.schedule))
	}
	return objs, nil
}

// resolve re-solves the request with the exact solver, single-threaded and
// without an enumeration cap, and returns the optimal objective.
func (r request) resolve() (float64, error) {
	opts := exact.Options{Workers: 1, MaxEnum: math.MaxInt64}
	var res exact.Result
	var err error
	if r.minLatency {
		res, err = exact.MinLatencyUnderFP(r.pipe, r.plat, r.bound, opts)
	} else {
		res, err = exact.MinFPUnderLatency(r.pipe, r.plat, r.bound, opts)
	}
	return r.objective(res.Metrics), err
}

// tally accumulates the verdicts on one workload's answers.
type tally struct {
	w          *workload
	attempted  int
	failed     int // transport errors, non-200 statuses, in-band errors
	violations []string
	sloMisses  int
	sloBase    int // requests (streams: events) the SLO is judged on
	quality    []float64
	optimal    int
	resolved   int
}

func (t *tally) violate(idx int, err error) {
	if len(t.violations) < 20 {
		t.violations = append(t.violations, fmt.Sprintf("%s request %d: %v", t.w.name, idx, err))
	} else if len(t.violations) == 20 {
		t.violations = append(t.violations, "further violations omitted")
	}
}

// add judges one outcome. Failed requests count against the SLO; so do
// partial and degraded answers and those over the workload's limit.
func (t *tally) add(r request, o outcome) {
	t.attempted++
	limit := t.w.sloMillis
	if r.path == streamPath {
		t.sloBase += len(r.schedule)
	} else {
		t.sloBase++
	}
	fail := func(err error) {
		t.failed++
		t.violate(o.idx, err)
		if r.path == streamPath {
			t.sloMisses += len(r.schedule)
		} else {
			t.sloMisses++
		}
	}
	switch {
	case o.err != nil:
		fail(o.err)
		return
	case o.status != http.StatusOK:
		fail(fmt.Errorf("HTTP %d: %s", o.status, o.solve.Error))
		return
	}
	if r.path == streamPath {
		objs, err := r.checkStream(o.records)
		if err != nil {
			fail(err)
			return
		}
		for k, g := range o.gaps {
			if ms(g) > limit || o.records[k].Certainty == "partial (canceled)" {
				t.sloMisses++
			}
		}
		for _, obj := range objs {
			t.addQuality(obj, r.base)
		}
		return
	}
	obj, err := r.checkSolve(o.solve)
	if err != nil {
		fail(err)
		return
	}
	if o.solve.Partial || o.solve.Degraded || ms(o.latency) > limit {
		t.sloMisses++
	}
	t.addQuality(obj, r.base)
	if !optimal(o.solve.Certainty) {
		return
	}
	t.optimal++
	if t.w.resolveEvery > 0 && t.optimal%t.w.resolveEvery == 0 {
		t.resolved++
		want, err := r.resolve()
		if err != nil {
			t.violate(o.idx, fmt.Errorf("exact re-solve: %v", err))
		} else if !near(want, obj) {
			t.violate(o.idx, fmt.Errorf("answer graded %q has objective %v, the exact solver finds %v", o.solve.Certainty, obj, want))
		}
	}
}

func (t *tally) addQuality(obj, base float64) {
	if obj > 0 && base > 0 {
		t.quality = append(t.quality, math.Log10(obj/base))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
