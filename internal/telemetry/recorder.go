package telemetry

import (
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Route identifies a solve strategy of the core router. Routes double as
// profile keys: the Recorder keeps one latency sketch per (Class, Route)
// and the adaptive router compares a route's warm p95 against the
// caller's remaining deadline budget.
type Route uint8

const (
	// RouteNone marks an unset route.
	RouteNone Route = iota
	// RoutePoly: one of the paper's polynomial algorithms (Theorems 1/2,
	// Algorithms 1–4) on its provably-optimal platform class.
	RoutePoly
	// RouteExact: the pruned branch-and-bound enumeration.
	RouteExact
	// RouteHeuristic: greedy local improvement.
	RouteHeuristic
	// RouteRepair: the failure-reactive warm-restart repair.
	RouteRepair

	numRoutes = int(RouteRepair) + 1
)

var routeNames = [numRoutes]string{
	"none", "poly", "exact", "heuristic", "repair",
}

func (r Route) String() string {
	if int(r) < numRoutes {
		return routeNames[r]
	}
	return "unknown"
}

// Routes lists every real route (RouteNone excluded), in enum order, so
// exporters can walk the per-route counters without hard-coding names.
func Routes() []Route {
	rs := make([]Route, 0, numRoutes-1)
	for r := RoutePoly; int(r) < numRoutes; r++ {
		rs = append(rs, r)
	}
	return rs
}

// ParseRoute maps a route name back to its enum (RouteNone when unknown).
func ParseRoute(name string) Route {
	for i, n := range routeNames {
		if n == name {
			return Route(i)
		}
	}
	return RouteNone
}

// Outcome grades how a route attempt (or a whole solve) ended.
type Outcome uint8

const (
	// OutcomeOK: a complete answer within the attempt's guarantees.
	OutcomeOK Outcome = iota
	// OutcomePartial: the deadline or cancellation truncated the search;
	// the answer is best-so-far.
	OutcomePartial
	// OutcomeInfeasible: the attempt proved no mapping satisfies the
	// constraint.
	OutcomeInfeasible
	// OutcomeNotFound: the attempt found no feasible mapping without
	// proving infeasibility.
	OutcomeNotFound
	// OutcomeError: the attempt failed for any other reason.
	OutcomeError

	numOutcomes = int(OutcomeError) + 1
)

var outcomeNames = [numOutcomes]string{"ok", "partial", "infeasible", "notfound", "error"}

func (o Outcome) String() string {
	if int(o) < numOutcomes {
		return outcomeNames[o]
	}
	return "unknown"
}

// Obj is the minimized criterion of a solve, as a class dimension.
type Obj uint8

const (
	// ObjLatency: minimize latency (under an optional FP bound).
	ObjLatency Obj = iota
	// ObjFP: minimize failure probability (under an optional latency
	// bound).
	ObjFP
)

func (o Obj) String() string {
	if o == ObjLatency {
		return "lat"
	}
	return "fp"
}

// Class is an instance-class key: stage and processor counts bucketed to
// the next power of two, communication homogeneity, and the objective.
// Bucketing keeps the key space small enough that per-class latency
// profiles warm up quickly under real traffic while still separating
// regimes whose solve costs differ by orders of magnitude.
type Class struct {
	// N and M are the power-of-two bucket upper bounds (inclusive) of
	// the stage and processor counts.
	N, M int
	// CommHom is true on communication-homogeneous platforms (single
	// link bandwidth), where Eq.(1) applies.
	CommHom bool
	// Obj is the minimized criterion.
	Obj Obj
}

// pow2Ceil rounds n up to the next power of two (minimum 1).
func pow2Ceil(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}

// ClassOf buckets an instance into its Class.
func ClassOf(n, m int, commHom bool, obj Obj) Class {
	return Class{N: pow2Ceil(n), M: pow2Ceil(m), CommHom: commHom, Obj: obj}
}

// String renders the class as a compact label, e.g. "n8.m16.het.lat".
func (c Class) String() string {
	hom := "het"
	if c.CommHom {
		hom = "hom"
	}
	return "n" + strconv.Itoa(c.N) + ".m" + strconv.Itoa(c.M) + "." + hom + "." + c.Obj.String()
}

// MaxAttempts bounds the route attempts one SolveObservation carries;
// a solve tries at most two ({exact, heuristic}), and the spare slots
// keep a later route from dropping attempts.
const MaxAttempts = 6

// Attempt is one timed route attempt within a solve.
type Attempt struct {
	Route    Route
	Duration time.Duration
	Outcome  Outcome
}

// SolveObservation reports one completed solve: the instance class, the
// route that produced the answer, per-route phase durations, and the
// solve's outcome and certainty grade. It is a fixed-size value so
// recording performs no allocation beyond first-touch registration.
type SolveObservation struct {
	Class     Class
	Route     Route // route that produced the final answer
	Outcome   Outcome
	Certainty string // label-safe certainty grade, e.g. "heuristic"
	Total     time.Duration
	Attempts  [MaxAttempts]Attempt
	NAttempts int
}

// AddAttempt appends a route attempt (dropping past MaxAttempts, which
// cannot happen for core's route set).
func (o *SolveObservation) AddAttempt(route Route, d time.Duration, out Outcome) {
	if o.NAttempts >= MaxAttempts {
		return
	}
	o.Attempts[o.NAttempts] = Attempt{Route: route, Duration: d, Outcome: out}
	o.NAttempts++
}

// routeStats aggregates one (Class, Route) cell: the duration sketch the
// adaptive router queries plus per-outcome counters.
type routeStats struct {
	sketch   Sketch
	outcomes [numOutcomes]Counter
}

type classRoute struct {
	class Class
	route Route
}

// Recorder aggregates solve telemetry: a general-purpose Registry plus
// per-(class, route) latency profiles. All record paths are safe for
// concurrent use; warm-key recording takes only a read-lock and atomic
// adds. A nil *Recorder disables everything at the cost of one pointer
// test per call site.
type Recorder struct {
	Registry

	mu     sync.RWMutex
	routes map[classRoute]*routeStats

	skips  [numRoutes]Counter // adaptive-router skips per route
	finals [numRoutes][numOutcomes]Counter
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// routeCell returns the (class, route) cell, creating it on first use.
func (r *Recorder) routeCell(class Class, route Route) *routeStats {
	key := classRoute{class, route}
	r.mu.RLock()
	st := r.routes[key]
	r.mu.RUnlock()
	if st != nil {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if st = r.routes[key]; st != nil {
		return st
	}
	if r.routes == nil {
		r.routes = make(map[classRoute]*routeStats)
	}
	st = &routeStats{}
	r.routes[key] = st
	return st
}

// ObserveRoute records one route attempt for the class: its duration
// feeds the (class, route) latency sketch, its outcome the per-cell
// counters. Safe on nil.
func (r *Recorder) ObserveRoute(class Class, route Route, d time.Duration, out Outcome) {
	if r == nil {
		return
	}
	st := r.routeCell(class, route)
	st.sketch.Observe(d)
	if int(out) < numOutcomes {
		st.outcomes[out].Inc()
	}
}

// RouteQuantile returns the q-quantile of the (class, route) duration
// distribution together with its sample count. A nil recorder or an
// unseen cell returns (0, 0).
func (r *Recorder) RouteQuantile(class Class, route Route, q float64) (time.Duration, int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.RLock()
	st := r.routes[classRoute{class, route}]
	r.mu.RUnlock()
	if st == nil {
		return 0, 0
	}
	return st.sketch.Quantile(q), st.sketch.Count()
}

// RecordRouteSkip counts an adaptive-router decision to skip a route
// whose warm p95 did not fit the remaining deadline budget.
func (r *Recorder) RecordRouteSkip(route Route) {
	if r == nil || int(route) >= numRoutes {
		return
	}
	r.skips[route].Inc()
}

// RouteSkips returns how many times the adaptive router skipped route.
func (r *Recorder) RouteSkips(route Route) int64 {
	if r == nil || int(route) >= numRoutes {
		return 0
	}
	return r.skips[route].Load()
}

// RecordSolve folds one completed solve into the aggregates: every
// route attempt feeds its (class, route) profile, and the final
// (route, outcome) pair and certainty grade feed fixed counters.
func (r *Recorder) RecordSolve(obs SolveObservation) {
	if r == nil {
		return
	}
	for i := 0; i < obs.NAttempts && i < MaxAttempts; i++ {
		a := obs.Attempts[i]
		r.ObserveRoute(obs.Class, a.Route, a.Duration, a.Outcome)
	}
	if int(obs.Route) < numRoutes && int(obs.Outcome) < numOutcomes {
		r.finals[obs.Route][obs.Outcome].Inc()
	}
	if obs.Certainty != "" {
		r.Counter("solve_certainty_" + obs.Certainty + "_total").Inc()
	}
	r.Counter("solve_total").Inc()
}

// Solves returns the count of recorded solves ending on (route, outcome).
func (r *Recorder) Solves(route Route, out Outcome) int64 {
	if r == nil || int(route) >= numRoutes || int(out) >= numOutcomes {
		return 0
	}
	return r.finals[route][out].Load()
}

// RouteSnapshot is one (class, route) profile cell for export.
type RouteSnapshot struct {
	Class    Class
	Route    Route
	Count    int64
	Sum      time.Duration
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Outcomes [numOutcomes]int64
}

// SolveStats snapshots every (class, route) profile, sorted by class
// label then route, so /v1/stats and the Prometheus exporter render a
// stable order.
func (r *Recorder) SolveStats() []RouteSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	keys := make([]classRoute, 0, len(r.routes))
	cells := make([]*routeStats, 0, len(r.routes))
	for k, st := range r.routes {
		keys = append(keys, k)
		cells = append(cells, st)
	}
	r.mu.RUnlock()
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		if ka.class != kb.class {
			return ka.class.String() < kb.class.String()
		}
		return ka.route < kb.route
	})
	out := make([]RouteSnapshot, 0, len(idx))
	for _, i := range idx {
		st := cells[i]
		snap := RouteSnapshot{
			Class: keys[i].class,
			Route: keys[i].route,
			Count: st.sketch.Count(),
			Sum:   st.sketch.Sum(),
			P50:   st.sketch.Quantile(0.50),
			P95:   st.sketch.Quantile(0.95),
			P99:   st.sketch.Quantile(0.99),
		}
		for o := range snap.Outcomes {
			snap.Outcomes[o] = st.outcomes[o].Load()
		}
		out = append(out, snap)
	}
	return out
}
