package heuristics

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/frontier"
	"repro/internal/mapping"
)

// AnnealConfig tunes the simulated-annealing solver. The zero value is
// replaced by sensible defaults (see the field comments).
type AnnealConfig struct {
	Seed     int64   // RNG seed (default 1)
	Iters    int     // iterations per restart (default 2000)
	Restarts int     // independent restarts (default 4)
	InitTemp float64 // initial temperature on the normalized cost (default 0.3)
	Cooling  float64 // geometric cooling factor per iteration (default so temp ends near 1e-3)
	// Archive, when non-nil, collects every mapping met during the search
	// into a Pareto front (used for trade-off curves).
	Archive *frontier.Front
}

func (c AnnealConfig) withDefaults() AnnealConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Iters <= 0 {
		c.Iters = 2000
	}
	if c.Restarts <= 0 {
		c.Restarts = 4
	}
	if c.InitTemp <= 0 {
		c.InitTemp = 0.3
	}
	if c.Cooling <= 0 || c.Cooling >= 1 {
		// Reach ~1e-3 of InitTemp by the last iteration.
		c.Cooling = math.Pow(1e-3, 1/float64(c.Iters))
	}
	return c
}

// Anneal runs repair-based simulated annealing over the space of interval
// mappings. Infeasible states are admitted during the walk (with a large
// penalty) so the search can cross infeasible ridges; only feasible states
// are recorded. The solve route does not anneal; ParetoSearch runs it to
// fill its trade-off archive.
//
// The walk runs on the shared incremental search state: each drawn move is
// applied in place and scored through the cached per-interval terms; a
// rejected move is dropped by restoring the snapshot of the current walk
// state, which an accepted move re-takes. A mapping is materialized only
// when it improves the best-so-far or survives into the archive, so
// iterations themselves are allocation-free.
//
// The walk polls ctx every few iterations: on cancellation it stops and
// returns the best feasible mapping found so far together with an error
// wrapping the context's cause (or just the error when nothing feasible
// was seen). An uncanceled run is deterministic for a fixed config.
func Anneal(ctx context.Context, pr *Problem, cfg AnnealConfig) (Result, error) {
	if pr.Recorder != nil {
		defer pr.observeRun("anneal", time.Now())
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	done := ctxDone(ctx)
	canceled := false

	s, err := newSearcher(pr)
	if err != nil {
		return Result{}, err
	}

	best := Result{}
	found := false
	record := func(met mapping.Metrics) {
		if cfg.Archive != nil && cfg.Archive.WouldKeep(met) {
			cfg.Archive.InsertOwned(met, s.st.ToMapping(), 0)
		}
		if !pr.feasible(met) {
			return
		}
		if !found || pr.better(met, best.Metrics) {
			best = Result{Mapping: s.st.ToMapping(), Metrics: met}
			found = true
		}
	}

	// Normalization scale for latency costs: the single-interval latency
	// on the fastest processor (a reasonable magnitude for the instance).
	ref := mapping.NewSingleInterval(pr.Pipe.NumStages(), []int{pr.Plat.FastestProc()})
	refMet, ok := pr.evaluate(ref)
	if !ok {
		return Result{}, ErrNotFound
	}
	latScale := math.Max(refMet.Latency, 1e-12)

	cost := func(met mapping.Metrics) float64 {
		if pr.Goal == MinFP {
			if leqTol(met.Latency, pr.Bound) {
				return met.FailureProb
			}
			return 2 + (met.Latency-pr.Bound)/latScale // any feasible beats any infeasible
		}
		if met.FailureProb <= pr.Bound+1e-12 {
			return met.Latency / latScale
		}
		return 2 + refMet.Latency/latScale + (met.FailureProb - pr.Bound)
	}

restarts:
	for r := 0; r < cfg.Restarts; r++ {
		s.st.Load(randomState(rng, pr))
		s.snap.CopyFrom(s.st)
		curMet, _ := s.score()
		record(curMet)
		curCost := cost(curMet)
		temp := cfg.InitTemp
		for it := 0; it < cfg.Iters; it++ {
			if done != nil && it&31 == 0 {
				select {
				case <-done:
					canceled = true
					break restarts
				default:
				}
			}
			mv, ok := s.randomMove(rng)
			if !ok {
				temp *= cfg.Cooling
				continue
			}
			mv.apply(s)
			nextMet, _ := s.score()
			record(nextMet)
			nextCost := cost(nextMet)
			if accept(rng, curCost, nextCost, temp) {
				curMet, curCost = nextMet, nextCost
				s.snap.CopyFrom(s.st)
			} else {
				s.st.CopyFrom(s.snap)
			}
			temp *= cfg.Cooling
		}
	}
	if canceled {
		if !found {
			return Result{}, canceledErr(ctx)
		}
		return best, canceledErr(ctx)
	}
	if !found {
		return Result{}, ErrNotFound
	}
	return best, nil
}

func accept(rng *rand.Rand, cur, next, temp float64) bool {
	if next <= cur {
		return true
	}
	if temp <= 0 {
		return false
	}
	return rng.Float64() < math.Exp(-(next-cur)/temp)
}

// randomState draws a random valid interval mapping: a random number of
// intervals (biased toward few), one random distinct processor per
// interval, then each remaining processor joins a random interval with
// probability ½.
func randomState(rng *rand.Rand, pr *Problem) *mapping.Mapping {
	n, m := pr.Pipe.NumStages(), pr.Plat.NumProcs()
	maxP := n
	if m < maxP {
		maxP = m
	}
	p := 1
	for p < maxP && rng.Float64() < 0.35 {
		p++
	}
	cuts := rng.Perm(n - 1)
	if len(cuts) > p-1 {
		cuts = cuts[:p-1]
	} else {
		p = len(cuts) + 1
	}
	sortInts(cuts)
	mp := &mapping.Mapping{}
	start := 0
	for j := 0; j < p; j++ {
		end := n - 1
		if j < p-1 {
			end = cuts[j]
		}
		mp.Intervals = append(mp.Intervals, mapping.Interval{First: start, Last: end})
		start = end + 1
	}
	procs := rng.Perm(m)
	mp.Alloc = make([][]int, p)
	for j := 0; j < p; j++ {
		mp.Alloc[j] = []int{procs[j]}
	}
	for _, u := range procs[p:] {
		if rng.Float64() < 0.5 {
			j := rng.Intn(p)
			mp.Alloc[j] = append(mp.Alloc[j], u)
		}
	}
	return mp
}

// randomMove draws a random single-move variation of the current state,
// mirroring the legacy neighbor distribution (add, remove, migrate,
// split, merge drawn uniformly; inapplicable draws report ok=false and
// the caller retries next iteration). The returned move has not been
// applied.
func (s *searcher) randomMove(rng *rand.Rand) (move, bool) {
	st := s.st
	p := st.NumIntervals()
	free := s.freeProcs()
	switch rng.Intn(5) {
	case 0: // add an unused processor to a random interval
		if len(free) == 0 {
			return move{}, false
		}
		j := rng.Intn(p)
		return move{kind: mvAdd, j: j, u: free[rng.Intn(len(free))]}, true
	case 1: // remove a random replica
		j := rng.Intn(p)
		k := st.Replication(j)
		if k < 2 {
			return move{}, false
		}
		return move{kind: mvRemove, j: j, u: nthProc(st.Mask(j), rng.Intn(k))}, true
	case 2: // move a replica to another interval
		if p < 2 {
			return move{}, false
		}
		j := rng.Intn(p)
		k := st.Replication(j)
		if k < 2 {
			return move{}, false
		}
		j2 := rng.Intn(p)
		if j2 == j {
			return move{}, false
		}
		return move{kind: mvMigrate, j: j, j2: j2, u: nthProc(st.Mask(j), rng.Intn(k))}, true
	case 3: // split a random interval at a random point
		j := rng.Intn(p)
		length := st.End(j) - st.First(j) + 1
		if length < 2 {
			return move{}, false
		}
		cut := st.First(j) + 1 + rng.Intn(length-1)
		if st.Replication(j) >= 2 && (len(free) == 0 || rng.Float64() < 0.5) {
			s.setSplitSelfRight(j)
			return move{kind: mvSplitSelf, j: j, cut: cut}, true
		}
		if len(free) == 0 {
			return move{}, false
		}
		u := free[rng.Intn(len(free))]
		if rng.Float64() < 0.5 {
			return move{kind: mvSplitNewLeft, j: j, cut: cut, u: u}, true
		}
		return move{kind: mvSplitNewRight, j: j, cut: cut, u: u}, true
	default: // merge two adjacent intervals
		if p < 2 {
			return move{}, false
		}
		return move{kind: mvMerge, j: rng.Intn(p - 1)}, true
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// ParetoSearch runs Anneal once per goal direction with an archive and
// returns the combined Pareto front of all mappings encountered. The
// bounds are set wide open so the archive explores the whole trade-off
// curve.
//
// Cancellation is propagated: a canceled search returns the front holding
// whatever the walks archived before ctx fired together with an error
// wrapping the context's cause, so callers can grade the front partial
// (the Session surfaces this as core.Partial). ErrNotFound from a walk is
// not an error of the front — an empty front speaks for itself.
func ParetoSearch(ctx context.Context, pr *Problem, cfg AnnealConfig) (*frontier.Front, error) {
	front := &frontier.Front{}
	cfg = cfg.withDefaults()
	cfg.Archive = front
	pr.evaluator() // build once so the two problem copies share it
	wide := *pr
	wide.Goal = MinFP
	wide.Bound = math.Inf(1)
	_, err1 := Anneal(ctx, &wide, cfg)
	wide2 := *pr
	wide2.Goal = MinLatency
	wide2.Bound = 1
	cfg.Seed++
	_, err2 := Anneal(ctx, &wide2, cfg)
	for _, err := range []error{err1, err2} {
		if err != nil && !errors.Is(err, ErrNotFound) {
			return front, err
		}
	}
	return front, nil
}
