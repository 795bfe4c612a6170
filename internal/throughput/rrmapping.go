package throughput

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// RRMapping combines the paper's two replication types. Each interval is
// served by one or more *groups*; consecutive data sets are dealt to the
// groups round-robin (data parallelism, raising throughput), and within a
// group every processor runs identical computations (reliability
// replication, lowering the failure probability).
//
// Groups[j][g] is the replica set of group g of interval j. An RRMapping
// with a single group per interval is exactly the paper's interval
// mapping.
type RRMapping struct {
	Intervals []mapping.Interval `json:"intervals"`
	Groups    [][][]int          `json:"groups"`
}

// FromMapping wraps a reliability-only interval mapping as an RRMapping
// with one group per interval.
func FromMapping(m *mapping.Mapping) *RRMapping {
	r := &RRMapping{Intervals: append([]mapping.Interval(nil), m.Intervals...)}
	for _, procs := range m.Alloc {
		r.Groups = append(r.Groups, [][]int{append([]int(nil), procs...)})
	}
	return r
}

// Flatten returns the underlying interval mapping when every interval has
// exactly one group (ok=false otherwise).
func (r *RRMapping) Flatten() (*mapping.Mapping, bool) {
	m := &mapping.Mapping{Intervals: append([]mapping.Interval(nil), r.Intervals...)}
	for _, groups := range r.Groups {
		if len(groups) != 1 {
			return nil, false
		}
		m.Alloc = append(m.Alloc, append([]int(nil), groups[0]...))
	}
	return m, true
}

// Validate checks the interval partition, non-empty groups, and global
// processor disjointness (a processor serves one group of one interval).
func (r *RRMapping) Validate(n, mProcs int) error {
	if len(r.Intervals) == 0 || len(r.Groups) != len(r.Intervals) {
		return fmt.Errorf("throughput: %d intervals but %d group lists", len(r.Intervals), len(r.Groups))
	}
	next := 0
	for j, iv := range r.Intervals {
		if iv.First != next || iv.Last < iv.First {
			return fmt.Errorf("throughput: interval %d = %v does not continue the partition", j, iv)
		}
		next = iv.Last + 1
	}
	if next != n {
		return fmt.Errorf("throughput: intervals cover stages up to %d, want %d", next-1, n-1)
	}
	used := make(map[int]bool)
	for j, groups := range r.Groups {
		if len(groups) == 0 {
			return fmt.Errorf("throughput: interval %d has no groups", j)
		}
		for g, procs := range groups {
			if len(procs) == 0 {
				return fmt.Errorf("throughput: interval %d group %d is empty", j, g)
			}
			for _, u := range procs {
				if u < 0 || u >= mProcs {
					return fmt.Errorf("throughput: invalid processor %d", u)
				}
				if used[u] {
					return fmt.Errorf("throughput: processor %d used twice", u)
				}
				used[u] = true
			}
		}
	}
	return nil
}

// String renders "[S1]->{P1|P2,P3}": groups separated by '|'.
func (r *RRMapping) String() string {
	var b strings.Builder
	for j, iv := range r.Intervals {
		if j > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(iv.String())
		b.WriteString("->{")
		for g, procs := range r.Groups[j] {
			if g > 0 {
				b.WriteByte('|')
			}
			for i, u := range procs {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "P%d", u+1)
			}
		}
		b.WriteByte('}')
	}
	return b.String()
}

// FailureProb: the application fails if any group of any interval loses
// all of its replicas — each group owns a share of the data sets, so a
// dead group means lost data sets even though the other groups survive:
//
//	FP = 1 − Π_j Π_g (1 − Π_{u∈Groups[j][g]} fp_u)
//
// Each group is one replica set of mapping.AccumFailure's rule, taken in
// interval then group order.
func (r *RRMapping) FailureProb(pl *platform.Platform) float64 {
	fp := 0.0
	for _, groups := range r.Groups {
		fp = accumGroups(fp, groups, pl)
	}
	return fp
}

// accumGroups accumulates the failure factor of each group into fp.
func accumGroups(fp float64, groups [][]int, pl *platform.Platform) float64 {
	for _, procs := range groups {
		fp = mapping.AccumFailure(fp, mapping.ReplicaFailure(pl, procs))
	}
	return fp
}

// Latency: a data set traverses one group per interval; the worst case
// takes, per interval, the group with the largest Eq. (2)-style term
// (serialized input copies to the group, slowest replica, outgoing chain
// toward the worst next-interval group).
func (r *RRMapping) Latency(p *pipeline.Pipeline, pl *platform.Platform) (float64, error) {
	if err := r.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		return 0, err
	}
	return r.latency(p, pl), nil
}

// latency is Latency without the validation walk, for mappings valid by
// construction (see evaluateTrusted).
func (r *RRMapping) latency(p *pipeline.Pipeline, pl *platform.Platform) float64 {
	total := 0.0
	// Worst first-interval group for the input copies.
	worstIn := 0.0
	for _, g := range r.Groups[0] {
		in := 0.0
		for _, u := range g {
			in += p.InputSize(r.Intervals[0].First) / pl.BIn[u]
		}
		if in > worstIn {
			worstIn = in
		}
	}
	total += worstIn
	for j, iv := range r.Intervals {
		work := p.Work(iv.First, iv.Last)
		out := p.OutputSize(iv.Last)
		worst := math.Inf(-1)
		for _, g := range r.Groups[j] {
			for _, u := range g {
				term := work / pl.Speed[u]
				if j == len(r.Intervals)-1 {
					term += out / pl.BOut[u]
				} else {
					// Worst-case next group.
					worstSend := 0.0
					for _, ng := range r.Groups[j+1] {
						send := 0.0
						for _, v := range ng {
							send += out / pl.B[u][v]
						}
						if send > worstSend {
							worstSend = send
						}
					}
					term += worstSend
				}
				if term > worst {
					worst = term
				}
			}
		}
		total += worst
	}
	return total
}

// Period: each group of interval j serves one data set out of G_j, so its
// resource cycles shrink by the factor G_j. The overall period is the
// bottleneck over P_in (which still touches every data set), every
// group's compute/receive cycles, and every group sender's outgoing chain.
func (r *RRMapping) Period(p *pipeline.Pipeline, pl *platform.Platform) (float64, error) {
	if err := r.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		return 0, err
	}
	return r.period(p, pl), nil
}

// period is Period without the validation walk, for mappings valid by
// construction (see evaluateTrusted).
func (r *RRMapping) period(p *pipeline.Pipeline, pl *platform.Platform) float64 {
	period := 0.0
	upd := func(x float64) {
		if x > period {
			period = x
		}
	}
	// P_in sends every data set to each replica of the target group;
	// averaged over the round-robin the per-data-set cost is the mean
	// group fan-out.
	pinTotal := 0.0
	for _, g := range r.Groups[0] {
		for _, u := range g {
			pinTotal += p.InputSize(r.Intervals[0].First) / pl.BIn[u]
		}
	}
	upd(pinTotal / float64(len(r.Groups[0])))

	for j, iv := range r.Intervals {
		work := p.Work(iv.First, iv.Last)
		in := p.InputSize(iv.First)
		out := p.OutputSize(iv.Last)
		gj := float64(len(r.Groups[j]))
		// Receive cycles: each replica gets one data set out of G_j from
		// the previous interval's (worst-case) group sender.
		if j > 0 {
			for _, g := range r.Groups[j] {
				for _, u := range g {
					worstRecv := 0.0
					for pg := range r.Groups[j-1] {
						w := r.electGroupSender(p, pl, j-1, pg)
						if rc := in / pl.B[w][u]; rc > worstRecv {
							worstRecv = rc
						}
					}
					upd(worstRecv / gj)
				}
			}
		}
		for _, g := range r.Groups[j] {
			// The group's worst-case sender is elected by the same rule as
			// everywhere else: the replica maximizing compute + outgoing
			// chain. As in PeriodOverlap, only the elected replica's
			// compute gates the group's share of the output stream.
			bestTerm, senderCycle, senderComp := math.Inf(-1), 0.0, 0.0
			for _, u := range g {
				// Outgoing chain if u were the group's sender.
				cycle := 0.0
				if j == len(r.Intervals)-1 {
					cycle = out / pl.BOut[u]
				} else {
					worstSend := 0.0
					for _, ng := range r.Groups[j+1] {
						send := 0.0
						for _, v := range ng {
							send += out / pl.B[u][v]
						}
						if send > worstSend {
							worstSend = send
						}
					}
					cycle = worstSend
				}
				comp := work / pl.Speed[u]
				if term := comp + cycle; term > bestTerm {
					bestTerm, senderCycle, senderComp = term, cycle, comp
				}
			}
			upd(senderComp / gj)
			upd(senderCycle / gj)
		}
		_ = iv
	}
	return period
}

// electGroupSender returns the worst-case sender of group g of interval
// j: the replica maximizing compute plus the worst outgoing chain, the
// same election rule as the latency formulas and the simulator.
func (r *RRMapping) electGroupSender(p *pipeline.Pipeline, pl *platform.Platform, j, g int) int {
	iv := r.Intervals[j]
	work := p.Work(iv.First, iv.Last)
	out := p.OutputSize(iv.Last)
	best, bestTerm := -1, math.Inf(-1)
	for _, u := range r.Groups[j][g] {
		term := work / pl.Speed[u]
		if j == len(r.Intervals)-1 {
			term += out / pl.BOut[u]
		} else {
			worstSend := 0.0
			for _, ng := range r.Groups[j+1] {
				send := 0.0
				for _, v := range ng {
					send += out / pl.B[u][v]
				}
				if send > worstSend {
					worstSend = send
				}
			}
			term += worstSend
		}
		if term > bestTerm {
			best, bestTerm = u, term
		}
	}
	return best
}

// Metrics bundles the three criteria of the extension.
type Metrics struct {
	Latency     float64
	FailureProb float64
	Period      float64
}

// Evaluate computes all three criteria.
func (r *RRMapping) Evaluate(p *pipeline.Pipeline, pl *platform.Platform) (Metrics, error) {
	if err := r.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		return Metrics{}, err
	}
	return r.evaluateTrusted(p, pl), nil
}

// evaluateTrusted is Evaluate for mappings known valid by construction —
// the grouping sweeps enumerate set partitions of interval mappings the
// engine already validated, so re-walking every replica set (and
// allocating Validate's seen-map) once per grouping would dominate sweep
// time. Metric values are identical to Evaluate's.
func (r *RRMapping) evaluateTrusted(p *pipeline.Pipeline, pl *platform.Platform) Metrics {
	return Metrics{
		Latency:     r.latency(p, pl),
		FailureProb: r.FailureProb(pl),
		Period:      r.period(p, pl),
	}
}

// Dominates is three-way Pareto dominance (all ≤, one <).
func (a Metrics) Dominates(b Metrics) bool {
	if a.Latency > b.Latency || a.FailureProb > b.FailureProb || a.Period > b.Period {
		return false
	}
	return a.Latency < b.Latency || a.FailureProb < b.FailureProb || a.Period < b.Period
}

// TriEntry is one point of a three-criteria front. Task is the discovery
// tag used by the parallel enumeration to keep duplicate-point
// representatives deterministic (see frontier.Entry.Task).
type TriEntry struct {
	Metrics Metrics
	Mapping *RRMapping
	Task    int64
}

// TriFront is a set of mutually non-dominated three-criteria points.
type TriFront struct {
	entries []TriEntry
}

// Len returns the number of points.
func (f *TriFront) Len() int { return len(f.entries) }

// Entries returns the points sorted by (latency, period).
func (f *TriFront) Entries() []TriEntry {
	sort.Slice(f.entries, func(i, j int) bool {
		a, b := f.entries[i].Metrics, f.entries[j].Metrics
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		return a.Period < b.Period
	})
	return f.entries
}

// Insert offers a point; dominated or duplicate points are rejected and
// newly dominated points evicted.
func (f *TriFront) Insert(met Metrics, m *RRMapping) bool {
	return f.InsertTagged(met, m, 0)
}

// InsertTagged is Insert with the deterministic duplicate tie-break of
// frontier.Front.InsertTagged: an exactly-equal metric point replaces the
// existing representative when task is strictly lower.
func (f *TriFront) InsertTagged(met Metrics, m *RRMapping, task int64) bool {
	return f.insert(met, m, task, true)
}

// InsertOwned is InsertTagged taking ownership of m instead of cloning it
// (for merging per-worker fronts about to be discarded).
func (f *TriFront) InsertOwned(met Metrics, m *RRMapping, task int64) bool {
	return f.insert(met, m, task, false)
}

func (f *TriFront) insert(met Metrics, m *RRMapping, task int64, clone bool) bool {
	cp := func() *RRMapping {
		if clone {
			return cloneRROrNil(m)
		}
		return m
	}
	for i := range f.entries {
		e := &f.entries[i]
		if e.Metrics == met {
			if task < e.Task {
				e.Task = task
				e.Mapping = cp()
			}
			return false
		}
		if e.Metrics.Dominates(met) {
			return false
		}
	}
	keep := f.entries[:0]
	for _, e := range f.entries {
		if !met.Dominates(e.Metrics) {
			keep = append(keep, e)
		}
	}
	f.entries = append(keep, TriEntry{Metrics: met, Mapping: cp(), Task: task})
	return true
}
