// Package mapping defines the mapping objects of the paper — interval
// mappings with replication, one-to-one mappings, and general (unrestricted)
// mappings — together with the paper's analytic metrics: the latency
// formulas Eq. (1) and Eq. (2) and the global failure probability.
//
// bound.go holds the two rules every solver shares: how the failure
// probability combines replica sets (AccumFailure, which keeps FP exact
// to a few relative ulps however small it is), and what a latency or
// failure-probability bound means (CheckBounds, the unconstrained
// sentinels and the relative slacks).
//
// An interval mapping partitions the stages 1..n into p consecutive
// intervals I_j = [d_j, e_j]; interval I_j is replicated on the processor
// set alloc(j). Every processor executes at most one interval (it serves
// every data set flowing through the pipeline), so the alloc sets are
// pairwise disjoint.
package mapping

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// Interval is an inclusive range of 0-based stage indices. The paper's
// interval [d_j, e_j] (1-based) corresponds to {First: d_j − 1, Last:
// e_j − 1}.
type Interval struct {
	First int `json:"first"`
	Last  int `json:"last"`
}

// Len returns the number of stages in the interval.
func (iv Interval) Len() int { return iv.Last - iv.First + 1 }

// String renders the interval in the paper's 1-based notation, e.g.
// "[S2..S4]".
func (iv Interval) String() string {
	if iv.First == iv.Last {
		return fmt.Sprintf("[S%d]", iv.First+1)
	}
	return fmt.Sprintf("[S%d..S%d]", iv.First+1, iv.Last+1)
}

// Mapping is an interval mapping with replication: Intervals[j] is
// executed by every processor in Alloc[j].
type Mapping struct {
	Intervals []Interval `json:"intervals"`
	Alloc     [][]int    `json:"alloc"`
}

// NewSingleInterval maps the whole pipeline of n stages as one interval
// replicated on procs. This is the shape Lemma 1 proves optimal on Fully
// Homogeneous and CommHom+FailureHom platforms.
func NewSingleInterval(n int, procs []int) *Mapping {
	return &Mapping{
		Intervals: []Interval{{First: 0, Last: n - 1}},
		Alloc:     [][]int{append([]int(nil), procs...)},
	}
}

// NumIntervals returns p, the number of intervals.
func (m *Mapping) NumIntervals() int { return len(m.Intervals) }

// Replication returns k_j = |alloc(j)| for interval j.
func (m *Mapping) Replication(j int) int { return len(m.Alloc[j]) }

// validateStackProcs is the widest platform Validate checks without
// allocating.
const validateStackProcs = 512

// Validate checks that the mapping is a legal interval mapping of an
// n-stage pipeline onto an mProcs-processor platform: the intervals
// partition [0, n) consecutively, every interval has at least one replica,
// and no processor appears twice (within or across intervals).
func (m *Mapping) Validate(n, mProcs int) error {
	if len(m.Intervals) == 0 {
		return fmt.Errorf("mapping: no intervals")
	}
	if len(m.Alloc) != len(m.Intervals) {
		return fmt.Errorf("mapping: %d intervals but %d alloc sets", len(m.Intervals), len(m.Alloc))
	}
	next := 0
	for j, iv := range m.Intervals {
		if iv.First != next {
			return fmt.Errorf("mapping: interval %d starts at stage %d, want %d", j, iv.First, next)
		}
		if iv.Last < iv.First {
			return fmt.Errorf("mapping: interval %d is empty (%d > %d)", j, iv.First, iv.Last)
		}
		next = iv.Last + 1
	}
	if next != n {
		return fmt.Errorf("mapping: intervals end at stage %d, want %d", next-1, n-1)
	}
	// One bitset of enrolled processors, on the stack up to
	// validateStackProcs processors: the public Evaluate path and
	// poly.IntervalLatencyBounds's m single-interval checks stay
	// allocation-free at any width they meet in practice.
	var stack [validateStackProcs / bitset.WordBits]uint64
	used := bitset.Set(stack[:])
	if mProcs > validateStackProcs {
		used = bitset.Make(mProcs)
	}
	for j, procs := range m.Alloc {
		if len(procs) == 0 {
			return fmt.Errorf("mapping: interval %d has no processors", j)
		}
		for _, u := range procs {
			if u < 0 || u >= mProcs {
				return fmt.Errorf("mapping: interval %d uses invalid processor %d (m=%d)", j, u, mProcs)
			}
			if used.Test(u) {
				return fmt.Errorf("mapping: processor %d assigned to more than one interval (or duplicated)", u)
			}
			used.Add(u)
		}
	}
	return nil
}

// UsedProcs returns the sorted set of all processors enrolled by the
// mapping.
func (m *Mapping) UsedProcs() []int {
	var all []int
	for _, procs := range m.Alloc {
		all = append(all, procs...)
	}
	sort.Ints(all)
	return all
}

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	cp := &Mapping{
		Intervals: append([]Interval(nil), m.Intervals...),
		Alloc:     make([][]int, len(m.Alloc)),
	}
	for j := range m.Alloc {
		cp.Alloc[j] = append([]int(nil), m.Alloc[j]...)
	}
	return cp
}

// String renders e.g. "[S1..S2]->{P1,P3} [S3]->{P2}" (1-based, paper
// style).
func (m *Mapping) String() string {
	var b strings.Builder
	for j, iv := range m.Intervals {
		if j > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(iv.String())
		b.WriteString("->{")
		for i, u := range m.Alloc[j] {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "P%d", u+1)
		}
		b.WriteByte('}')
	}
	return b.String()
}

// Metrics bundles the two objectives of the bi-criteria problem.
type Metrics struct {
	Latency     float64
	FailureProb float64
}

// Dominates reports Pareto dominance: a dominates b when a is no worse in
// both objectives and strictly better in at least one.
func (a Metrics) Dominates(b Metrics) bool {
	if a.Latency > b.Latency || a.FailureProb > b.FailureProb {
		return false
	}
	return a.Latency < b.Latency || a.FailureProb < b.FailureProb
}

// Evaluate computes both metrics for an interval mapping on any platform,
// dispatching to Eq. (1) on communication-homogeneous platforms and Eq. (2)
// otherwise.
func Evaluate(p *pipeline.Pipeline, pl *platform.Platform, m *Mapping) (Metrics, error) {
	lat, err := Latency(p, pl, m)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{Latency: lat, FailureProb: FailureProb(pl, m)}, nil
}

// Latency computes the worst-case latency of an interval mapping,
// selecting the applicable paper formula from the platform class.
func Latency(p *pipeline.Pipeline, pl *platform.Platform, m *Mapping) (float64, error) {
	if _, ok := pl.CommHomogeneous(); ok {
		return LatencyEq1(p, pl, m)
	}
	return LatencyEq2(p, pl, m)
}

// LatencyEq1 implements the paper's Equation (1), valid on Fully
// Homogeneous and Communication Homogeneous platforms (single bandwidth b):
//
//	T = Σ_{j=1..p} [ k_j·δ_{d_j−1}/b + (Σ_{i∈I_j} w_i) / min_{u∈alloc(j)} s_u ] + δ_n/b
//
// The k_j factor charges the incoming communication once per replica: in
// the worst case the replicas of the previous interval fail one after the
// other and the one-port model serializes the k_j re-sends.
func LatencyEq1(p *pipeline.Pipeline, pl *platform.Platform, m *Mapping) (float64, error) {
	b, ok := pl.CommHomogeneous()
	if !ok {
		return 0, fmt.Errorf("mapping: Eq. (1) requires a communication-homogeneous platform")
	}
	if err := m.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		return 0, err
	}
	total := 0.0
	for j, iv := range m.Intervals {
		kj := float64(len(m.Alloc[j]))
		total += kj * p.InputSize(iv.First) / b
		slowest := math.Inf(1)
		for _, u := range m.Alloc[j] {
			if pl.Speed[u] < slowest {
				slowest = pl.Speed[u]
			}
		}
		total += p.Work(iv.First, iv.Last) / slowest
	}
	total += p.OutputSize(p.NumStages()-1) / b
	return total, nil
}

// LatencyEq2 implements the paper's Equation (2) for Fully Heterogeneous
// platforms:
//
//	T = Σ_{u∈alloc(1)} δ_0/b_{in,u}
//	  + Σ_{j=1..p} max_{u∈alloc(j)} [ (Σ_{i∈I_j} w_i)/s_u + Σ_{v∈alloc(j+1)} δ_{e_j}/b_{u,v} ]
//
// with the convention alloc(p+1) = {out}, so the last interval's outgoing
// term is δ_n/b_{u,out}. On communication-homogeneous platforms Eq. (2)
// reduces to Eq. (1); tests rely on that identity.
func LatencyEq2(p *pipeline.Pipeline, pl *platform.Platform, m *Mapping) (float64, error) {
	if err := m.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		return 0, err
	}
	total := 0.0
	for _, u := range m.Alloc[0] {
		total += p.InputSize(m.Intervals[0].First) / pl.BIn[u]
	}
	for j, iv := range m.Intervals {
		work := p.Work(iv.First, iv.Last)
		out := p.OutputSize(iv.Last)
		worst := math.Inf(-1)
		for _, u := range m.Alloc[j] {
			term := work / pl.Speed[u]
			if j == len(m.Intervals)-1 {
				term += out / pl.BOut[u]
			} else {
				for _, v := range m.Alloc[j+1] {
					term += out / pl.B[u][v]
				}
			}
			if term > worst {
				worst = term
			}
		}
		total += worst
	}
	return total, nil
}

// FailureProb computes the global failure probability of the mapping,
// FP = 1 − Π_{j=1..p} (1 − Π_{u∈alloc(j)} fp_u), through the rule of
// bound.go (ReplicaFailure, AccumFailure). The application fails iff some interval loses
// all of its replicas.
func FailureProb(pl *platform.Platform, m *Mapping) float64 {
	fp := 0.0
	for _, procs := range m.Alloc {
		fp = AccumFailure(fp, ReplicaFailure(pl, procs))
	}
	return fp
}
