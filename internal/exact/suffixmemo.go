package exact

import (
	"math"
	"sync/atomic"

	"repro/internal/pipeline"
	"repro/internal/platform"
)

// SuffixMemo is a bounded cache of exactly-solved sub-instances of the
// communication-homogeneous latency recursion, consulted by the
// branch-and-bound tail in place of the generic TailLatencyLB. A
// sub-instance is keyed by (first remaining stage, canonical
// free-processor multiset): processors are folded into speed classes —
// the attribute folding internal/canon applies to whole platforms —
// because Eq. (1) costs depend on a replica only through its speed, so
// every free set with the same per-class counts has the same optimal
// completion latency. The canonical key is a mixed-radix integer
// (one digit per class, the count of free processors of that class),
// which the searches maintain incrementally: choosing replica set S moves
// the key by Σ_{u∈S} weight(class(u)), one subtraction per replica.
//
// Each table slot holds the exact minimum Eq. (1) latency of completing
// stages [start, n) — input transfers, computation on one replica per
// interval, final output — using only the free multiset, or +Inf when the
// free processors cannot cover the remaining stages. Values are filled
// lazily on first lookup (the solve's reachable states only) and kept
// across solves, so warm-session traffic against the same instance reuses
// them; concurrent fills are benign because the value is a pure function
// of the key (racing workers store identical bits).
//
// Soundness as a pruning bound (the invariant the equivalence tests
// enforce): the memo value is computed without replication, and
// replication can only increase Eq. (1) latency (k·δ/b grows with k, the
// slowest replica is no faster than the fastest); picking each interval's
// fastest replica maps any replicated completion onto a no-replication
// completion over a sub-multiset of the free set, whose cost the memo
// minimum lower-bounds. The memo therefore sharpens TailLatencyLB — it
// can never fall below it — while remaining a true lower bound for every
// solver, including the replicated FP searches. Pruning against it stays
// strict (the shared latencyTol margin dwarfs float accumulation noise),
// so solver outputs are bit-for-bit those of the memo-less engine.
type SuffixMemo struct {
	n, m int
	b    float64 // the single bandwidth (comm-hom)
	pipe *pipeline.Pipeline

	speeds []float64 // class -> speed
	counts []int     // class -> number of processors in the class
	radix  []int64   // class -> mixed-radix weight of one processor
	weight []int64   // processor -> radix of its class

	states  int64 // Π (counts[c]+1): multiset keys per stage
	fullIdx int64 // key of the all-processors-free multiset
	outTerm float64

	// table[start*states+idx] holds the Float64bits of the suffix value,
	// or suffixUnset while the slot is still empty.
	table []atomic.Uint64
}

// suffixUnset marks an unfilled slot. The bit pattern is a quiet NaN no
// suffix computation produces (values are non-negative or +Inf).
const suffixUnset = ^uint64(0)

// DefaultSuffixMemoEntries caps the table size (entries, 8 bytes each):
// platforms whose speed-class structure would need a larger table get no
// memo and fall back to TailLatencyLB. The cap keeps a warm session's
// footprint small enough for serve-tier session caches.
const DefaultSuffixMemoEntries = 1 << 18

// NewSuffixMemo builds the memo for one instance, or returns nil when the
// platform is not communication homogeneous (Eq. (2) costs depend on
// identity, not class) or the folded state space exceeds maxEntries
// (≤ 0 selects DefaultSuffixMemoEntries). A nil *SuffixMemo is a valid
// "no memo" value everywhere.
func NewSuffixMemo(p *pipeline.Pipeline, pl *platform.Platform, maxEntries int) *SuffixMemo {
	b, ok := pl.CommHomogeneous()
	if !ok {
		return nil
	}
	if maxEntries <= 0 {
		maxEntries = DefaultSuffixMemoEntries
	}
	n, m := p.NumStages(), pl.NumProcs()
	sm := &SuffixMemo{n: n, m: m, b: b, pipe: p, weight: make([]int64, m)}
	classOf := make([]int, m)
	for u := 0; u < m; u++ {
		c := -1
		for i, s := range sm.speeds {
			if s == pl.Speed[u] {
				c = i
				break
			}
		}
		if c < 0 {
			c = len(sm.speeds)
			sm.speeds = append(sm.speeds, pl.Speed[u])
			sm.counts = append(sm.counts, 0)
		}
		classOf[u] = c
		sm.counts[c]++
	}
	sm.states = 1
	for _, cnt := range sm.counts {
		sm.states *= int64(cnt + 1)
		if sm.states > int64(maxEntries) {
			return nil
		}
	}
	if int64(n)*sm.states > int64(maxEntries) {
		return nil
	}
	sm.radix = make([]int64, len(sm.counts))
	w := int64(1)
	for c, cnt := range sm.counts {
		sm.radix[c] = w
		sm.fullIdx += int64(cnt) * w
		w *= int64(cnt + 1)
	}
	for u := 0; u < m; u++ {
		sm.weight[u] = sm.radix[classOf[u]]
	}
	sm.outTerm = p.Delta[n] / sm.b
	sm.table = make([]atomic.Uint64, int64(n)*sm.states)
	for i := range sm.table {
		sm.table[i].Store(suffixUnset)
	}
	return sm
}

// FullIdx returns the canonical key of the all-free multiset, the root of
// a search's incremental key maintenance.
func (sm *SuffixMemo) FullIdx() int64 { return sm.fullIdx }

// Weight returns the key delta of enrolling processor u.
func (sm *SuffixMemo) Weight(u int) int64 { return sm.weight[u] }

// Entries reports the table capacity (for gating and telemetry).
func (sm *SuffixMemo) Entries() int { return len(sm.table) }

// Lookup returns the exact minimum completion latency of stages
// [start, n) over the free multiset idx (+Inf when the free processors
// cannot cover them), filling the slot — and, transitively, the child
// slots the recursion touches — on first use. Lookup is safe for
// concurrent use and performs no heap allocation.
func (sm *SuffixMemo) Lookup(start int, idx int64) float64 {
	if start >= sm.n {
		return sm.outTerm
	}
	slot := &sm.table[int64(start)*sm.states+idx]
	if bits := slot.Load(); bits != suffixUnset {
		return math.Float64frombits(bits)
	}
	v := sm.compute(start, idx)
	slot.Store(math.Float64bits(v))
	return v
}

// compute solves the sub-instance: choose the next interval's end and the
// speed class of its single replica, recursing on the remainder.
func (sm *SuffixMemo) compute(start int, idx int64) float64 {
	best := math.Inf(1)
	in := sm.pipe.Delta[start] / sm.b
	for c, r := range sm.radix {
		if (idx/r)%int64(sm.counts[c]+1) == 0 {
			continue // no free processor of this class
		}
		child := idx - r
		speed := sm.speeds[c]
		for end := start; end < sm.n; end++ {
			tail := sm.outTerm
			if end < sm.n-1 {
				tail = sm.Lookup(end+1, child)
				if math.IsInf(tail, 1) {
					continue
				}
			}
			if t := in + sm.pipe.Work(start, end)/speed + tail; t < best {
				best = t
			}
		}
	}
	return best
}
