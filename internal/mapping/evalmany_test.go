package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// These tests pin the bitwise contract documented at the top of
// evalmany.go: every Sibling field must equal — bit for bit, not within a
// tolerance — what the engine's incremental push/complete pair derives
// from the single-candidate Evaluator methods for the same singleton
// extension. Composed references below replay exactly those methods, the
// uint64 kernels and their *W twins, in exactly the engine's association
// order.

// singletonPrefix is a randomly grown partial mapping of singleton
// intervals whose accumulators are maintained with the single-candidate
// methods precisely as searchWide.push does.
type singletonPrefix struct {
	pre   BatchPrefix
	start int // first unassigned stage
	free  bitset.Set
}

// singleton returns {u} as a replica set of the evaluator's stride.
func singleton(e *Evaluator, u int) bitset.Set {
	s := bitset.Make(e.NumProcs())
	s.Add(u)
	return s
}

// growPrefix assigns `depth` singleton intervals over stages of p,
// reproducing push's latency/failure recurrences for commHom or het
// platforms.
func growPrefix(rng *rand.Rand, e *Evaluator, depth int) singletonPrefix {
	n, m := e.NumStages(), e.NumProcs()
	sp := singletonPrefix{free: bitset.Make(m)}
	sp.free.Fill(m)
	prevFirst, prevLast, prevProc := 0, -1, 0
	for d := 0; d < depth && sp.start < n-1 && sp.free.Count() > 1; d++ {
		first := sp.start
		last := first + rng.Intn(n-1-first) // keep at least one stage free
		var u int
		for {
			u = rng.Intn(m)
			if sp.free.Test(u) {
				break
			}
		}
		mask := singleton(e, u)
		sp.pre.Fail = AccumFailure(sp.pre.Fail, e.FailureFactorW(mask))
		if e.CommHom() {
			commIn, compute := e.IntervalEq1CostW(first, last, mask)
			lat := sp.pre.Lat + commIn
			lat += compute
			sp.pre.Lat = lat
		} else {
			if d == 0 {
				sp.pre.Lat = e.InputSumW(mask)
			} else {
				sp.pre.Lat += e.IntervalEq2TermW(prevFirst, prevLast, singleton(e, prevProc), mask)
			}
		}
		prevFirst, prevLast, prevProc = first, last, u
		sp.pre.Depth = d + 1
		sp.free.Remove(u)
		sp.start = last + 1
	}
	sp.pre.PrevFirst, sp.pre.PrevLast, sp.pre.PrevProc = prevFirst, prevLast, prevProc
	return sp
}

// composedSibling replays the single-candidate push (and, on the final
// stage, complete) arithmetic through the uint64 kernels for the prefix
// extended by [first, last] on {u}; it needs u < 64.
func composedSibling(e *Evaluator, sp singletonPrefix, first, last, u int) Sibling {
	mask := uint64(1) << uint(u)
	sb := Sibling{Proc: u, Fail: AccumFailure(sp.pre.Fail, e.FailureFactor(mask))}
	if e.CommHom() {
		commIn, compute := e.IntervalEq1Cost(first, last, mask)
		lat := sp.pre.Lat + commIn
		lat += compute
		sb.Lat = lat
		sb.LB = lat
		if last == e.NumStages()-1 {
			sb.Final = lat + e.TailLatencyLB(e.NumStages())
		}
	} else {
		var lat float64
		if sp.pre.Depth == 0 {
			lat = e.InputSum(mask)
		} else {
			prevMask := uint64(1) << uint(sp.pre.PrevProc)
			lat = sp.pre.Lat + e.IntervalEq2Term(sp.pre.PrevFirst, sp.pre.PrevLast, prevMask, mask)
		}
		sb.Lat = lat
		sb.LB = lat + e.IntervalComputeLB(first, last, mask)
		if last == e.NumStages()-1 {
			sb.Final = lat + e.IntervalEq2FinalTerm(first, last, mask)
		}
	}
	return sb
}

// composedSiblingW is composedSibling through the *W kernels, for any u.
func composedSiblingW(e *Evaluator, sp singletonPrefix, first, last, u int) Sibling {
	mask := singleton(e, u)
	sb := Sibling{Proc: u, Fail: AccumFailure(sp.pre.Fail, e.FailureFactorW(mask))}
	if e.CommHom() {
		commIn, compute := e.IntervalEq1CostW(first, last, mask)
		lat := sp.pre.Lat + commIn
		lat += compute
		sb.Lat = lat
		sb.LB = lat
		if last == e.NumStages()-1 {
			sb.Final = lat + e.TailLatencyLB(e.NumStages())
		}
	} else {
		var lat float64
		if sp.pre.Depth == 0 {
			lat = e.InputSumW(mask)
		} else {
			lat = sp.pre.Lat + e.IntervalEq2TermW(sp.pre.PrevFirst, sp.pre.PrevLast, singleton(e, sp.pre.PrevProc), mask)
		}
		sb.Lat = lat
		sb.LB = lat + e.IntervalComputeLBW(first, last, mask)
		if last == e.NumStages()-1 {
			sb.Final = lat + e.IntervalEq2FinalTermW(first, last, mask)
		}
	}
	return sb
}

func checkSibling(t *testing.T, label string, got, want Sibling) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: sibling %+v, composed single-candidate reference %+v", label, got, want)
	}
}

// checkBatch scores every window [start, last] of the prefix with
// EvaluateManyW and holds each sibling, in ascending processor order, to
// the composed reference.
func checkBatch(t *testing.T, label string, e *Evaluator, sp singletonPrefix, out []Sibling,
	ref func(e *Evaluator, sp singletonPrefix, first, last, u int) Sibling) {
	t.Helper()
	for last := sp.start; last < e.NumStages(); last++ {
		nb := e.EvaluateManyW(sp.pre, sp.start, last, sp.free, out)
		if nb != sp.free.Count() {
			t.Fatalf("%s: wrote %d siblings for %d free processors", label, nb, sp.free.Count())
		}
		prev := -1
		for i := 0; i < nb; i++ {
			if out[i].Proc <= prev {
				t.Fatalf("%s: siblings out of ascending processor order", label)
			}
			prev = out[i].Proc
			checkSibling(t, label, out[i], ref(e, sp, sp.start, last, out[i].Proc))
		}
	}
}

// TestEvaluateManyMatchesSingleCandidate: at stride 1 the batch results
// must equal the composed uint64-kernel arithmetic — the kernels the
// engine's replication search pushes with — bitwise, across platforms,
// depths and stage windows.
func TestEvaluateManyMatchesSingleCandidate(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 2 + rng.Intn(6)
		p := pipeline.Random(rng, n, 1, 10, 0, 10)
		for _, pl := range []*platform.Platform{
			platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*4),
			platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20),
		} {
			e, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]Sibling, m)
			for depth := 0; depth <= 2; depth++ {
				checkBatch(t, fmt.Sprintf("seed %d depth %d", seed, depth), e, growPrefix(rng, e, depth), out, composedSibling)
			}
		}
	}
}

// TestEvaluateManyWMatchesSingleCandidateW: the batch results must equal
// the composed *W single-candidate arithmetic bitwise at stride 1
// (m = 20, 64) and over multi-word free sets (m = 80, 130).
func TestEvaluateManyWMatchesSingleCandidateW(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4
	p := pipeline.Random(rng, n, 1, 10, 0, 10)
	for _, m := range []int{20, 64, 80, 130} {
		for _, pl := range []*platform.Platform{
			platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 2),
			platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20),
		} {
			e, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]Sibling, m)
			for depth := 0; depth <= 2; depth++ {
				checkBatch(t, fmt.Sprintf("m=%d depth %d", m, depth), e, growPrefix(rng, e, depth), out, composedSiblingW)
			}
			// A ragged free set spanning every word, behind a predecessor
			// past bit 64 where the width allows it.
			sp := singletonPrefix{free: bitset.Make(m), start: 1}
			for u := 0; u < m; u++ {
				if u%3 != 1 {
					sp.free.Add(u)
				}
			}
			sp.pre = BatchPrefix{Depth: 1, Lat: 3.25, Fail: 0.25, PrevProc: m - 2}
			checkBatch(t, fmt.Sprintf("m=%d ragged", m), e, sp, out, composedSiblingW)
		}
	}
}

// TestEvaluateManyZeroAllocs: the batch evaluator must stay off the heap
// at stride 1 and over multi-word sets — it runs once per search node.
func TestEvaluateManyZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 5
	p := pipeline.Random(rng, n, 1, 10, 0, 10)
	pre := BatchPrefix{Depth: 1, Lat: 1, PrevLast: 0, PrevProc: 2}
	for _, pl := range []*platform.Platform{
		platform.RandomCommHomogeneous(rng, 16, 1, 10, 0.05, 0.95, 2),
		platform.RandomFullyHeterogeneous(rng, 80, 1, 10, 0.05, 0.95, 1, 20),
	} {
		e, err := NewEvaluator(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		m := pl.NumProcs()
		out := make([]Sibling, m)
		fs := bitset.Make(m)
		fs.Fill(m)
		if allocs := testing.AllocsPerRun(100, func() {
			e.EvaluateManyW(pre, 1, n-1, fs, out)
		}); allocs != 0 {
			t.Fatalf("m=%d: EvaluateManyW allocates %.1f times per call", m, allocs)
		}
	}
}
