package heuristics

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/mapping"
	"repro/internal/platform"
	"repro/internal/workload"
)

// bannedSet builds a bitset over m processors with the given ids set.
func bannedSet(m int, ids ...int) bitset.Set {
	b := bitset.Make(m)
	for _, u := range ids {
		b.Add(u)
	}
	return b
}

// mappingUses reports whether mp assigns any banned processor.
func mappingUses(mp *mapping.Mapping, banned bitset.Set) bool {
	for _, procs := range mp.Alloc {
		for _, u := range procs {
			if banned.Test(u) {
				return true
			}
		}
	}
	return false
}

func TestRepairEvictsBannedReplicas(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 22}
	// Two intervals, banned processor in each alloc set.
	start := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0, 1}, {2, 3, 4}},
	}
	banned := bannedSet(pl.NumProcs(), 1, 3)
	res, err := Repair(context.Background(), pr, start, banned)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		t.Fatalf("repaired mapping invalid: %v", err)
	}
	if mappingUses(res.Mapping, banned) {
		t.Fatalf("repaired mapping still uses a banned processor: %v", res.Mapping)
	}
}

func TestRepairRestaffsEmptiedInterval(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 22}
	start := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {2, 3}},
	}
	// Interval 0 loses its only replica; free processors exist, so the
	// interval must survive (restaffed), not be merged away.
	banned := bannedSet(pl.NumProcs(), 0)
	res, err := Repair(context.Background(), pr, start, banned)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		t.Fatalf("repaired mapping invalid: %v", err)
	}
	if mappingUses(res.Mapping, banned) {
		t.Fatal("repaired mapping uses the banned processor")
	}
}

func TestRepairMergesWhenNoFreeProcessor(t *testing.T) {
	// 2 stages on 3 processors, all enrolled: banning interval 0's whole
	// replica set leaves no free processor, so the intervals must merge.
	p, pl := fig34()
	// fig34 has m=2; build a start using both.
	start := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Alloc:     [][]int{{0}, {1}},
	}
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 1e18}
	banned := bannedSet(pl.NumProcs(), 0)
	res, err := Repair(context.Background(), pr, start, banned)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		t.Fatalf("repaired mapping invalid: %v", err)
	}
	if got := res.Mapping.NumIntervals(); got != 1 {
		t.Errorf("expected merged single interval, got %d intervals", got)
	}
	if mappingUses(res.Mapping, banned) {
		t.Fatal("repaired mapping uses the banned processor")
	}
}

func TestRepairAllBanned(t *testing.T) {
	p, pl := fig34()
	start := mapping.NewSingleInterval(p.NumStages(), []int{0, 1})
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 1e18}
	banned := bannedSet(pl.NumProcs(), 0, 1)
	_, err := Repair(context.Background(), pr, start, banned)
	if !errors.Is(err, ErrNoAliveProcs) {
		t.Fatalf("expected ErrNoAliveProcs, got %v", err)
	}
}

// TestRepairClimbsBackToFeasibility: kill the replicas that kept FP under
// the bound and check the repair rounds re-replicate to restore it.
func TestRepairRestoresFeasibility(t *testing.T) {
	p, pl := fig5()
	pr := &Problem{Pipe: p, Plat: pl, Goal: MinFP, Bound: 22}
	g, err := Greedy(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	// Ban two processors of the greedy solution.
	var hit []int
	for _, procs := range g.Mapping.Alloc {
		for _, u := range procs {
			if len(hit) < 2 {
				hit = append(hit, u)
			}
		}
	}
	banned := bannedSet(pl.NumProcs(), hit...)
	res, err := Repair(context.Background(), pr, g.Mapping, banned)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.feasible(res.Metrics) {
		t.Errorf("repair left the mapping infeasible: %+v (bound %g)", res.Metrics, pr.Bound)
	}
	if mappingUses(res.Mapping, banned) {
		t.Fatal("repaired mapping uses a banned processor")
	}
}

// Repair must be a pure function of (problem, start, banned, budget).
func TestRepairDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inst := workload.Random(rng, platform.FullyHeterogeneous, 8, 20)
	pr := &Problem{Pipe: inst.Pipeline, Plat: inst.Platform, Goal: MinFP, Bound: 1e18}
	g, err := Greedy(context.Background(), pr)
	if err != nil {
		t.Fatal(err)
	}
	banned := bannedSet(20, g.Mapping.Alloc[0][0])
	a, err := Repair(context.Background(), pr, g.Mapping, banned)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Repair(context.Background(), pr, g.Mapping, banned)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("repair metrics differ across identical runs: %+v vs %+v", a.Metrics, b.Metrics)
	}
	if a.Mapping.String() != b.Mapping.String() {
		t.Fatalf("repair mappings differ across identical runs:\n%v\n%v", a.Mapping, b.Mapping)
	}
}
