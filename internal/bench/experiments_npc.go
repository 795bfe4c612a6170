package bench

import (
	"fmt"
	"math/rand"

	"repro/internal/npc"
)

// E5TSPReduction validates Theorem 3's reduction on random TSP instances:
// the one-to-one mapping decision always agrees with the Hamiltonian-path
// decision, and the optimal values satisfy latency = path + n + 2.
func E5TSPReduction() *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Theorem 3: TSP -> one-to-one latency reduction (decision equivalence)",
		Header: []string{"|V|", "K", "opt path", "opt latency", "TSP yes", "mapping yes", "equivalent"},
	}
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(3)
		cost := make([][]float64, n)
		for u := range cost {
			cost[u] = make([]float64, n)
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				c := float64(1 + rng.Intn(9))
				cost[u][v], cost[v][u] = c, c
			}
		}
		s := rng.Intn(n)
		tail := (s + 1 + rng.Intn(n-1)) % n
		ti := &npc.TSPInstance{Cost: cost, S: s, T: tail}
		k := float64(n-1) * 3 // a threshold near typical path costs
		v, err := npc.VerifyTSPReduction(ti, k)
		if err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprint(n), f(k), f(v.OptimalPath), f(v.OptimalLatency),
			fmt.Sprint(v.TSPYes), fmt.Sprint(v.MappingYes), fmt.Sprint(v.Equivalent()))
	}
	t.AddNote("value identity: optimal latency = optimal path + n + 2 whenever feasible")
	return t
}

// E9PartitionReduction validates Theorem 7's reduction on random
// 2-PARTITION instances: the bi-criteria mapping decision always agrees
// with the subset-sum decision.
func E9PartitionReduction() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Theorem 7: 2-PARTITION -> bi-criteria decision reduction (equivalence)",
		Header: []string{"m", "sum", "partition yes", "mapping yes", "equivalent"},
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		m := 3 + rng.Intn(8)
		a := make([]int, m)
		for i := range a {
			a[i] = 1 + rng.Intn(12)
		}
		pi := &npc.PartitionInstance{A: a}
		v, err := npc.VerifyPartitionReduction(pi)
		if err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprint(m), fmt.Sprint(pi.Sum()),
			fmt.Sprint(v.PartitionYes), fmt.Sprint(v.MappingYes), fmt.Sprint(v.Equivalent()))
	}
	t.AddNote("the FP side is decided by a relative test: the FP threshold e^{-S/2} is far below the ulp of 1")
	return t
}
