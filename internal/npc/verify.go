package npc

import (
	"fmt"
	"math"

	"repro/internal/exact"
	"repro/internal/mapping"
)

// tol absorbs float accumulation when comparing against thresholds that
// sit exactly on achievable values (the reductions are built that way).
const tol = 1e-9

// TSPVerification reports both sides of the Theorem 3 equivalence on one
// instance: whether the TSP decision is yes, whether the mapping decision
// is yes, and the two optimal values.
type TSPVerification struct {
	TSPYes         bool
	MappingYes     bool
	OptimalPath    float64 // optimal S→T Hamiltonian path cost
	OptimalLatency float64 // optimal one-to-one latency on the gadget
}

// Equivalent reports whether the two decisions agree, which Theorem 3
// guarantees for every instance.
func (v TSPVerification) Equivalent() bool { return v.TSPYes == v.MappingYes }

// VerifyTSPReduction solves both sides of the Theorem 3 reduction exactly
// (Held–Karp for the TSP, permutation enumeration for the one-to-one
// mapping) and reports the decisions. The instance must be small enough
// for both oracles (|V| ≤ 9 is comfortable).
func VerifyTSPReduction(ti *TSPInstance, k float64) (TSPVerification, error) {
	pathCost, _, err := SolveTSP(ti)
	if err != nil {
		return TSPVerification{}, err
	}
	p, pl, kPrime, err := ReduceTSP(ti, k)
	if err != nil {
		return TSPVerification{}, err
	}
	oto, err := exact.MinLatencyOneToOne(p, pl)
	if err != nil {
		return TSPVerification{}, err
	}
	return TSPVerification{
		TSPYes:         pathCost <= k+tol,
		MappingYes:     oto.Latency <= kPrime+tol,
		OptimalPath:    pathCost,
		OptimalLatency: oto.Latency,
	}, nil
}

// PartitionVerification reports both sides of the Theorem 7 equivalence.
type PartitionVerification struct {
	PartitionYes bool
	MappingYes   bool
	// BestSubsetSum is the subset sum closest to S/2 from below or equal,
	// as found by the mapping-side search (for diagnostics).
	BestSubsetSum float64
}

// Equivalent reports whether the two decisions agree, which Theorem 7
// guarantees for every instance.
func (v PartitionVerification) Equivalent() bool { return v.PartitionYes == v.MappingYes }

// MaxPartitionVerify bounds the subset enumeration of the mapping-side
// decision procedure.
const MaxPartitionVerify = 22

// VerifyPartitionReduction solves both sides of the Theorem 7 reduction:
// the subset-sum DP decides 2-PARTITION, and exhaustive subset enumeration
// over the gadget platform — evaluated with the repository's Eq. (2) and
// failure-probability implementations — decides the bi-criteria mapping
// problem.
func VerifyPartitionReduction(pi *PartitionInstance) (PartitionVerification, error) {
	if len(pi.A) > MaxPartitionVerify {
		return PartitionVerification{}, fmt.Errorf("npc: instance with m=%d exceeds verification limit %d", len(pi.A), MaxPartitionVerify)
	}
	_, partYes, err := SolvePartition(pi)
	if err != nil {
		return PartitionVerification{}, err
	}
	inst, err := ReducePartition(pi)
	if err != nil {
		return PartitionVerification{}, err
	}
	m := len(pi.A)
	mappingYes := false
	bestSum := math.Inf(-1)
	for mask := 1; mask < 1<<m; mask++ {
		var procs []int
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				procs = append(procs, j)
			}
		}
		mp := mapping.NewSingleInterval(1, procs)
		lat, err := mapping.Latency(inst.Pipeline, inst.Platform, mp)
		if err != nil {
			return PartitionVerification{}, err
		}
		latOK := lat <= inst.MaxLatency+tol
		// The FP threshold e^{−S/2} can be astronomically small, so the
		// comparison must be relative; mapping.FailureProb keeps the
		// relative precision of such a value.
		fp := mapping.FailureProb(inst.Platform, mp)
		fpOK := fp <= inst.MaxFailProb*(1+tol)
		if latOK {
			if s := lat - 2; s > bestSum {
				bestSum = s
			}
		}
		if latOK && fpOK {
			mappingYes = true
		}
	}
	return PartitionVerification{
		PartitionYes:  partYes,
		MappingYes:    mappingYes,
		BestSubsetSum: bestSum,
	}, nil
}
