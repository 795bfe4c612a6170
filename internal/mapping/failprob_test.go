package mapping

import (
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/platform"
)

// refFailureProb is the failure probability 1 − Π_j (1 − Π_{u∈alloc(j)} fp_u)
// in big.Float arithmetic, on the success side: the formula AccumFailure
// avoids. Its precision covers the smallest interval failure product, so
// the final subtraction keeps every significant bit the comparison needs.
func refFailureProb(fps []float64, alloc [][]int) *big.Float {
	qs := make([]*big.Float, len(alloc))
	prec := uint(64)
	for j, procs := range alloc {
		q := new(big.Float).SetPrec(uint(53*len(procs) + 64)).SetFloat64(1)
		for _, u := range procs {
			q.Mul(q, big.NewFloat(fps[u]))
		}
		qs[j] = q
		if q.Sign() > 0 {
			// 1 − q keeps q's bits once the precision spans 1 down to q's
			// last significant bit.
			if p := uint(-q.MantExp(nil)) + q.MinPrec() + 64; p > prec {
				prec = p
			}
		}
	}
	one := new(big.Float).SetPrec(prec).SetFloat64(1)
	success := new(big.Float).SetPrec(prec).SetFloat64(1)
	for _, q := range qs {
		success.Mul(success, new(big.Float).SetPrec(prec).Sub(one, q))
	}
	return new(big.Float).SetPrec(prec).Sub(one, success)
}

// drawFailProb draws a processor failure probability from the classes
// the FP rule must handle: 0, 1, subnormal, log-uniform in [1e-300, 1],
// and within 1e-16–1 of 1.
func drawFailProb(rng *rand.Rand) float64 {
	switch r := rng.Intn(16); {
	case r == 0:
		return 0
	case r == 1:
		return 1
	case r == 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case r < 5:
		return 1 - math.Pow(10, -16*rng.Float64())
	default:
		return math.Pow(10, -300*rng.Float64())
	}
}

// checkFailureProb scores the mapping through FailureProb, EvalW and a
// loaded EvalState, requires the three to agree bitwise, and holds them to
// the big.Float reference within the rounding error of the operations
// they perform: a few ulps relative per replica and per interval, plus
// a few subnormal steps absolute where products underflow. It returns the
// reference as a float64.
func checkFailureProb(t *testing.T, p *pipeline.Pipeline, pl *platform.Platform, mp *Mapping) float64 {
	t.Helper()
	ev, err := NewEvaluator(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	fp := FailureProb(pl, mp)
	ends, words := BoundaryRepWide(mp, ev.Stride())
	fpW := ev.EvalW(ends, words).FailureProb
	st := ev.NewState()
	st.Load(mp)
	fpSt := st.FailureProb()
	if math.Float64bits(fp) != math.Float64bits(fpW) || math.Float64bits(fp) != math.Float64bits(fpSt) {
		t.Fatalf("%v: FailureProb %v, EvalW %v, EvalState %v: want equal bits", mp, fp, fpW, fpSt)
	}
	ref := refFailureProb(pl.FailProb, mp.Alloc)
	ops := len(mp.Alloc)
	for _, procs := range mp.Alloc {
		ops += len(procs)
	}
	tol := new(big.Float).Mul(ref, big.NewFloat(float64(3*ops)*0x1p-53))
	tol.Add(tol, big.NewFloat(float64(ops)*math.SmallestNonzeroFloat64))
	diff := new(big.Float).Sub(big.NewFloat(fp), ref)
	if diff.Abs(diff).Cmp(tol) > 0 {
		t.Fatalf("%v: FP %v, reference %v: off by %v, more than %v", mp, fp, ref, diff, tol)
	}
	r, _ := ref.Float64()
	return r
}

// randomFPInstance draws an n-stage pipeline and an m-processor platform
// whose failure probabilities come from drawFailProb, and a random
// mapping on it with ascending replica ids.
func randomFPInstance(rng *rand.Rand, n, m int) (*pipeline.Pipeline, *platform.Platform, *Mapping) {
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	speeds := make([]float64, m)
	fps := make([]float64, m)
	for u := range speeds {
		speeds[u] = 1 + float64(rng.Intn(9))
		fps[u] = drawFailProb(rng)
	}
	pl, err := platform.NewCommHomogeneous(speeds, fps, 1+float64(rng.Intn(4)))
	if err != nil {
		panic(err)
	}
	mp := randomMapping(rng, n, m)
	for _, procs := range mp.Alloc {
		sort.Ints(procs)
	}
	return p, pl, mp
}

// TestFailureProbMatchesBigReference holds every evaluator's FP to the
// big.Float reference over random mappings whose FPs span 1 down to
// below 1e-300.
func TestFailureProbMatchesBigReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tiny := 0
	for i := 0; i < 3000; i++ {
		n := 1 + rng.Intn(6)
		p, pl, mp := randomFPInstance(rng, n, n+rng.Intn(8))
		if ref := checkFailureProb(t, p, pl, mp); ref > 0 && ref < 1e-250 {
			tiny++
		}
	}
	if tiny < 100 {
		t.Errorf("only %d mappings with 0 < FP < 1e-250, want ≥ 100", tiny)
	}
}

// FuzzFailureProb is TestFailureProbMatchesBigReference under the fuzzer:
// the seed draws the instance, n and m its shape.
func FuzzFailureProb(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7))
	f.Add(int64(2), uint8(1), uint8(12))
	f.Add(int64(3), uint8(6), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8) {
		nn := 1 + int(n%8)
		mm := nn + int(m%12)
		p, pl, mp := randomFPInstance(rand.New(rand.NewSource(seed)), nn, mm)
		checkFailureProb(t, p, pl, mp)
	})
}
