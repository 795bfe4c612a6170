package mapping

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pipeline"
	"repro/internal/platform"
)

// fig34Pipeline and fig34Platform reproduce the paper's Figures 3 and 4:
// two stages with w=2 and all δ=100; two unit-speed processors where the
// chain P_in→P1→P2→P_out has bandwidth 100 and the shortcut links
// (P_in→P2, P1→P_out) have bandwidth 1.
func fig34Pipeline() *pipeline.Pipeline {
	return pipeline.MustNew([]float64{2, 2}, []float64{100, 100, 100})
}

func fig34Platform() *platform.Platform {
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 1},
		[]float64{0, 0},
		[][]float64{{0, 100}, {100, 0}},
		[]float64{100, 1},
		[]float64{1, 100},
	)
	if err != nil {
		panic(err)
	}
	return pl
}

// fig5Pipeline and fig5Platform reproduce the paper's Figure 5 example:
// w = {1, 100}, δ = {10, 1, 0}; one slow reliable processor (s=1, fp=0.1)
// and ten fast unreliable ones (s=100, fp=0.8); all bandwidths 1.
func fig5Pipeline() *pipeline.Pipeline {
	return pipeline.MustNew([]float64{1, 100}, []float64{10, 1, 0})
}

func fig5Platform() *platform.Platform {
	speeds := []float64{1}
	fps := []float64{0.1}
	for i := 0; i < 10; i++ {
		speeds = append(speeds, 100)
		fps = append(fps, 0.8)
	}
	pl, err := platform.NewCommHomogeneous(speeds, fps, 1)
	if err != nil {
		panic(err)
	}
	return pl
}

func TestValidate(t *testing.T) {
	good := &Mapping{
		Intervals: []Interval{{0, 1}, {2, 3}},
		Alloc:     [][]int{{0, 1}, {2}},
	}
	if err := good.Validate(4, 3); err != nil {
		t.Fatalf("valid mapping rejected: %v", err)
	}
	cases := []struct {
		name string
		m    *Mapping
	}{
		{"no intervals", &Mapping{}},
		{"alloc length mismatch", &Mapping{Intervals: []Interval{{0, 3}}, Alloc: nil}},
		{"gap", &Mapping{Intervals: []Interval{{0, 1}, {3, 3}}, Alloc: [][]int{{0}, {1}}}},
		{"overlap", &Mapping{Intervals: []Interval{{0, 2}, {2, 3}}, Alloc: [][]int{{0}, {1}}}},
		{"not starting at 0", &Mapping{Intervals: []Interval{{1, 3}}, Alloc: [][]int{{0}}}},
		{"not ending at n-1", &Mapping{Intervals: []Interval{{0, 2}}, Alloc: [][]int{{0}}}},
		{"empty interval", &Mapping{Intervals: []Interval{{0, 1}, {2, 1}}, Alloc: [][]int{{0}, {1}}}},
		{"empty alloc", &Mapping{Intervals: []Interval{{0, 3}}, Alloc: [][]int{{}}}},
		{"proc out of range", &Mapping{Intervals: []Interval{{0, 3}}, Alloc: [][]int{{3}}}},
		{"negative proc", &Mapping{Intervals: []Interval{{0, 3}}, Alloc: [][]int{{-1}}}},
		{"proc reused across intervals", &Mapping{Intervals: []Interval{{0, 1}, {2, 3}}, Alloc: [][]int{{0}, {0}}}},
		{"proc duplicated within interval", &Mapping{Intervals: []Interval{{0, 3}}, Alloc: [][]int{{0, 0}}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.m.Validate(4, 3); err == nil {
				t.Errorf("Validate accepted %s", c.name)
			}
		})
	}
}

// validateByMap is Validate's former check for m > 64: the processor
// disjointness test through a map, kept as the reference the bitset path
// must agree with.
func validateByMap(m *Mapping, n, mProcs int) error {
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
	used := make(map[int]bool, mProcs)
	for j, procs := range m.Alloc {
		if len(procs) == 0 {
			return fmt.Errorf("mapping: interval %d has no processors", j)
		}
		for _, u := range procs {
			if u < 0 || u >= mProcs {
				return fmt.Errorf("mapping: interval %d uses invalid processor %d (m=%d)", j, u, mProcs)
			}
			if used[u] {
				return fmt.Errorf("mapping: processor %d assigned to more than one interval (or duplicated)", u)
			}
			used[u] = true
		}
	}
	return nil
}

// TestValidateMatchesMapReference: the bitset Validate accepts and rejects
// exactly the mappings the map-based check did, with the same message, on
// both sides of every word boundary and past the stack-backed width.
// Mutations cover every rejection: duplicated and reused processors
// (near the word boundaries too), ids at -1 and m, empty alloc sets, and
// broken interval partitions.
func TestValidateMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 6
	for _, m := range []int{1, 63, 64, 65, 128, 300, 600} {
		accepted := 0
		for trial := 0; trial < 400; trial++ {
			mp := randomValidMapping(rng, n, m)
			switch trial % 8 {
			case 1: // reuse a processor, often one at a word boundary
				j := rng.Intn(len(mp.Alloc))
				u := mp.Alloc[rng.Intn(len(mp.Alloc))][0]
				mp.Alloc[j] = append(mp.Alloc[j], u)
			case 2: // an id just outside [0, m)
				j := rng.Intn(len(mp.Alloc))
				mp.Alloc[j][rng.Intn(len(mp.Alloc[j]))] = []int{-1, m}[rng.Intn(2)]
			case 3:
				mp.Alloc[rng.Intn(len(mp.Alloc))] = nil
			case 4:
				mp.Intervals[len(mp.Intervals)-1].Last--
			case 5: // an id near a word boundary, possibly a duplicate
				j := rng.Intn(len(mp.Alloc))
				mp.Alloc[j][0] = []int{0, 63, 64, 127, 128, m - 1}[rng.Intn(6)]
			}
			want := validateByMap(mp, n, m)
			got := mp.Validate(n, m)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("m=%d %v: Validate = %v, map reference = %v", m, mp, got, want)
			}
			if got == nil {
				accepted++
			}
		}
		if accepted == 0 {
			t.Errorf("m=%d: no trial produced a valid mapping", m)
		}
	}
}

// TestValidateZeroAllocs: Validate does not allocate up to the
// stack-backed width, here a 300-processor platform.
func TestValidateZeroAllocs(t *testing.T) {
	mp := &Mapping{
		Intervals: []Interval{{0, 2}, {3, 5}},
		Alloc:     [][]int{{0, 63, 64}, {128, 299}},
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := mp.Validate(6, 300); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate at m=300 allocates %.1f objects per call, want 0", allocs)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{First: 1, Last: 3}
	if iv.Len() != 3 {
		t.Errorf("Len = %d, want 3", iv.Len())
	}
	if iv.String() != "[S2..S4]" {
		t.Errorf("String = %q, want [S2..S4]", iv.String())
	}
	if (Interval{2, 2}).String() != "[S3]" {
		t.Errorf("singleton String = %q", Interval{2, 2}.String())
	}
}

func TestMappingStringAndClone(t *testing.T) {
	m := &Mapping{Intervals: []Interval{{0, 0}, {1, 1}}, Alloc: [][]int{{0}, {1, 2}}}
	if got := m.String(); got != "[S1]->{P1} [S2]->{P2,P3}" {
		t.Errorf("String = %q", got)
	}
	cp := m.Clone()
	cp.Alloc[0][0] = 9
	if m.Alloc[0][0] == 9 {
		t.Error("Clone shares alloc memory")
	}
	used := m.UsedProcs()
	if len(used) != 3 || used[0] != 0 || used[2] != 2 {
		t.Errorf("UsedProcs = %v", used)
	}
}

// TestFig34Latency reproduces the motivating example of Section 3: mapping
// both stages on one processor costs 105 while splitting costs 7.
func TestFig34Latency(t *testing.T) {
	p, pl := fig34Pipeline(), fig34Platform()

	single1 := NewSingleInterval(2, []int{0})
	lat, err := LatencyEq2(p, pl, single1)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 105 {
		t.Errorf("single interval on P1: latency = %g, want 105", lat)
	}

	single2 := NewSingleInterval(2, []int{1})
	lat, err = LatencyEq2(p, pl, single2)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 105 {
		t.Errorf("single interval on P2: latency = %g, want 105", lat)
	}

	split := &Mapping{
		Intervals: []Interval{{0, 0}, {1, 1}},
		Alloc:     [][]int{{0}, {1}},
	}
	lat, err = LatencyEq2(p, pl, split)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 7 {
		t.Errorf("split mapping: latency = %g, want 7", lat)
	}
}

// TestFig5Example reproduces the second motivating example: under latency
// threshold 22, the best single interval has FP 0.64 while the two-interval
// mapping reaches latency exactly 22 with FP < 0.2.
func TestFig5Example(t *testing.T) {
	p, pl := fig5Pipeline(), fig5Platform()

	// Two fast processors as a single interval: latency 21.01, FP 0.64.
	twoFast := NewSingleInterval(2, []int{1, 2})
	met, err := Evaluate(p, pl, twoFast)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(met.Latency-21.01) > 1e-9 {
		t.Errorf("two fast procs: latency = %g, want 21.01", met.Latency)
	}
	if math.Abs(met.FailureProb-0.64) > 1e-12 {
		t.Errorf("two fast procs: FP = %g, want 0.64", met.FailureProb)
	}

	// Three fast processors exceed the threshold (31.01 > 22).
	threeFast := NewSingleInterval(2, []int{1, 2, 3})
	met3, err := Evaluate(p, pl, threeFast)
	if err != nil {
		t.Fatal(err)
	}
	if met3.Latency <= 22 {
		t.Errorf("three fast procs: latency = %g, want > 22", met3.Latency)
	}

	// Slow stage on the reliable processor + 10-fold replication of the
	// fast stage: latency exactly 22, FP = 1 − 0.9·(1−0.8^10) < 0.2.
	split := &Mapping{
		Intervals: []Interval{{0, 0}, {1, 1}},
		Alloc:     [][]int{{0}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	metS, err := Evaluate(p, pl, split)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(metS.Latency-22) > 1e-9 {
		t.Errorf("split: latency = %g, want 22", metS.Latency)
	}
	wantFP := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	if math.Abs(metS.FailureProb-wantFP) > 1e-12 {
		t.Errorf("split: FP = %g, want %g", metS.FailureProb, wantFP)
	}
	if metS.FailureProb >= 0.2 {
		t.Errorf("split: FP = %g, want < 0.2", metS.FailureProb)
	}
}

func TestLatencyEq1HandComputed(t *testing.T) {
	// 3 stages w={4,2,6}, δ={8,2,4,10}; b=2; two intervals:
	// I1=[S1,S2] on {P0 (s=2), P1 (s=4)}  k=2
	// I2=[S3]    on {P2 (s=3)}            k=1
	// T = 2·8/2 + (4+2)/2 + 1·4/2 + 6/3 + 10/2 = 8 + 3 + 2 + 2 + 5 = 20.
	p := pipeline.MustNew([]float64{4, 2, 6}, []float64{8, 2, 4, 10})
	pl, err := platform.NewCommHomogeneous([]float64{2, 4, 3}, []float64{0.1, 0.1, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := &Mapping{Intervals: []Interval{{0, 1}, {2, 2}}, Alloc: [][]int{{0, 1}, {2}}}
	lat, err := LatencyEq1(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 20 {
		t.Errorf("latency = %g, want 20", lat)
	}
}

func TestLatencyEq1RequiresCommHom(t *testing.T) {
	p := fig34Pipeline()
	pl := fig34Platform()
	if _, err := LatencyEq1(p, pl, NewSingleInterval(2, []int{0})); err == nil {
		t.Error("Eq1 accepted a fully heterogeneous platform")
	}
}

func TestLatencyDispatch(t *testing.T) {
	p := fig5Pipeline()
	pl := fig5Platform()
	m := NewSingleInterval(2, []int{1, 2})
	via1, _ := LatencyEq1(p, pl, m)
	got, err := Latency(p, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	if got != via1 {
		t.Errorf("Latency dispatch = %g, want Eq1 value %g", got, via1)
	}

	pHet, plHet := fig34Pipeline(), fig34Platform()
	mHet := NewSingleInterval(2, []int{0})
	via2, _ := LatencyEq2(pHet, plHet, mHet)
	got, err = Latency(pHet, plHet, mHet)
	if err != nil {
		t.Fatal(err)
	}
	if got != via2 {
		t.Errorf("Latency dispatch = %g, want Eq2 value %g", got, via2)
	}
}

func TestLatencyValidatesMapping(t *testing.T) {
	p := fig5Pipeline()
	pl := fig5Platform()
	bad := &Mapping{Intervals: []Interval{{0, 0}}, Alloc: [][]int{{0}}} // misses stage 2
	if _, err := LatencyEq1(p, pl, bad); err == nil {
		t.Error("Eq1 accepted an invalid mapping")
	}
	if _, err := LatencyEq2(p, pl, bad); err == nil {
		t.Error("Eq2 accepted an invalid mapping")
	}
	if _, err := Evaluate(p, pl, bad); err == nil {
		t.Error("Evaluate accepted an invalid mapping")
	}
}

// Property: on communication-homogeneous platforms Eq. (2) reduces to
// Eq. (1) for every valid mapping.
func TestEq2ReducesToEq1OnCommHom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := n + rng.Intn(5)
		p := pipeline.Random(rng, n, 0.5, 10, 0.5, 10)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 10, 0, 1, 1+rng.Float64()*9)
		mp := randomMapping(rng, n, m)
		l1, err1 := LatencyEq1(p, pl, mp)
		l2, err2 := LatencyEq2(p, pl, mp)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(l1-l2) <= 1e-9*math.Max(1, math.Abs(l1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomMapping builds a random valid interval mapping of n stages onto m
// processors (m >= n is not required; m >= 1 interval count chosen to fit).
func randomMapping(rng *rand.Rand, n, m int) *Mapping {
	p := 1 + rng.Intn(minInt(n, m))
	// Random composition of n into p parts.
	cuts := rng.Perm(n - 1)[:p-1]
	bounds := append([]int{}, cuts...)
	sortInts(bounds)
	mp := &Mapping{}
	start := 0
	for j := 0; j < p; j++ {
		end := n - 1
		if j < p-1 {
			end = bounds[j]
		}
		mp.Intervals = append(mp.Intervals, Interval{First: start, Last: end})
		start = end + 1
	}
	procs := rng.Perm(m)
	// Distribute at least one processor per interval, the rest at random.
	alloc := make([][]int, p)
	for j := 0; j < p; j++ {
		alloc[j] = []int{procs[j]}
	}
	for _, u := range procs[p:] {
		if rng.Float64() < 0.5 {
			j := rng.Intn(p)
			alloc[j] = append(alloc[j], u)
		}
	}
	mp.Alloc = alloc
	return mp
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestFailureProbHandComputed(t *testing.T) {
	pl, _ := platform.NewCommHomogeneous([]float64{1, 1, 1}, []float64{0.5, 0.5, 0.2}, 1)
	// Single interval on all three: FP = 1 − (1 − 0.5·0.5·0.2) = 0.05.
	m := NewSingleInterval(1, []int{0, 1, 2})
	p := pipeline.Uniform(1, 1, 1)
	_ = p
	if got := FailureProb(pl, m); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("FP = %g, want 0.05", got)
	}
	// Two intervals {0,1} and {2}: FP = 1 − (1−0.25)(1−0.2) = 0.4.
	m2 := &Mapping{Intervals: []Interval{{0, 0}, {1, 1}}, Alloc: [][]int{{0, 1}, {2}}}
	if got := FailureProb(pl, m2); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("FP = %g, want 0.4", got)
	}
}

func TestFailureProbEdgeCases(t *testing.T) {
	pl, _ := platform.NewCommHomogeneous([]float64{1, 1}, []float64{0, 1}, 1)
	// A replica with fp=0 makes its interval perfectly reliable.
	m := NewSingleInterval(3, []int{0, 1})
	if got := FailureProb(pl, m); got != 0 {
		t.Errorf("FP with a perfect replica = %g, want 0", got)
	}
	// A single replica with fp=1 makes the mapping certainly fail.
	m2 := NewSingleInterval(3, []int{1})
	if got := FailureProb(pl, m2); got != 1 {
		t.Errorf("FP with only fp=1 = %g, want 1", got)
	}
	// A later sure failure reads 1 exactly too, whatever came before.
	pl3, _ := platform.NewCommHomogeneous([]float64{1, 1}, []float64{0.1, 1}, 1)
	m3 := &Mapping{Intervals: []Interval{{0, 0}, {1, 2}}, Alloc: [][]int{{0}, {1}}}
	if got := FailureProb(pl3, m3); got != 1 {
		t.Errorf("FP with a later fp=1 interval = %g, want 1", got)
	}
}

// Property: adding a replica to any interval never increases the failure
// probability (monotonicity of replication, the premise of Theorem 1).
func TestReplicationMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := n + 1 + rng.Intn(6)
		pl := platform.RandomCommHomogeneous(rng, m, 1, 2, 0, 1, 1)
		mp := randomMapping(rng, n, m)
		used := make(map[int]bool)
		for _, procs := range mp.Alloc {
			for _, u := range procs {
				used[u] = true
			}
		}
		var free []int
		for u := 0; u < m; u++ {
			if !used[u] {
				free = append(free, u)
			}
		}
		if len(free) == 0 {
			return true // nothing to add
		}
		before := FailureProb(pl, mp)
		j := rng.Intn(len(mp.Alloc))
		mp.Alloc[j] = append(mp.Alloc[j], free[rng.Intn(len(free))])
		after := FailureProb(pl, mp)
		return after <= before+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFailureProbExtreme: FP keeps its relative precision far below the
// ulp of 1, and a success probability that underflows still reads FP 1.
func TestFailureProbExtreme(t *testing.T) {
	m := 400
	speeds := make([]float64, m)
	half := make([]float64, m)
	unreliable := make([]float64, m)
	all := make([]int, m)
	for i := range speeds {
		speeds[i] = 1
		half[i] = 0.5
		unreliable[i] = 0.99
		all[i] = i
	}
	// One interval on 400 replicas of fp 0.5 fails with probability
	// 2⁻⁴⁰⁰ exactly (the old 1 − success formula read 0).
	pl, _ := platform.NewCommHomogeneous(speeds, half, 1)
	if got := FailureProb(pl, NewSingleInterval(1, all)); got != 0x1p-400 {
		t.Errorf("FP of 400 replicas at fp 0.5 = %g, want 2⁻⁴⁰⁰", got)
	}
	// 400 single-replica intervals at fp 0.99 succeed with probability
	// 0.01⁴⁰⁰, far below the smallest float: FP is 1.
	pl, _ = platform.NewCommHomogeneous(speeds, unreliable, 1)
	mp := &Mapping{}
	for j := 0; j < m; j++ {
		mp.Intervals = append(mp.Intervals, Interval{j, j})
		mp.Alloc = append(mp.Alloc, []int{j})
	}
	if fp := FailureProb(pl, mp); fp != 1 {
		t.Errorf("FP of 400 intervals at fp 0.99 = %g, want 1", fp)
	}
}

func TestMetricsDominates(t *testing.T) {
	a := Metrics{Latency: 1, FailureProb: 0.1}
	b := Metrics{Latency: 2, FailureProb: 0.2}
	if !a.Dominates(b) {
		t.Error("a should dominate b")
	}
	if b.Dominates(a) {
		t.Error("b should not dominate a")
	}
	if a.Dominates(a) {
		t.Error("a should not dominate itself")
	}
	c := Metrics{Latency: 0.5, FailureProb: 0.3}
	if a.Dominates(c) || c.Dominates(a) {
		t.Error("a and c are incomparable")
	}
	d := Metrics{Latency: 1, FailureProb: 0.05}
	if !d.Dominates(a) {
		t.Error("equal latency, lower FP should dominate")
	}
}

func TestNewSingleInterval(t *testing.T) {
	m := NewSingleInterval(5, []int{2, 0})
	if err := m.Validate(5, 3); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if m.NumIntervals() != 1 || m.Replication(0) != 2 {
		t.Errorf("unexpected shape: %v", m)
	}
}

func TestMappingJSONRoundTrip(t *testing.T) {
	m := &Mapping{
		Intervals: []Interval{{First: 0, Last: 1}, {First: 2, Last: 4}},
		Alloc:     [][]int{{3}, {0, 2}},
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var q Mapping
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.String() != m.String() {
		t.Errorf("round trip changed mapping: %s vs %s", q.String(), m.String())
	}
	if err := q.Validate(5, 4); err != nil {
		t.Errorf("round-tripped mapping invalid: %v", err)
	}
}

func TestGeneralMappingJSONRoundTrip(t *testing.T) {
	g := &GeneralMapping{ProcOf: []int{2, 0, 1}}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var q GeneralMapping
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.String() != g.String() {
		t.Errorf("round trip changed mapping: %s vs %s", q.String(), g.String())
	}
}
