package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile computes the reference percentile by sorting: the
// ceil(q·n)-th smallest observation.
func exactQuantile(values []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), values...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// checkQuantiles asserts the sketch's quantiles land within the
// log-linear bucket guarantee (≤ 12.5% relative width, interpolation
// tightens it further; allow 15% headroom for rank-vs-interpolation
// off-by-half effects).
func checkQuantiles(t *testing.T, name string, values []time.Duration) {
	t.Helper()
	var s Sketch
	for _, v := range values {
		s.Observe(v)
	}
	if got := s.Count(); got != int64(len(values)) {
		t.Fatalf("%s: count = %d, want %d", name, got, len(values))
	}
	for _, q := range []float64{0.50, 0.90, 0.95, 0.99} {
		want := exactQuantile(values, q)
		got := s.Quantile(q)
		if want == 0 {
			if got > time.Microsecond {
				t.Errorf("%s: q%.0f = %v, want ~0", name, q*100, got)
			}
			continue
		}
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.15 {
			t.Errorf("%s: q%.2f = %v, exact %v (relative error %.1f%% > 15%%)",
				name, q, got, want, rel*100)
		}
	}
}

func TestSketchQuantileUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := make([]time.Duration, 20000)
	for i := range values {
		values[i] = time.Duration(rng.Int63n(int64(100 * time.Millisecond)))
	}
	checkQuantiles(t, "uniform", values)
}

func TestSketchQuantileBimodal(t *testing.T) {
	// Fast mode around 200µs, slow exact-route-like mode around 80ms —
	// the shape the adaptive router actually sees.
	rng := rand.New(rand.NewSource(2))
	values := make([]time.Duration, 20000)
	for i := range values {
		if rng.Intn(10) < 7 {
			values[i] = 200*time.Microsecond + time.Duration(rng.Int63n(int64(50*time.Microsecond)))
		} else {
			values[i] = 80*time.Millisecond + time.Duration(rng.Int63n(int64(20*time.Millisecond)))
		}
	}
	checkQuantiles(t, "bimodal", values)
}

func TestSketchQuantileHeavyTail(t *testing.T) {
	// Pareto-ish tail: x = scale / u^(1/alpha) with alpha 1.2 spans
	// microseconds to tens of seconds.
	rng := rand.New(rand.NewSource(3))
	values := make([]time.Duration, 20000)
	for i := range values {
		u := rng.Float64()
		if u < 1e-6 {
			u = 1e-6
		}
		x := 50e3 / math.Pow(u, 1/1.2) // ns
		if x > 50e9 {
			x = 50e9
		}
		values[i] = time.Duration(x)
	}
	checkQuantiles(t, "heavy-tail", values)
}

func TestSketchQuantileEdgeCases(t *testing.T) {
	var s Sketch
	if got := s.Quantile(0.95); got != 0 {
		t.Fatalf("empty sketch quantile = %v, want 0", got)
	}
	s.Observe(7 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 1} {
		got := s.Quantile(q)
		rel := math.Abs(float64(got-7*time.Millisecond)) / float64(7*time.Millisecond)
		if rel > 0.15 {
			t.Errorf("single-sample q%v = %v, want ≈7ms", q, got)
		}
	}
	s.Observe(-time.Second) // negative clamps to zero, must not panic
	if got := s.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

// TestSketchMergeAssociativity: bucket-wise addition is exact, so
// (a⊕b)⊕c and a⊕(b⊕c) agree bucket-for-bucket and quantile-for-quantile.
func TestSketchMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	parts := make([][]time.Duration, 3)
	for p := range parts {
		parts[p] = make([]time.Duration, 3000)
		for i := range parts[p] {
			parts[p][i] = time.Duration(rng.Int63n(int64(time.Second)))
		}
	}
	fill := func(values []time.Duration) *Sketch {
		s := &Sketch{}
		for _, v := range values {
			s.Observe(v)
		}
		return s
	}

	left := fill(parts[0]) // (a ⊕ b) ⊕ c
	left.Merge(fill(parts[1]))
	left.Merge(fill(parts[2]))

	bc := fill(parts[1]) // a ⊕ (b ⊕ c)
	bc.Merge(fill(parts[2]))
	right := fill(parts[0])
	right.Merge(bc)

	all := fill(append(append(append([]time.Duration(nil), parts[0]...), parts[1]...), parts[2]...))

	for i := 0; i < sketchBuckets; i++ {
		l, r, a := left.counts[i].Load(), right.counts[i].Load(), all.counts[i].Load()
		if l != r || l != a {
			t.Fatalf("bucket %d: left %d right %d direct %d", i, l, r, a)
		}
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if l, r := left.Quantile(q), right.Quantile(q); l != r {
			t.Fatalf("q%v: left %v != right %v", q, l, r)
		}
		if l, a := left.Quantile(q), all.Quantile(q); l != a {
			t.Fatalf("q%v: merged %v != direct %v", q, l, a)
		}
	}
	if left.Count() != all.Count() || left.Sum() != all.Sum() {
		t.Fatalf("merged count/sum %d/%v != direct %d/%v", left.Count(), left.Sum(), all.Count(), all.Sum())
	}
}

// TestSketchConcurrentRecord hammers one sketch from many goroutines;
// run under -race this is the data-race gate, and the final count/sum
// must account for every observation exactly.
func TestSketchConcurrentRecord(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	var s Sketch
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				s.Observe(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
			}
		}(int64(g))
	}
	wg.Wait()
	if got := s.Count(); got != goroutines*perG {
		t.Fatalf("count = %d, want %d", got, goroutines*perG)
	}
	total := int64(0)
	for i := range s.counts {
		total += s.counts[i].Load()
	}
	if total != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", total, goroutines*perG)
	}
	if s.Quantile(0.95) <= 0 || s.Quantile(0.95) > 11*time.Millisecond {
		t.Fatalf("q95 = %v out of range", s.Quantile(0.95))
	}
}

// TestSketchObserveAllocs: the record path must stay allocation-free.
func TestSketchObserveAllocs(t *testing.T) {
	var s Sketch
	allocs := testing.AllocsPerRun(1000, func() {
		s.Observe(3 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 17, 1000, 1e6, 1e9, 1e12, 1e18} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		if i >= sketchBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := bucketBounds(i)
		if v < lo || v >= hi {
			t.Fatalf("value %d outside bucket %d bounds [%d, %d)", v, i, lo, hi)
		}
		prev = i
	}
}
