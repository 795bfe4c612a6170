package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// permutations returns all permutations of 0..n-1 (test sizes only).
func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			perm := make([]int, 0, n)
			perm = append(perm, sub[:pos]...)
			perm = append(perm, n-1)
			perm = append(perm, sub[pos:]...)
			out = append(out, perm)
		}
	}
	return out
}

func platformsEqual(a, b *platform.Platform) bool {
	m := a.NumProcs()
	if b.NumProcs() != m {
		return false
	}
	for u := 0; u < m; u++ {
		if a.Speed[u] != b.Speed[u] || a.FailProb[u] != b.FailProb[u] ||
			a.BIn[u] != b.BIn[u] || a.BOut[u] != b.BOut[u] {
			return false
		}
		for v := 0; v < m; v++ {
			if u != v && a.B[u][v] != b.B[u][v] {
				return false
			}
		}
	}
	return true
}

// checkInvariant canonicalizes pl and every given relabeling of it and
// asserts identical canonical bytes, valid permutations, and identical
// canonical-labeled platforms.
func checkInvariant(t *testing.T, p *pipeline.Pipeline, pl *platform.Platform, perms [][]int) {
	t.Helper()
	base, err := Canonicalize(p, pl)
	if err != nil {
		t.Fatalf("canonicalize base: %v", err)
	}
	checkPerm(t, base, pl)
	basePlat := base.Platform()
	for i, perm := range perms {
		cn, err := Canonicalize(p, pl.Permute(perm))
		if err != nil {
			t.Fatalf("perm %d: %v", i, err)
		}
		if !bytes.Equal(cn.Bytes, base.Bytes) {
			t.Fatalf("perm %d (%v): canonical bytes differ from base", i, perm)
		}
		checkPerm(t, cn, pl.Permute(perm))
		if !platformsEqual(cn.Platform(), basePlat) {
			t.Fatalf("perm %d: canonical platforms differ", i)
		}
	}
}

// checkPerm asserts cn.Perm is a bijection consistent with cn.Inv and
// that the canonical platform really is orig relabeled through it.
func checkPerm(t *testing.T, cn *Canonical, orig *platform.Platform) {
	t.Helper()
	m := orig.NumProcs()
	if len(cn.Perm) != m || len(cn.Inv) != m {
		t.Fatalf("perm/inv lengths %d/%d, want %d", len(cn.Perm), len(cn.Inv), m)
	}
	seen := make([]bool, m)
	for i, u := range cn.Perm {
		if u < 0 || u >= m || seen[u] {
			t.Fatalf("Perm is not a bijection: %v", cn.Perm)
		}
		seen[u] = true
		if cn.Inv[u] != i {
			t.Fatalf("Inv[%d]=%d inconsistent with Perm[%d]=%d", u, cn.Inv[u], i, u)
		}
	}
	if !platformsEqual(cn.Platform(), orig.Permute(cn.Perm)) {
		t.Fatal("Platform() is not the original relabeled through Perm")
	}
}

func TestCommHomInvarianceExhaustive(t *testing.T) {
	p := pipeline.MustNew([]float64{1, 100}, []float64{10, 1, 0})
	pl, err := platform.NewCommHomogeneous(
		[]float64{100, 1, 100, 7}, []float64{0.8, 0.1, 0.8, 0.25}, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkInvariant(t, p, pl, permutations(4))
}

func TestCommHomCanonicalOrderSorted(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	pl, err := platform.NewCommHomogeneous(
		[]float64{5, 1, 5, 2}, []float64{0.9, 0.1, 0.2, 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := Canonicalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	cp := cn.Platform()
	for u := 1; u < cp.NumProcs(); u++ {
		if cp.Speed[u] < cp.Speed[u-1] {
			t.Fatalf("canonical speeds not sorted: %v", cp.Speed)
		}
		if cp.Speed[u] == cp.Speed[u-1] && cp.FailProb[u] < cp.FailProb[u-1] {
			t.Fatalf("canonical fp not sorted within speed ties: %v", cp.FailProb)
		}
	}
}

func TestHetInvarianceExhaustiveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := pipeline.Random(rng, 3, 1, 10, 0, 5)
	pl := platform.RandomFullyHeterogeneous(rng, 4, 1, 10, 0.05, 0.95, 1, 5)
	checkInvariant(t, p, pl, permutations(4))
}

func TestHetInvarianceRandomWide(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := pipeline.Random(rng, 5, 1, 10, 0, 5)
	for _, m := range []int{16, 64, 128} {
		pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 5)
		perms := make([][]int, 5)
		for i := range perms {
			perms[i] = rng.Perm(m)
		}
		checkInvariant(t, p, pl, perms)
	}
}

// Twin processors (interchangeable under every automorphism) must not
// trigger branching and must still canonicalize invariantly. bIn differs
// from the link bandwidth, forcing the heterogeneous path.
func TestHetTwinCells(t *testing.T) {
	p := pipeline.Uniform(3, 2, 1)
	uniform := func(m int, b float64) [][]float64 {
		mat := make([][]float64, m)
		for u := range mat {
			mat[u] = make([]float64, m)
			for v := range mat[u] {
				if u != v {
					mat[u][v] = b
				}
			}
		}
		return mat
	}
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 1, 2, 2},
		[]float64{0.5, 0.5, 0.3, 0.3},
		uniform(4, 1),
		[]float64{3, 3, 5, 5},
		[]float64{4, 4, 6, 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	st := &hetState{pl: pl, budget: Budget}
	if !st.twins(0, 1) || !st.twins(2, 3) || st.twins(0, 2) {
		t.Fatal("twin detection wrong on the twin platform")
	}
	checkInvariant(t, p, pl, permutations(4))
}

// A 4-ring bandwidth matrix (ring links 1, chords 2, all processor
// attributes equal) survives refinement as one symmetric cell that is not
// all-twins, so canonicalization must branch — and still produce one
// canonical form across all 24 relabelings.
func ring4Platform(t *testing.T) *platform.Platform {
	t.Helper()
	b := [][]float64{
		{0, 1, 2, 1},
		{1, 0, 1, 2},
		{2, 1, 0, 1},
		{1, 2, 1, 0},
	}
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{1, 1, 1, 1},
		[]float64{0.5, 0.5, 0.5, 0.5},
		b,
		[]float64{7, 7, 7, 7},
		[]float64{7, 7, 7, 7},
	)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestHetBranchingRing(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	checkInvariant(t, p, ring4Platform(t), permutations(4))
}

func TestErrComplexOnTinyBudget(t *testing.T) {
	defer func(old int) { Budget = old }(Budget)
	Budget = 1
	_, err := Canonicalize(pipeline.Uniform(2, 1, 1), ring4Platform(t))
	if !errors.Is(err, ErrComplex) {
		t.Fatalf("want ErrComplex, got %v", err)
	}
}

func TestDiagonalIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := pipeline.Uniform(2, 1, 1)
	pl := platform.RandomFullyHeterogeneous(rng, 5, 1, 10, 0.1, 0.9, 1, 5)
	dirty := pl.Clone()
	for u := range dirty.B {
		dirty.B[u][u] = 99
	}
	a, err := Canonicalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(p, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes, b.Bytes) {
		t.Fatal("diagonal entries leaked into the canonical form")
	}
}

func TestDistinctInstancesDistinctBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := pipeline.Random(rng, 3, 1, 10, 0, 5)
	pl := platform.RandomFullyHeterogeneous(rng, 5, 1, 10, 0.1, 0.9, 1, 5)
	base, err := Canonicalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	// One changed value anywhere must change the canonical bytes.
	mutations := []func() (*pipeline.Pipeline, *platform.Platform){
		func() (*pipeline.Pipeline, *platform.Platform) {
			q := p.Clone()
			q.W[1] += 1
			return q, pl
		},
		func() (*pipeline.Pipeline, *platform.Platform) {
			q := p.Clone()
			q.Delta[0] += 1
			return q, pl
		},
		func() (*pipeline.Pipeline, *platform.Platform) {
			cp := pl.Clone()
			cp.Speed[2] *= 2
			return p, cp
		},
		func() (*pipeline.Pipeline, *platform.Platform) {
			cp := pl.Clone()
			cp.FailProb[4] /= 2
			return p, cp
		},
		func() (*pipeline.Pipeline, *platform.Platform) {
			cp := pl.Clone()
			cp.B[1][3] *= 3
			return p, cp
		},
		func() (*pipeline.Pipeline, *platform.Platform) {
			cp := pl.Clone()
			cp.BIn[0] *= 3
			return p, cp
		},
	}
	for i, mut := range mutations {
		q, cp := mut()
		cn, err := Canonicalize(q, cp)
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		if bytes.Equal(cn.Bytes, base.Bytes) {
			t.Errorf("mutation %d: canonical bytes unchanged", i)
		}
	}
}

func TestCommHomAndHetNeverCollide(t *testing.T) {
	// Same pipeline and per-processor attributes; one platform has uniform
	// links, one not. The class byte keeps the encodings apart even if the
	// remaining bytes lined up.
	p := pipeline.Uniform(1, 1, 1)
	ch, err := platform.NewCommHomogeneous([]float64{1, 2}, []float64{0.1, 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	het := ch.Clone()
	het.BIn[0] = 2
	a, err := Canonicalize(p, ch)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(p, het)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes, b.Bytes) {
		t.Fatal("collapsed and heterogeneous forms collided")
	}
	if a.Bytes[1] != encClassCommHom || b.Bytes[1] != encClassHetero {
		t.Fatalf("class bytes %x/%x, want %x/%x", a.Bytes[1], b.Bytes[1], encClassCommHom, encClassHetero)
	}
}

func TestNegativeZeroNormalized(t *testing.T) {
	p := pipeline.Uniform(1, 1, 1)
	a, err := platform.NewCommHomogeneous([]float64{1, 2}, []float64{0, 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	b.FailProb[0] = negzero()
	ca, err := Canonicalize(p, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := Canonicalize(p, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes, cb.Bytes) {
		t.Fatal("-0 and +0 failure probabilities split the equivalence class")
	}
}

func negzero() float64 {
	z := 0.0
	return -z
}

func TestSingleProcessor(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	// m=1 with bIn != bOut exercises the heterogeneous path with an empty
	// bandwidth section.
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{2}, []float64{0.3}, [][]float64{{0}}, []float64{1}, []float64{4})
	if err != nil {
		t.Fatal(err)
	}
	cn, err := Canonicalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if !cn.IsIdentity() {
		t.Fatal("single-processor canonicalization must be the identity")
	}
}

func TestCanonicalizeRejectsInvalid(t *testing.T) {
	good := pipeline.Uniform(1, 1, 1)
	pl, err := platform.NewFullyHomogeneous(2, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Canonicalize(nil, pl); err == nil {
		t.Error("nil pipeline accepted")
	}
	if _, err := Canonicalize(good, nil); err == nil {
		t.Error("nil platform accepted")
	}
	bad := &pipeline.Pipeline{W: []float64{-1}, Delta: []float64{0, 0}}
	if _, err := Canonicalize(bad, pl); err == nil {
		t.Error("invalid pipeline accepted")
	}
	badPl := pl.Clone()
	badPl.Speed[0] = 0
	if _, err := Canonicalize(good, badPl); err == nil {
		t.Error("invalid platform accepted")
	}
}

func TestTranslateMapping(t *testing.T) {
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 1}, {First: 2, Last: 2}},
		Alloc:     [][]int{{0, 3}, {1}},
	}
	got := TranslateMapping(m, []int{2, 0, 3, 1})
	want := [][]int{{1, 2}, {0}}
	for j := range want {
		if len(got.Alloc[j]) != len(want[j]) {
			t.Fatalf("alloc %d: %v, want %v", j, got.Alloc[j], want[j])
		}
		for i := range want[j] {
			if got.Alloc[j][i] != want[j][i] {
				t.Fatalf("alloc %d: %v, want %v", j, got.Alloc[j], want[j])
			}
		}
	}
	// The input must be untouched.
	if m.Alloc[0][0] != 0 || m.Alloc[0][1] != 3 {
		t.Fatal("TranslateMapping mutated its input")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range processor id did not panic")
		}
	}()
	TranslateMapping(m, []int{0, 1})
}

func TestToOriginalToCanonicalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := pipeline.Random(rng, 4, 1, 10, 0, 5)
	pl := platform.RandomFullyHeterogeneous(rng, 6, 1, 10, 0.1, 0.9, 1, 5)
	cn, err := Canonicalize(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	m := &mapping.Mapping{
		Intervals: []mapping.Interval{{First: 0, Last: 2}, {First: 3, Last: 3}},
		Alloc:     [][]int{{0, 2, 5}, {1, 4}},
	}
	back := cn.ToCanonical(cn.ToOriginal(m))
	for j := range m.Alloc {
		if len(back.Alloc[j]) != len(m.Alloc[j]) {
			t.Fatalf("round trip changed alloc %d", j)
		}
		for i := range m.Alloc[j] {
			if back.Alloc[j][i] != m.Alloc[j][i] {
				t.Fatalf("round trip changed alloc %d: %v -> %v", j, m.Alloc[j], back.Alloc[j])
			}
		}
	}
}

func TestCanonicalizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := pipeline.Random(rng, 3, 1, 10, 0, 5)
	for _, pl := range []*platform.Platform{
		platform.RandomFullyHeterogeneous(rng, 8, 1, 10, 0.1, 0.9, 1, 5),
		platform.RandomCommHomogeneous(rng, 8, 1, 10, 0.1, 0.9, 2),
		ring4Platform(t),
	} {
		cn, err := Canonicalize(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Canonicalize(p, cn.Platform())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cn.Bytes, again.Bytes) {
			t.Fatal("canonicalizing the canonical platform changed the bytes")
		}
		if !again.IsIdentity() {
			t.Fatal("canonical platform did not canonicalize to the identity")
		}
	}
}

// canonicalGoldenDigest is the SHA-256 of goldenCorpus's canonical
// encodings and permutations as the layout defines them; any change to
// an encoded byte, or to the labeling a search picks, changes it.
const canonicalGoldenDigest = "ba19ad20e20e8d1d406f23fed8851f8f438c92e9b9cba951578e9fc7418a9e13"

// circulant8Platform is vertex-transitive: every processor has the same
// attributes and link multisets (bandwidth 1 + ring distance), so
// refinement leaves one cell and canonicalization branches.
func circulant8Platform(t *testing.T) *platform.Platform {
	t.Helper()
	const m = 8
	b := make([][]float64, m)
	for u := range b {
		b[u] = make([]float64, m)
		for v := range b[u] {
			if d := (v - u + m) % m; d != 0 {
				b[u][v] = 1 + float64(min(d, m-d))
			}
		}
	}
	pl, err := platform.NewFullyHeterogeneous(repeat(2, m), repeat(0.25, m), b, repeat(3, m), repeat(3, m))
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestCanonicalBytesGolden holds Canonical.Bytes and Perm to a digest on
// a seeded corpus of Comm-Hom and Fully-Het instances, relabeled, plus two
// symmetric platforms whose canonicalization branches; and every encoding
// is built in one buffer of exactly its size.
func TestCanonicalBytesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	type inst struct {
		p  *pipeline.Pipeline
		pl *platform.Platform
	}
	var corpus []inst
	for _, m := range []int{1, 5, 16, 80} {
		for k := 0; k < 3; k++ {
			p := pipeline.Random(rng, 1+rng.Intn(20), 1, 10, 0, 5)
			pl := platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64())
			corpus = append(corpus, inst{p, pl}, inst{p, pl.Permute(rng.Perm(m))})
		}
	}
	for _, m := range []int{2, 7, 33, 80} {
		for k := 0; k < 3; k++ {
			p := pipeline.Random(rng, 1+rng.Intn(40), 1, 10, 0, 5)
			pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 5)
			corpus = append(corpus, inst{p, pl}, inst{p, pl.Permute(rng.Perm(m))})
		}
	}
	ring, circ := ring4Platform(t), circulant8Platform(t)
	for k := 0; k < 4; k++ {
		p := pipeline.Random(rng, 1+rng.Intn(6), 1, 10, 0, 5)
		corpus = append(corpus, inst{p, ring.Permute(rng.Perm(4))}, inst{p, circ.Permute(rng.Perm(8))})
	}
	func() {
		defer func(old int) { Budget = old }(Budget)
		Budget = 1
		for _, pl := range []*platform.Platform{ring, circ} {
			if _, err := Canonicalize(corpus[0].p, pl); !errors.Is(err, ErrComplex) {
				t.Fatalf("m=%d symmetric platform canonicalized in one search node (%v); it must branch", pl.NumProcs(), err)
			}
		}
	}()
	h := sha256.New()
	for i, c := range corpus {
		cn, err := Canonicalize(c.p, c.pl)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if cap(cn.Bytes) != len(cn.Bytes) {
			t.Errorf("instance %d (m=%d): encoding of %d bytes sits in a %d-byte buffer", i, c.pl.NumProcs(), len(cn.Bytes), cap(cn.Bytes))
		}
		h.Write(binary.AppendUvarint(nil, uint64(len(cn.Bytes))))
		h.Write(cn.Bytes)
		for _, u := range cn.Perm {
			h.Write(binary.AppendUvarint(nil, uint64(u)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != canonicalGoldenDigest {
		t.Errorf("canonical corpus digest %s, want %s", got, canonicalGoldenDigest)
	}
}
