// Package platform models the heterogeneous target platforms of the paper:
// m processors fully interconnected as a virtual clique, plus two special
// processors P_in (holding initial data) and P_out (receiving results).
//
// Each processor P_u has a speed s_u (it executes X operations in X/s_u
// time units) and a failure probability fp_u in [0,1] (the chance that it
// breaks down at some point while the workflow runs). Each directed link
// has a bandwidth; the linear cost model charges X/b time units to move X
// data units over a link of bandwidth b. Communication contention follows
// the one-port model: a processor is involved in at most one send and one
// receive at a time.
//
// The paper distinguishes three platform classes —
//
//   - Fully Homogeneous: identical speeds and identical link bandwidths;
//   - Communication Homogeneous: identical links, heterogeneous speeds;
//   - Fully Heterogeneous: both speeds and links heterogeneous;
//
// crossed with two failure classes (Failure Homogeneous: all fp_u equal;
// Failure Heterogeneous otherwise). Class detection drives algorithm
// selection in the core solver.
package platform

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/jsonread"
)

// Class identifies one of the paper's three platform families.
type Class int

const (
	// FullyHomogeneous: identical processors and identical links.
	FullyHomogeneous Class = iota
	// CommHomogeneous: identical links, processor speeds may differ.
	CommHomogeneous
	// FullyHeterogeneous: both processor speeds and links may differ.
	FullyHeterogeneous
)

// String returns the paper's name for the class.
func (c Class) String() string {
	switch c {
	case FullyHomogeneous:
		return "Fully Homogeneous"
	case CommHomogeneous:
		return "Communication Homogeneous"
	case FullyHeterogeneous:
		return "Fully Heterogeneous"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Platform describes the m-processor target. All slices are indexed by
// processor id 0..m-1. Bandwidth matrices use the convention that
// B[u][v] is the bandwidth of link_{u,v}; diagonal entries are ignored
// (intra-processor transfers are free in the paper's model).
type Platform struct {
	// Speed[u] is s_u > 0.
	Speed []float64
	// FailProb[u] is fp_u in [0,1].
	FailProb []float64
	// B[u][v] is the bandwidth between P_u and P_v (u != v), > 0.
	B [][]float64
	// BIn[u] is the bandwidth of the link P_in -> P_u, > 0.
	BIn []float64
	// BOut[u] is the bandwidth of the link P_u -> P_out, > 0.
	BOut []float64
}

// NumProcs returns m, the number of (regular) processors.
func (pl *Platform) NumProcs() int { return len(pl.Speed) }

// Validate checks the structural invariants described on the fields.
func (pl *Platform) Validate() error {
	m := len(pl.Speed)
	if m == 0 {
		return fmt.Errorf("platform: must have at least one processor")
	}
	if len(pl.FailProb) != m || len(pl.B) != m || len(pl.BIn) != m || len(pl.BOut) != m {
		return fmt.Errorf("platform: inconsistent slice lengths (m=%d, fp=%d, B=%d, BIn=%d, BOut=%d)",
			m, len(pl.FailProb), len(pl.B), len(pl.BIn), len(pl.BOut))
	}
	for u := 0; u < m; u++ {
		if !(pl.Speed[u] > 0) {
			return fmt.Errorf("platform: Speed[%d]=%v must be > 0", u, pl.Speed[u])
		}
		if !(pl.FailProb[u] >= 0 && pl.FailProb[u] <= 1) {
			return fmt.Errorf("platform: FailProb[%d]=%v must be in [0,1]", u, pl.FailProb[u])
		}
		if len(pl.B[u]) != m {
			return fmt.Errorf("platform: B[%d] has length %d, want %d", u, len(pl.B[u]), m)
		}
		for v := 0; v < m; v++ {
			if u != v && !(pl.B[u][v] > 0) {
				return fmt.Errorf("platform: B[%d][%d]=%v must be > 0", u, v, pl.B[u][v])
			}
		}
		if !(pl.BIn[u] > 0) {
			return fmt.Errorf("platform: BIn[%d]=%v must be > 0", u, pl.BIn[u])
		}
		if !(pl.BOut[u] > 0) {
			return fmt.Errorf("platform: BOut[%d]=%v must be > 0", u, pl.BOut[u])
		}
	}
	return nil
}

// CommHomogeneous reports whether every link (including the input and
// output links) has the same bandwidth, and returns that bandwidth.
func (pl *Platform) CommHomogeneous() (b float64, ok bool) {
	m := pl.NumProcs()
	b = pl.BIn[0]
	for u := 0; u < m; u++ {
		if pl.BIn[u] != b || pl.BOut[u] != b {
			return 0, false
		}
		for v := 0; v < m; v++ {
			if u != v && pl.B[u][v] != b {
				return 0, false
			}
		}
	}
	return b, true
}

// SpeedHomogeneous reports whether all processors have the same speed.
func (pl *Platform) SpeedHomogeneous() bool {
	for _, s := range pl.Speed {
		if s != pl.Speed[0] {
			return false
		}
	}
	return true
}

// FailureHomogeneous reports whether all processors share one failure
// probability (the paper's "Failure Homogeneous" qualifier).
func (pl *Platform) FailureHomogeneous() bool {
	for _, f := range pl.FailProb {
		if f != pl.FailProb[0] {
			return false
		}
	}
	return true
}

// Classify returns the platform class per the paper's taxonomy.
func (pl *Platform) Classify() Class {
	if _, ok := pl.CommHomogeneous(); !ok {
		return FullyHeterogeneous
	}
	if pl.SpeedHomogeneous() {
		return FullyHomogeneous
	}
	return CommHomogeneous
}

// FastestProc returns the index of a fastest processor (lowest index on
// ties, so results are deterministic).
func (pl *Platform) FastestProc() int {
	best := 0
	for u := 1; u < pl.NumProcs(); u++ {
		if pl.Speed[u] > pl.Speed[best] {
			best = u
		}
	}
	return best
}

// ProcsBySpeedDesc returns processor ids sorted by non-increasing speed
// (stable: ties keep ascending id order), as used by Algorithms 3 and 4.
func (pl *Platform) ProcsBySpeedDesc() []int {
	ids := make([]int, pl.NumProcs())
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return pl.Speed[ids[a]] > pl.Speed[ids[b]] })
	return ids
}

// ProcsByReliabilityDesc returns processor ids sorted from most reliable
// (lowest fp) to least reliable, as used by Algorithms 1 and 2.
func (pl *Platform) ProcsByReliabilityDesc() []int {
	ids := make([]int, pl.NumProcs())
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool { return pl.FailProb[ids[a]] < pl.FailProb[ids[b]] })
	return ids
}

// Clone returns a deep copy.
func (pl *Platform) Clone() *Platform {
	cp := &Platform{
		Speed:    append([]float64(nil), pl.Speed...),
		FailProb: append([]float64(nil), pl.FailProb...),
		B:        make([][]float64, len(pl.B)),
		BIn:      append([]float64(nil), pl.BIn...),
		BOut:     append([]float64(nil), pl.BOut...),
	}
	for u := range pl.B {
		cp.B[u] = append([]float64(nil), pl.B[u]...)
	}
	return cp
}

// Permute returns a relabeled deep copy: processor i of the result is
// processor perm[i] of the receiver (perm maps new id -> old id), with
// link bandwidths carried along (B'[i][j] = B[perm[i]][perm[j]]).
// Diagonal entries of the result are normalized to 0 — the model ignores
// them, and a canonical relabeling must not leak whatever garbage the
// original diagonal held. It panics when perm is not a permutation of
// 0..m-1; callers (the canon package, tests) construct perms
// programmatically, so a bad one is a bug, not an input error.
func (pl *Platform) Permute(perm []int) *Platform {
	m := pl.NumProcs()
	if len(perm) != m {
		panic(fmt.Sprintf("platform: Permute with %d indices, want %d", len(perm), m))
	}
	seen := make([]bool, m)
	for _, u := range perm {
		if u < 0 || u >= m || seen[u] {
			panic(fmt.Sprintf("platform: Permute with invalid permutation %v", perm))
		}
		seen[u] = true
	}
	cp := &Platform{
		Speed:    make([]float64, m),
		FailProb: make([]float64, m),
		B:        make([][]float64, m),
		BIn:      make([]float64, m),
		BOut:     make([]float64, m),
	}
	for i, u := range perm {
		cp.Speed[i] = pl.Speed[u]
		cp.FailProb[i] = pl.FailProb[u]
		cp.BIn[i] = pl.BIn[u]
		cp.BOut[i] = pl.BOut[u]
		cp.B[i] = make([]float64, m)
		for j, v := range perm {
			if i != j {
				cp.B[i][j] = pl.B[u][v]
			}
		}
	}
	return cp
}

// AppendRawBytes appends a byte encoding of the platform in its own
// processor order to dst and returns the extended slice: Speed, FailProb,
// BIn, BOut and then every row of B (diagonal included), each as
// uvarint(length) followed by its values' big-endian IEEE-754 bit
// patterns. It is the raw-labeled counterpart of the canon package's
// encoding and normalizes nothing — not -0, not the ignored diagonal —
// so two platforms produce equal bytes exactly when every field holds
// bitwise-equal values, valid or not.
func (pl *Platform) AppendRawBytes(dst []byte) []byte {
	appendVec := func(dst []byte, xs []float64) []byte {
		dst = binary.AppendUvarint(dst, uint64(len(xs)))
		for _, x := range xs {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(x))
		}
		return dst
	}
	dst = appendVec(dst, pl.Speed)
	dst = appendVec(dst, pl.FailProb)
	dst = appendVec(dst, pl.BIn)
	dst = appendVec(dst, pl.BOut)
	dst = binary.AppendUvarint(dst, uint64(len(pl.B)))
	for _, row := range pl.B {
		dst = appendVec(dst, row)
	}
	return dst
}

// String summarises the platform ("m=3 Communication Homogeneous, Failure
// Heterogeneous").
func (pl *Platform) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "m=%d %s", pl.NumProcs(), pl.Classify())
	if pl.FailureHomogeneous() {
		b.WriteString(", Failure Homogeneous")
	} else {
		b.WriteString(", Failure Heterogeneous")
	}
	return b.String()
}

type jsonPlatform struct {
	Speed    []float64   `json:"speed"`
	FailProb []float64   `json:"failProb"`
	B        [][]float64 `json:"b"`
	BIn      []float64   `json:"bIn"`
	BOut     []float64   `json:"bOut"`
}

// MarshalJSON encodes all platform parameters.
func (pl *Platform) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonPlatform{pl.Speed, pl.FailProb, pl.B, pl.BIn, pl.BOut})
}

// jsonFields lists jsonPlatform's keys in UnmarshalJSON's field order.
var jsonFields = []string{"speed", "failProb", "b", "bIn", "bOut"}

// UnmarshalJSON decodes and validates a platform in one pass over data,
// accepting exactly the documents encoding/json would decode into the
// wire format (see package jsonread). Decoded slices are exactly sized.
func (pl *Platform) UnmarshalJSON(data []byte) error {
	var jp Platform
	d := jsonread.NewDecoder(data)
	err := d.Object(jsonFields, func(field int) (err error) {
		switch field {
		case 0:
			jp.Speed, err = d.Floats(jp.Speed)
		case 1:
			jp.FailProb, err = d.Floats(jp.FailProb)
		case 2:
			jp.B, err = d.Matrix(jp.B)
		case 3:
			jp.BIn, err = d.Floats(jp.BIn)
		case 4:
			jp.BOut, err = d.Floats(jp.BOut)
		}
		return err
	})
	if err != nil {
		return err
	}
	pl.Speed, pl.FailProb = jsonread.Exact(jp.Speed), jsonread.Exact(jp.FailProb)
	pl.BIn, pl.BOut = jsonread.Exact(jp.BIn), jsonread.Exact(jp.BOut)
	pl.B = jsonread.Exact(jp.B)
	for u := range pl.B {
		pl.B[u] = jsonread.Exact(pl.B[u])
	}
	return pl.Validate()
}

// uniformMatrix returns an m×m matrix filled with b off-diagonal.
func uniformMatrix(m int, b float64) [][]float64 {
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

func uniformSlice(m int, x float64) []float64 {
	s := make([]float64, m)
	for i := range s {
		s[i] = x
	}
	return s
}

// NewFullyHomogeneous builds a Fully Homogeneous platform of m processors
// of speed s and failure probability fp, with all links of bandwidth b.
func NewFullyHomogeneous(m int, s, b, fp float64) (*Platform, error) {
	pl := &Platform{
		Speed:    uniformSlice(m, s),
		FailProb: uniformSlice(m, fp),
		B:        uniformMatrix(m, b),
		BIn:      uniformSlice(m, b),
		BOut:     uniformSlice(m, b),
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return pl, nil
}

// NewCommHomogeneous builds a Communication Homogeneous platform: one
// bandwidth b for every link, per-processor speeds and failure
// probabilities.
func NewCommHomogeneous(speeds, failProbs []float64, b float64) (*Platform, error) {
	if len(speeds) != len(failProbs) {
		return nil, fmt.Errorf("platform: len(speeds)=%d != len(failProbs)=%d", len(speeds), len(failProbs))
	}
	m := len(speeds)
	pl := &Platform{
		Speed:    append([]float64(nil), speeds...),
		FailProb: append([]float64(nil), failProbs...),
		B:        uniformMatrix(m, b),
		BIn:      uniformSlice(m, b),
		BOut:     uniformSlice(m, b),
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return pl, nil
}

// NewFullyHeterogeneous builds a platform from explicit parameter slices.
// The matrix b is copied; diagonal entries are ignored.
func NewFullyHeterogeneous(speeds, failProbs []float64, b [][]float64, bIn, bOut []float64) (*Platform, error) {
	pl := &Platform{
		Speed:    append([]float64(nil), speeds...),
		FailProb: append([]float64(nil), failProbs...),
		B:        make([][]float64, len(b)),
		BIn:      append([]float64(nil), bIn...),
		BOut:     append([]float64(nil), bOut...),
	}
	for u := range b {
		pl.B[u] = append([]float64(nil), b[u]...)
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	return pl, nil
}

// RandomCommHomogeneous draws a Communication Homogeneous platform with m
// processors, speeds uniform in [sMin,sMax], failure probabilities uniform
// in [fpMin,fpMax], and a single bandwidth b.
func RandomCommHomogeneous(rng *rand.Rand, m int, sMin, sMax, fpMin, fpMax, b float64) *Platform {
	speeds := make([]float64, m)
	fps := make([]float64, m)
	for u := 0; u < m; u++ {
		speeds[u] = sMin + rng.Float64()*(sMax-sMin)
		fps[u] = fpMin + rng.Float64()*(fpMax-fpMin)
	}
	pl, err := NewCommHomogeneous(speeds, fps, b)
	if err != nil {
		panic(err) // unreachable for valid ranges
	}
	return pl
}

// RandomFullyHeterogeneous draws a Fully Heterogeneous platform with all
// parameters uniform in the given ranges (bandwidths in [bMin,bMax],
// including input/output links).
func RandomFullyHeterogeneous(rng *rand.Rand, m int, sMin, sMax, fpMin, fpMax, bMin, bMax float64) *Platform {
	speeds := make([]float64, m)
	fps := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	b := make([][]float64, m)
	for u := 0; u < m; u++ {
		speeds[u] = sMin + rng.Float64()*(sMax-sMin)
		fps[u] = fpMin + rng.Float64()*(fpMax-fpMin)
		bIn[u] = bMin + rng.Float64()*(bMax-bMin)
		bOut[u] = bMin + rng.Float64()*(bMax-bMin)
		b[u] = make([]float64, m)
	}
	// Links are bidirectional in the paper (link_{u,v} between each pair),
	// so keep the bandwidth matrix symmetric.
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			bw := bMin + rng.Float64()*(bMax-bMin)
			b[u][v], b[v][u] = bw, bw
		}
	}
	pl, err := NewFullyHeterogeneous(speeds, fps, b, bIn, bOut)
	if err != nil {
		panic(err) // unreachable for valid ranges
	}
	return pl
}
