// Package canon computes a canonical form of (pipeline, platform)
// instances. The paper's mapping problem is invariant under relabeling of
// the processors (Section 3 defines mappings through the alloc sets, never
// through processor identity), so two requests whose platforms differ only
// by a processor permutation have the same optimal metrics and
// permutation-related optimal mappings. Canonicalizing before hashing lets
// a serving tier answer every member of such an equivalence class from one
// cached solution.
//
// Canonicalize relabels the processors deterministically:
//
//   - Communication-homogeneous platforms (a single bandwidth everywhere)
//     collapse to an order-only form: processors sorted by (speed, failure
//     probability), the shared bandwidth encoded once.
//   - Fully heterogeneous platforms sort processors by a base invariant
//     (speed, failure probability, input/output bandwidth, the multisets
//     of outgoing and incoming link bandwidths), refine the resulting
//     ordered partition against the link matrix until it stabilizes, and
//     — when symmetric ties survive refinement — branch on the tied
//     processors and keep the lexicographically smallest encoding
//     (individualization-refinement with twin pruning). Searches past
//     Budget nodes abort with ErrComplex; callers fall back to the raw
//     labeling, losing cache sharing but never correctness.
//
// The canonical byte encoding is injective on validated instances: floats
// are encoded as IEEE-754 bit patterns (with -0 normalized to +0), so
// equal bytes mean structurally identical instances, and hashing the bytes
// is a sound cross-request cache key. The Perm/Inv permutations translate
// mappings between the canonical and original labelings (TranslateMapping).
package canon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// Encoding header bytes: a version (bump on any layout change — cached
// keys must not collide across layouts) and the platform-class tag that
// keeps the collapsed communication-homogeneous form from ever colliding
// with a heterogeneous one.
const (
	encVersion      = 0x01
	encClassCommHom = 0x01
	encClassHetero  = 0x02
)

// ErrComplex reports that the platform's link symmetry forced the
// canonical search past Budget nodes. The instance is still solvable —
// callers just cannot share its cache entries across relabelings.
var ErrComplex = errors.New("canon: platform symmetry exceeds the refinement budget")

// Budget caps the individualization-refinement search nodes per
// Canonicalize call. Real platforms discretize in one refinement pass
// (distinct speeds, or homogeneous links); the budget only bites on
// adversarially symmetric link matrices (e.g. large circulants), where
// aborting beats an exponential search. Variable rather than constant so
// tests can exercise the ErrComplex path.
var Budget = 4096

// Canonical is the result of canonicalizing one instance.
type Canonical struct {
	// Bytes is the canonical encoding: equal bytes <=> the instances are
	// identical up to processor relabeling. Hash it (plus whatever options
	// shape an answer) to key cross-request caches.
	Bytes []byte
	// Perm maps canonical position -> original processor id: processor i
	// of the canonical platform is processor Perm[i] of the original.
	Perm []int
	// Inv maps original processor id -> canonical position.
	Inv []int

	pipe *pipeline.Pipeline
	plat *platform.Platform
}

// Canonicalize validates the instance and computes its canonical form.
// It returns ErrComplex (wrapped) when the search exceeds Budget.
func Canonicalize(p *pipeline.Pipeline, pl *platform.Platform) (*Canonical, error) {
	if p == nil || pl == nil {
		return nil, fmt.Errorf("canon: need both a pipeline and a platform")
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("canon: %w", err)
	}
	m := pl.NumProcs()
	var perm []int
	var enc []byte
	if b, ok := pl.CommHomogeneous(); ok {
		perm = commHomOrder(pl)
		hdr := header(encClassCommHom, p, m)
		enc = append(make([]byte, 0, len(hdr)+8*(1+2*m)), hdr...)
		enc = appendBits(enc, b)
		for _, u := range perm {
			enc = appendBits(enc, pl.Speed[u])
			enc = appendBits(enc, pl.FailProb[u])
		}
	} else {
		st := &hetState{pl: pl, budget: Budget, hdr: header(encClassHetero, p, m)}
		var err error
		if enc, perm, err = st.search(st.refine(baseCells(pl))); err != nil {
			return nil, err
		}
	}
	inv := make([]int, m)
	for i, u := range perm {
		inv[u] = i
	}
	return &Canonical{Bytes: enc, Perm: perm, Inv: inv, pipe: p, plat: pl}, nil
}

// Pipeline returns the instance's pipeline. Stage order carries meaning
// (the chain is directed), so the pipeline is never permuted — it is the
// caller's original, shared, do not mutate.
func (c *Canonical) Pipeline() *pipeline.Pipeline { return c.pipe }

// Platform returns a freshly allocated canonical-labeled platform:
// processor i is the original's processor Perm[i].
func (c *Canonical) Platform() *platform.Platform { return c.plat.Permute(c.Perm) }

// NumProcs returns the instance's processor count.
func (c *Canonical) NumProcs() int { return len(c.Perm) }

// IsIdentity reports whether the canonical labeling coincides with the
// original one (no translation needed for mappings).
func (c *Canonical) IsIdentity() bool {
	for i, u := range c.Perm {
		if i != u {
			return false
		}
	}
	return true
}

// ToOriginal translates a canonical-labeled mapping back to the original
// processor ids.
func (c *Canonical) ToOriginal(m *mapping.Mapping) *mapping.Mapping {
	return TranslateMapping(m, c.Perm)
}

// ToCanonical translates an original-labeled mapping to canonical ids.
func (c *Canonical) ToCanonical(m *mapping.Mapping) *mapping.Mapping {
	return TranslateMapping(m, c.Inv)
}

// TranslateMapping returns a copy of m with every processor id u replaced
// by procMap[u], each alloc set re-sorted ascending. It panics when the
// mapping references an id outside procMap — translation maps between two
// labelings of one platform, so that is a caller bug.
func TranslateMapping(m *mapping.Mapping, procMap []int) *mapping.Mapping {
	cp := m.Clone()
	for j := range cp.Alloc {
		for i, u := range cp.Alloc[j] {
			if u < 0 || u >= len(procMap) {
				panic(fmt.Sprintf("canon: mapping references processor %d outside the %d-id translation", u, len(procMap)))
			}
			cp.Alloc[j][i] = procMap[u]
		}
		sort.Ints(cp.Alloc[j])
	}
	return cp
}

// header returns the encoding's header: the version, the platform class
// tag, the pipeline's canonical bytes (a uvarint and 8 bytes a value)
// and the processor count.
func header(class byte, p *pipeline.Pipeline, m int) []byte {
	dst := make([]byte, 0, 2+2*binary.MaxVarintLen64+8*(len(p.W)+len(p.Delta)))
	dst = append(dst, encVersion, class)
	dst = p.AppendCanonicalBytes(dst)
	return binary.AppendUvarint(dst, uint64(m))
}

// appendBits appends x's big-endian IEEE-754 bit pattern, normalizing -0
// to +0 so the two (numerically equal) zeros cannot split an equivalence
// class. Validated instances hold no NaN, so bit equality is value
// equality and — for the non-negative values at hand — bit order is value
// order.
func appendBits(dst []byte, x float64) []byte {
	return binary.BigEndian.AppendUint64(dst, normBits(x))
}

func normBits(x float64) uint64 {
	if x == 0 {
		return 0
	}
	return math.Float64bits(x)
}

// commHomOrder sorts processor ids by (speed, failure probability, id).
// On a communication-homogeneous platform processors tied on both
// attributes are fully interchangeable, so the id tie-break cannot leak
// original labels into the encoding.
func commHomOrder(pl *platform.Platform) []int {
	ids := make([]int, pl.NumProcs())
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		u, v := ids[a], ids[b]
		su, sv := normBits(pl.Speed[u]), normBits(pl.Speed[v])
		if su != sv {
			return su < sv
		}
		fu, fv := normBits(pl.FailProb[u]), normBits(pl.FailProb[v])
		if fu != fv {
			return fu < fv
		}
		return u < v
	})
	return ids
}

// hetState carries one heterogeneous canonical search.
type hetState struct {
	pl     *platform.Platform
	hdr    []byte // header's bytes, shared by every leaf
	nodes  int
	budget int
}

// baseCells partitions processors by their label-invariant attributes:
// speed, failure probability, input/output bandwidth, and the sorted
// multisets of outgoing and incoming link bandwidths. Cells are ordered
// by key, members ascending by id.
//
// The link multisets are computed lazily: processors are first grouped by
// their four scalar attributes, and only groups still tied there pay the
// per-vertex link sorts. Because the scalar components lead the key, the
// final order (sort by scalars, then by link extension within each tied
// group) is exactly the order a sort on the full concatenated key would
// produce — the common all-distinct case just skips the O(m² log m) part.
func baseCells(pl *platform.Platform) [][]int {
	m := pl.NumProcs()
	keys := make([][]uint64, m)
	for u := 0; u < m; u++ {
		keys[u] = []uint64{normBits(pl.Speed[u]), normBits(pl.FailProb[u]), normBits(pl.BIn[u]), normBits(pl.BOut[u])}
	}
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i
	}
	byKey := func(a, b int) bool {
		if c := compareU64(keys[ids[a]], keys[ids[b]]); c != 0 {
			return c < 0
		}
		return ids[a] < ids[b]
	}
	sort.Slice(ids, byKey)
	var cells [][]int
	for start := 0; start < m; {
		end := start + 1
		for end < m && compareU64(keys[ids[start]], keys[ids[end]]) == 0 {
			end++
		}
		if end-start > 1 {
			// Scalar tie: extend the tied keys with the link multisets and
			// re-sort just this group (its position among the groups is
			// already fixed by the shared scalar prefix).
			for _, u := range ids[start:end] {
				keys[u] = appendSortedLinks(keys[u], pl, u, true)
				keys[u] = appendSortedLinks(keys[u], pl, u, false)
			}
			group := ids[start:end]
			sort.Slice(group, func(a, b int) bool {
				if c := compareU64(keys[group[a]], keys[group[b]]); c != 0 {
					return c < 0
				}
				return group[a] < group[b]
			})
			for sub := start; sub < end; {
				subEnd := sub + 1
				for subEnd < end && compareU64(keys[ids[sub]], keys[ids[subEnd]]) == 0 {
					subEnd++
				}
				cells = append(cells, append([]int(nil), ids[sub:subEnd]...))
				sub = subEnd
			}
		} else {
			cells = append(cells, append([]int(nil), ids[start:end]...))
		}
		start = end
	}
	return cells
}

// appendSortedLinks appends the sorted bit patterns of u's off-diagonal
// row (out=true) or column (out=false) of the bandwidth matrix.
func appendSortedLinks(key []uint64, pl *platform.Platform, u int, out bool) []uint64 {
	m := pl.NumProcs()
	links := make([]uint64, 0, m-1)
	for v := 0; v < m; v++ {
		if v == u {
			continue
		}
		if out {
			links = append(links, normBits(pl.B[u][v]))
		} else {
			links = append(links, normBits(pl.B[v][u]))
		}
	}
	slices.Sort(links)
	return append(key, links...)
}

func compareU64(a, b []uint64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

// refine splits every cell by each member's per-cell link signature until
// the partition stabilizes. Signatures are label-invariant (sorted
// multisets of bandwidths toward each cell in cell order), so the refined
// partition — including the order of its cells — is identical across
// relabelings of one platform.
func (st *hetState) refine(cells [][]int) [][]int {
	for {
		changed := false
		var out [][]int
		for _, cell := range cells {
			if len(cell) == 1 {
				out = append(out, cell)
				continue
			}
			sigs := make([][]uint64, len(cell))
			for i, u := range cell {
				sigs[i] = st.signature(u, cells)
			}
			idx := make([]int, len(cell))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				return compareU64(sigs[idx[a]], sigs[idx[b]]) < 0
			})
			groups := 0
			for start := 0; start < len(idx); {
				end := start + 1
				for end < len(idx) && compareU64(sigs[idx[start]], sigs[idx[end]]) == 0 {
					end++
				}
				group := make([]int, 0, end-start)
				for _, i := range idx[start:end] {
					group = append(group, cell[i])
				}
				sort.Ints(group)
				out = append(out, group)
				groups++
				start = end
			}
			if groups > 1 {
				changed = true
			}
		}
		cells = out
		if !changed {
			return cells
		}
	}
}

// signature describes how u connects to every cell of the partition: for
// each cell in order, the sorted bandwidths of u's links into it and of
// its links back to u. Members of one cell produce equal-length
// signatures, so plain concatenation compares correctly.
func (st *hetState) signature(u int, cells [][]int) []uint64 {
	sig := make([]uint64, 0, 2*st.pl.NumProcs())
	for _, cell := range cells {
		sig = appendCellLinks(sig, st.pl, u, cell, true)
		sig = appendCellLinks(sig, st.pl, u, cell, false)
	}
	return sig
}

func appendCellLinks(sig []uint64, pl *platform.Platform, u int, cell []int, out bool) []uint64 {
	start := len(sig)
	for _, v := range cell {
		if v == u {
			continue
		}
		if out {
			sig = append(sig, normBits(pl.B[u][v]))
		} else {
			sig = append(sig, normBits(pl.B[v][u]))
		}
	}
	slices.Sort(sig[start:])
	return sig
}

// twins reports whether swapping u and v is an automorphism of the
// platform: identical attributes, identical links to every third
// processor, and a symmetric link between the two.
func (st *hetState) twins(u, v int) bool {
	pl := st.pl
	if pl.Speed[u] != pl.Speed[v] || normBits(pl.FailProb[u]) != normBits(pl.FailProb[v]) ||
		pl.BIn[u] != pl.BIn[v] || pl.BOut[u] != pl.BOut[v] ||
		pl.B[u][v] != pl.B[v][u] {
		return false
	}
	for w := 0; w < pl.NumProcs(); w++ {
		if w == u || w == v {
			continue
		}
		if pl.B[u][w] != pl.B[v][w] || pl.B[w][u] != pl.B[w][v] {
			return false
		}
	}
	return true
}

// allTwins reports whether every pair in the cell is a twin pair, in
// which case any internal order of the cell yields identical canonical
// bytes and no branching is needed.
func (st *hetState) allTwins(cell []int) bool {
	for i := 0; i < len(cell); i++ {
		for j := i + 1; j < len(cell); j++ {
			if !st.twins(cell[i], cell[j]) {
				return false
			}
		}
	}
	return true
}

// search runs individualization-refinement below an already-refined
// partition: when a cell survives refinement with non-twin ties, each
// distinguishable member is individualized in turn and the
// lexicographically smallest leaf encoding wins. Twin candidates are
// pruned (their subtrees encode identically), and the node budget bounds
// the worst case. The tree's shape is label-invariant, so budget
// exhaustion is deterministic across relabelings of one platform.
func (st *hetState) search(cells [][]int) ([]byte, []int, error) {
	st.nodes++
	if st.nodes > st.budget {
		return nil, nil, fmt.Errorf("canon: %d search nodes: %w", st.nodes, ErrComplex)
	}
	branch := -1
	for i, cell := range cells {
		if len(cell) > 1 && !st.allTwins(cell) {
			branch = i
			break
		}
	}
	if branch < 0 {
		order := make([]int, 0, st.pl.NumProcs())
		for _, cell := range cells {
			order = append(order, cell...)
		}
		return st.encode(order), order, nil
	}
	cell := cells[branch]
	var best []byte
	var bestOrder []int
	var tried []int
	for _, u := range cell {
		dup := false
		for _, t := range tried {
			if st.twins(u, t) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		tried = append(tried, u)
		rest := make([]int, 0, len(cell)-1)
		for _, v := range cell {
			if v != u {
				rest = append(rest, v)
			}
		}
		next := make([][]int, 0, len(cells)+1)
		next = append(next, cells[:branch]...)
		next = append(next, []int{u}, rest)
		next = append(next, cells[branch+1:]...)
		enc, order, err := st.search(st.refine(next))
		if err != nil {
			return nil, nil, err
		}
		if best == nil || bytes.Compare(enc, best) < 0 {
			best, bestOrder = enc, order
		}
	}
	return best, bestOrder, nil
}

// encode returns the instance's complete encoding under the given
// processor order, built in one buffer of exactly its size: the header,
// per-processor attributes, then the off-diagonal bandwidth matrix
// row-major. The (ignored) diagonal is never encoded, so instances
// differing only there share a canonical form. Every leaf shares the
// header, so comparing whole encodings orders leaves as their platform
// sections do.
func (st *hetState) encode(order []int) []byte {
	pl, m := st.pl, len(order)
	dst := append(make([]byte, 0, len(st.hdr)+8*(4*m+m*(m-1))), st.hdr...)
	for _, u := range order {
		dst = appendBits(dst, pl.Speed[u])
		dst = appendBits(dst, pl.FailProb[u])
		dst = appendBits(dst, pl.BIn[u])
		dst = appendBits(dst, pl.BOut[u])
	}
	for _, u := range order {
		for _, v := range order {
			if u != v {
				dst = appendBits(dst, pl.B[u][v])
			}
		}
	}
	return dst
}
