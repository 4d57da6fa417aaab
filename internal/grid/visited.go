package grid

import (
	"math/bits"

	"repro/internal/spatial"
)

// maxDenseRadius is the largest dense-window radius NewVisitSet will back
// with an up-front bitmap: (2·1024+1)² bits ≈ 525 KB per set (one per
// worker stripe in the engines). Above it the window bitmap alone would
// dwarf the cells a walk actually touches, so the set switches to the
// sparse hierarchical index, whose memory tracks touched tiles instead of
// arena area.
const maxDenseRadius = 1024

// VisitSet records which grid points of the radius-r ball {p : |p|∞ ≤ r}
// have been visited; points outside the ball are ignored. This is the
// region every coverage statistic counts (the D-ball of Theorem 4.1). For
// radii up to maxDenseRadius the ball is a dense bitmap over the window
// [-r, r]²; for larger radii — unbounded-arena runs — it lives in the sparse
// hierarchical tile index, and memory scales with cells touched, not with
// (2r+1)². Both backings are observationally identical; the engines pick
// purely by radius.
//
// VisitSet is not safe for concurrent use; the simulation engine gives each
// worker its own set and merges afterwards.
type VisitSet struct {
	r     int64
	side  int64          // window side 2r+1; dense only
	dense []uint64       // the window bitmap; nil when sparse
	ix    *spatial.Index // the tile index; nil when dense
	count int64          // distinct points visited, all with norm <= r
}

// NewVisitSet returns a visit set with a ball radius of r. Radii up to
// maxDenseRadius get a dense window bitmap (a radius of 0 still tracks the
// origin); larger radii select the sparse backing automatically.
func NewVisitSet(r int64) *VisitSet {
	if r < 0 {
		r = 0
	}
	if r > maxDenseRadius {
		return NewSparseVisitSet(r)
	}
	side := 2*r + 1
	words := (side*side + 63) / 64
	return &VisitSet{
		r:     r,
		side:  side,
		dense: make([]uint64, words),
	}
}

// NewSparseVisitSet returns a visit set with ball radius r backed by the
// sparse tile index, regardless of radius. NewVisitSet selects this backing
// automatically for large radii; the explicit constructor exists for the
// oracle-equality tests and for benchmarks that want the sparse path at
// small radii.
func NewSparseVisitSet(r int64) *VisitSet {
	if r < 0 {
		r = 0
	}
	return &VisitSet{r: r, ix: spatial.NewIndex()}
}

// Radius returns the ball radius the set was created with.
func (v *VisitSet) Radius() int64 { return v.r }

// Sparse reports whether the set is backed by the tile index rather than a
// dense window bitmap.
func (v *VisitSet) Sparse() bool { return v.dense == nil }

// denseIndex locates p's bit in the dense window. The unsigned compares
// fold the max-norm test into the translation: 0 ≤ p+r ≤ 2r on both axes is
// exactly |p| ≤ r, with out-of-window coordinates wrapping to huge values.
func (v *VisitSet) denseIndex(p Point) (word int64, mask uint64, ok bool) {
	ux := uint64(p.X + v.r)
	uy := uint64(p.Y + v.r)
	side := uint64(v.side)
	if ux >= side || uy >= side {
		return 0, 0, false
	}
	idx := uy*side + ux
	return int64(idx >> 6), uint64(1) << (idx & 63), true
}

// Visit marks p as visited and reports whether it was newly visited. A
// point outside the ball is ignored and reports false.
func (v *VisitSet) Visit(p Point) bool {
	if v.dense == nil {
		return v.visitSparse(p)
	}
	word, mask, ok := v.denseIndex(p)
	if !ok || v.dense[word]&mask != 0 {
		return false
	}
	v.dense[word] |= mask
	v.count++
	return true
}

// visitSparse is Visit for the index backing.
func (v *VisitSet) visitSparse(p Point) bool {
	if p.Norm() > v.r || !v.ix.Visit(p.X, p.Y) {
		return false
	}
	v.count++
	return true
}

// VisitBatch marks every point in ps as visited, equivalent to calling
// Visit on each point in order (minus the per-point return values). The
// engines buffer a stripe's positions and flush them through this entry
// point so the dense path runs with its window in registers and one call
// per buffer instead of one per step.
func (v *VisitSet) VisitBatch(ps []Point) {
	if v.dense == nil {
		for _, p := range ps {
			v.visitSparse(p)
		}
		return
	}
	dense := v.dense
	r := v.r
	side := uint64(v.side)
	var added int64
	for _, p := range ps {
		ux := uint64(p.X + r)
		uy := uint64(p.Y + r)
		if ux >= side || uy >= side {
			continue
		}
		idx := uy*side + ux
		word, mask := idx>>6, uint64(1)<<(idx&63)
		if dense[word]&mask == 0 {
			dense[word] |= mask
			added++
		}
	}
	v.count += added
}

// Contains reports whether p has been visited; it is false for every point
// outside the ball.
func (v *VisitSet) Contains(p Point) bool {
	if v.dense == nil {
		return v.ix.Contains(p.X, p.Y)
	}
	word, mask, ok := v.denseIndex(p)
	return ok && v.dense[word]&mask != 0
}

// CountInBall returns the number of distinct visited points, all of which
// lie in the ball. It is the numerator of the coverage fraction used by the
// lower-bound experiments.
func (v *VisitSet) CountInBall() int64 { return v.count }

// CoverageFraction returns the fraction of the radius-r ball's points that
// have been visited.
func (v *VisitSet) CoverageFraction() float64 {
	return float64(v.count) / float64(BallSize(v.r))
}

// Merge adds every point visited in other that lies in v's ball. Same-radius,
// same-backing sets merge structurally — word-OR over the dense window or
// over aligned index tiles, no per-point hashing; otherwise other's points
// are re-visited into v one by one, which drops those outside v's ball.
// Merging does not modify other.
func (v *VisitSet) Merge(other *VisitSet) {
	if other == nil {
		return
	}
	if other.r != v.r || other.Sparse() != v.Sparse() {
		other.Each(func(p Point) { v.Visit(p) })
		return
	}
	if v.dense == nil {
		v.count += v.ix.Merge(other.ix)
		return
	}
	for i, w := range other.dense {
		if nw := w &^ v.dense[i]; nw != 0 {
			v.dense[i] |= w
			v.count += int64(bits.OnesCount64(nw))
		}
	}
}

// Each calls fn for every visited point. Iteration order is unspecified. A
// dense set iterates set bits word-by-word (bits.TrailingZeros64), so the
// cost is O(words + visited); a sparse set walks the tile index, so the cost
// tracks the tiles touched.
func (v *VisitSet) Each(fn func(Point)) {
	if v.dense == nil {
		v.ix.Each(func(x, y int64) { fn(Point{X: x, Y: y}) })
		return
	}
	for wi, w := range v.dense {
		base := int64(wi) * 64
		for w != 0 {
			idx := base + int64(bits.TrailingZeros64(w))
			w &= w - 1 // clear lowest set bit
			fn(Point{X: idx%v.side - v.r, Y: idx/v.side - v.r})
		}
	}
}
