package grid

import (
	"testing"

	"repro/internal/rng"
)

// TestEachDenseEnumeratesExactly: Each's word-level iteration over a dense
// set must report each visited point exactly once and nothing else,
// including points on word boundaries and window corners.
func TestEachDenseEnumeratesExactly(t *testing.T) {
	v := NewVisitSet(9) // side 19: rows straddle 64-bit word boundaries
	want := map[Point]bool{
		{X: -9, Y: -9}: true, // first bit of word 0
		{X: 9, Y: 9}:   true, // last bit of the last word
		{X: 0, Y: 0}:   true,
		{X: -3, Y: 4}:  true,
		{X: 7, Y: -2}:  true,
		{X: 8, Y: -9}:  true,
	}
	for p := range want {
		v.Visit(p)
	}
	v.Visit(Point{X: 50, Y: 50}) // outside the ball: must not appear
	got := map[Point]int{}
	v.Each(func(p Point) { got[p]++ })
	if len(got) != len(want) {
		t.Errorf("Each visited %d points, want %d: %v", len(got), len(want), got)
	}
	for p, n := range got {
		if !want[p] {
			t.Errorf("Each reported unvisited point %v", p)
		}
		if n != 1 {
			t.Errorf("Each reported %v %d times", p, n)
		}
	}
}

// TestEachDenseMatchesContains cross-checks Each's bit iteration over a
// dense set against the Contains probe over a random fill.
func TestEachDenseMatchesContains(t *testing.T) {
	v := NewVisitSet(13)
	src := rng.New(7)
	for i := 0; i < 300; i++ {
		v.Visit(Point{X: src.Intn(27) - 13, Y: src.Intn(27) - 13})
	}
	var n int64
	v.Each(func(p Point) {
		n++
		if !v.Contains(p) {
			t.Errorf("Each reported %v but Contains disagrees", p)
		}
	})
	if n != v.CountInBall() {
		t.Errorf("Each enumerated %d points, CountInBall = %d", n, v.CountInBall())
	}
}

// TestMergeSmallerIntoLarger: merging a small-radius set into a larger one
// carries over exactly the points the source recorded — its own ball — with
// the counter exact across the overlap.
func TestMergeSmallerIntoLarger(t *testing.T) {
	a := NewVisitSet(8)
	b := NewVisitSet(2)
	pts := []Point{{X: 0, Y: 0}, {X: 2, Y: -2}, {X: -1, Y: 1}}
	for _, p := range pts {
		b.Visit(p)
	}
	if b.Visit(Point{X: 5, Y: 5}) { // outside b's ball, inside a's
		t.Error("b recorded a point outside its ball")
	}
	b.Visit(Point{X: 20, Y: 0}) // outside both balls
	a.Visit(Point{X: 2, Y: -2}) // overlap: must not double count
	a.Merge(b)
	if got, want := a.CountInBall(), int64(3); got != want {
		t.Errorf("CountInBall = %d, want %d", got, want)
	}
	for _, p := range pts {
		if !a.Contains(p) {
			t.Errorf("merged set missing %v", p)
		}
	}
	for _, p := range []Point{{X: 5, Y: 5}, {X: 20, Y: 0}} {
		if a.Contains(p) {
			t.Errorf("merged set holds %v, which b never recorded", p)
		}
	}
}

// TestMergeLargerIntoSmaller: points of the source that fall outside the
// receiver's ball are dropped by the merge.
func TestMergeLargerIntoSmaller(t *testing.T) {
	a := NewVisitSet(2)
	b := NewVisitSet(8)
	b.Visit(Point{X: 1, Y: 1})  // in both balls
	b.Visit(Point{X: 6, Y: -6}) // in b's ball only
	b.Visit(Point{X: 6, Y: -6}) // revisit: no double count at the source
	a.Merge(b)
	if got, want := a.CountInBall(), int64(1); got != want {
		t.Errorf("CountInBall = %d, want %d", got, want)
	}
	if !a.Contains(Point{X: 1, Y: 1}) {
		t.Error("merged set missing (1,1)")
	}
	if a.Contains(Point{X: 6, Y: -6}) {
		t.Error("merge kept a point outside the receiver's ball")
	}
}

// TestMergeCrossRadiusMatchesUnion is a randomized union check across
// differing radii in both directions: the merged set is the union of what
// each side recorded (its own ball), restricted to the receiver's ball.
func TestMergeCrossRadiusMatchesUnion(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		ra := src.Intn(12) + 1
		rb := src.Intn(12) + 1
		a := NewVisitSet(ra)
		b := NewVisitSet(rb)
		want := map[Point]bool{}
		fill := func(v *VisitSet, n int64) {
			for i := int64(0); i < n; i++ {
				p := Point{X: src.Intn(31) - 15, Y: src.Intn(31) - 15}
				v.Visit(p)
				if p.Norm() <= v.Radius() && p.Norm() <= ra {
					want[p] = true
				}
			}
		}
		fill(a, src.Intn(60))
		fill(b, src.Intn(60))
		a.Merge(b)
		if a.CountInBall() != int64(len(want)) {
			t.Fatalf("trial %d (ra=%d rb=%d): CountInBall = %d, want %d",
				trial, ra, rb, a.CountInBall(), len(want))
		}
		for y := int64(-15); y <= 15; y++ {
			for x := int64(-15); x <= 15; x++ {
				p := Point{X: x, Y: y}
				if a.Contains(p) != want[p] {
					t.Fatalf("trial %d (ra=%d rb=%d): Contains(%v) = %v, want %v",
						trial, ra, rb, p, a.Contains(p), want[p])
				}
			}
		}
	}
}

// TestSparseDenseOracleEquality is the core satellite property test: a
// forced-sparse VisitSet must be observationally identical to the dense
// oracle on 10⁴-step random walks, across radii spanning the dense window,
// the boundary, and far excursions.
func TestSparseDenseOracleEquality(t *testing.T) {
	for _, r := range []int64{0, 1, 16, 63, 64, 100, 1000} {
		src := rng.New(uint64(r)*1000 + 3)
		dense := NewVisitSet(r)
		sparse := NewSparseVisitSet(r)
		if dense.Sparse() || !sparse.Sparse() {
			t.Fatalf("r=%d: mode selection broken: dense.Sparse=%v sparse.Sparse=%v",
				r, dense.Sparse(), sparse.Sparse())
		}
		var p Point
		for step := 0; step < 10000; step++ {
			switch src.Intn(5) {
			case 0:
				p.X++
			case 1:
				p.X--
			case 2:
				p.Y++
			case 3:
				p.Y--
			case 4:
				// Long jump: exercise points outside the ball.
				p = Point{X: src.Intn(4*r+4001) - 2*r - 2000, Y: src.Intn(4*r+4001) - 2*r - 2000}
			}
			dv := dense.Visit(p)
			sv := sparse.Visit(p)
			if dv != sv {
				t.Fatalf("r=%d step %d: Visit(%v) dense=%v sparse=%v", r, step, p, dv, sv)
			}
			if dense.CountInBall() != sparse.CountInBall() {
				t.Fatalf("r=%d step %d: counts diverge: dense %d sparse %d",
					r, step, dense.CountInBall(), sparse.CountInBall())
			}
		}
		if dense.CoverageFraction() != sparse.CoverageFraction() {
			t.Fatalf("r=%d: coverage fractions diverge", r)
		}
		// Point-for-point equality both ways.
		dense.Each(func(q Point) {
			if !sparse.Contains(q) {
				t.Fatalf("r=%d: sparse missing %v", r, q)
			}
		})
		n := 0
		sparse.Each(func(q Point) {
			n++
			if !dense.Contains(q) {
				t.Fatalf("r=%d: sparse has extra %v", r, q)
			}
		})
		if int64(n) != dense.CountInBall() {
			t.Fatalf("r=%d: sparse Each yielded %d points, want %d", r, n, dense.CountInBall())
		}
	}
}

// TestSparseMergeMatchesDenseMerge checks the structural word-OR merge in
// both modes against per-point union, including the striped-worker pattern
// (same radius, same mode) the engines use at checkpoints.
func TestSparseMergeMatchesDenseMerge(t *testing.T) {
	const r = 32
	src := rng.New(77)
	walk := func(v *VisitSet, n int) {
		var p Point
		for i := 0; i < n; i++ {
			p.X += src.Intn(3) - 1
			p.Y += src.Intn(3) - 1
			if src.Intn(50) == 0 {
				p = Point{X: src.Intn(401) - 200, Y: src.Intn(401) - 200}
			}
			v.Visit(p)
		}
	}
	da, sa := NewVisitSet(r), NewSparseVisitSet(r)
	db, sb := NewVisitSet(r), NewSparseVisitSet(r)
	// Identical fills: rewind the stream for the sparse twins.
	walk(da, 3000)
	walk(db, 3000)
	src = rng.New(77)
	walk(sa, 3000)
	walk(sb, 3000)

	da.Merge(db)
	sa.Merge(sb)
	if da.CountInBall() != sa.CountInBall() {
		t.Fatalf("merge diverges: dense %d sparse %d", da.CountInBall(), sa.CountInBall())
	}
	da.Each(func(q Point) {
		if !sa.Contains(q) {
			t.Fatalf("sparse merge missing %v", q)
		}
	})
	// Cross-mode merge falls back to per-point and must still agree.
	cross := NewVisitSet(r)
	cross.Merge(sb)
	db2 := NewVisitSet(r)
	db2.Merge(db)
	if cross.CountInBall() != db.CountInBall() {
		t.Fatalf("cross-mode merge diverges: got %d, want %d", cross.CountInBall(), db.CountInBall())
	}
}

// TestNewVisitSetAutoSelectsSparse pins the radius threshold behaviour.
func TestNewVisitSetAutoSelectsSparse(t *testing.T) {
	if NewVisitSet(1024).Sparse() {
		t.Error("radius 1024 should stay dense")
	}
	if !NewVisitSet(1025).Sparse() {
		t.Error("radius 1025 should auto-select sparse")
	}
	huge := NewVisitSet(1 << 40)
	if !huge.Visit(Point{X: 1 << 39, Y: -(1 << 39)}) {
		t.Error("sparse set rejected a far visit")
	}
	if huge.CountInBall() != 1 {
		t.Errorf("CountInBall = %d, want 1", huge.CountInBall())
	}
}

// TestVisitBatchMatchesVisit pins the engines' buffered entry point to the
// per-point oracle in both backings, including window excursions and
// duplicate points within one batch.
func TestVisitBatchMatchesVisit(t *testing.T) {
	src := rng.New(41)
	for _, r := range []int64{0, 4, 64} {
		for _, sparse := range []bool{false, true} {
			mk := func() *VisitSet {
				if sparse {
					return NewSparseVisitSet(r)
				}
				return NewVisitSet(r)
			}
			batched, oracle := mk(), mk()
			p := Origin
			var batch []Point
			for i := 0; i < 4000; i++ {
				p = p.Move(Direction(1 + src.Intn(4)))
				if src.Intn(200) == 0 { // excursion far outside the window
					p = Point{X: p.X + 3*r + 7, Y: p.Y - 2*r - 5}
				}
				batch = append(batch, p)
				oracle.Visit(p)
				if len(batch) == 97 || i == 3999 {
					batched.VisitBatch(batch)
					batch = batch[:0]
				}
			}
			if batched.CountInBall() != oracle.CountInBall() {
				t.Fatalf("r=%d sparse=%v: batch %d vs oracle %d",
					r, sparse, batched.CountInBall(), oracle.CountInBall())
			}
			oracle.Each(func(q Point) {
				if !batched.Contains(q) {
					t.Fatalf("r=%d sparse=%v: batch missing %v", r, sparse, q)
				}
			})
		}
	}
}
