package spatial

import (
	"testing"

	"repro/internal/rng"
)

type cell struct{ x, y int64 }

// randWalkCells generates an n-step origin-anchored random walk with
// occasional long teleports, exercising both the dense-cluster and the
// far-excursion regimes of the tree.
func randWalkCells(src *rng.Source, n int, teleport int64) []cell {
	cells := make([]cell, 0, n)
	var x, y int64
	for i := 0; i < n; i++ {
		switch src.Intn(16) {
		case 0:
			x++
		case 1:
			x--
		case 2:
			y++
		case 3:
			y--
		case 4:
			if teleport > 0 {
				x = src.Intn(2*teleport+1) - teleport
				y = src.Intn(2*teleport+1) - teleport
			}
		default:
			// Stay put with high probability: revisits are the hot path.
		}
		cells = append(cells, cell{x, y})
	}
	return cells
}

func TestVisitContainsCountOracle(t *testing.T) {
	for _, teleport := range []int64{0, 50, 100000, 1 << 40} {
		src := rng.New(uint64(teleport) + 7)
		ix := NewIndex()
		oracle := map[cell]bool{}
		for _, c := range randWalkCells(src, 10000, teleport) {
			fresh := ix.Visit(c.x, c.y)
			if fresh == oracle[c] {
				t.Fatalf("teleport=%d: Visit(%d,%d) fresh=%v, oracle says %v",
					teleport, c.x, c.y, fresh, !oracle[c])
			}
			oracle[c] = true
		}
		if ix.Count() != int64(len(oracle)) {
			t.Fatalf("teleport=%d: Count=%d, oracle has %d", teleport, ix.Count(), len(oracle))
		}
		for c := range oracle {
			if !ix.Contains(c.x, c.y) {
				t.Fatalf("teleport=%d: Contains(%d,%d) = false after Visit", teleport, c.x, c.y)
			}
		}
		// Probe absent cells near and far.
		for i := 0; i < 2000; i++ {
			c := cell{src.Intn(1<<20) - 1<<19, src.Intn(1<<20) - 1<<19}
			if ix.Contains(c.x, c.y) != oracle[c] {
				t.Fatalf("teleport=%d: Contains(%d,%d) disagrees with oracle", teleport, c.x, c.y)
			}
		}
		// Each must enumerate exactly the oracle.
		seen := map[cell]bool{}
		ix.Each(func(x, y int64) {
			c := cell{x, y}
			if seen[c] {
				t.Fatalf("Each yielded (%d,%d) twice", x, y)
			}
			seen[c] = true
		})
		if len(seen) != len(oracle) {
			t.Fatalf("Each yielded %d cells, want %d", len(seen), len(oracle))
		}
		for c := range seen {
			if !oracle[c] {
				t.Fatalf("Each yielded (%d,%d) not in oracle", c.x, c.y)
			}
		}
	}
}

func TestPromotionInvariants(t *testing.T) {
	ix := NewIndex()
	ix.Visit(0, 0)
	if ix.Level() != 0 {
		t.Fatalf("single tile should be level 0, got %d", ix.Level())
	}
	// Visits at geometrically growing distances force promotions; every
	// previously inserted cell must survive each promotion.
	inserted := []cell{{0, 0}}
	for _, d := range []int64{100, 1000, 10000, 1 << 20, 1 << 30, 1 << 40, -(1 << 40)} {
		c := cell{d, -d / 2}
		ix.Visit(c.x, c.y)
		inserted = append(inserted, c)
		for _, p := range inserted {
			if !ix.Contains(p.x, p.y) {
				t.Fatalf("after visiting %v (level %d), lost cell %v", c, ix.Level(), p)
			}
		}
	}
	if ix.Count() != int64(len(inserted)) {
		t.Fatalf("Count=%d, want %d", ix.Count(), len(inserted))
	}
	// Origin-centered spread of ±2^40 cells needs about log4(2^40/64)+1
	// levels; the bias must prevent boundary-straddling blowup to 29.
	if ix.Level() > 20 {
		t.Errorf("level %d too deep for ±2^40 spread: bias regression", ix.Level())
	}
	if ix.Level() < 10 {
		t.Errorf("level %d cannot span ±2^40", ix.Level())
	}
}

func TestMergeCommutativeAndCounted(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		src := rng.New(seed*31 + 1)
		build := func(n int, teleport int64) (*Index, map[cell]bool) {
			ix := NewIndex()
			m := map[cell]bool{}
			for _, c := range randWalkCells(src, n, teleport) {
				ix.Visit(c.x, c.y)
				m[c] = true
			}
			return ix, m
		}
		a, ma := build(3000, 100)
		b, mb := build(3000, 1<<30)

		union := map[cell]bool{}
		for c := range ma {
			union[c] = true
		}
		onlyB := 0
		for c := range mb {
			if !union[c] {
				onlyB++
			}
			union[c] = true
		}

		if added := a.Merge(b); added != int64(onlyB) {
			t.Fatalf("seed %d: a.Merge(b) added %d, want %d", seed, added, onlyB)
		}
		if a.Count() != int64(len(union)) {
			t.Fatalf("seed %d: merged count %d, want %d", seed, a.Count(), len(union))
		}

		// Commutativity of the resulting set: b.Merge(a-pre-merge) is not
		// reconstructible here, so rebuild b's side from scratch.
		src2 := rng.New(seed*31 + 1)
		a2 := NewIndex()
		for _, c := range randWalkCells(src2, 3000, 100) {
			a2.Visit(c.x, c.y)
		}
		b2 := NewIndex()
		for _, c := range randWalkCells(src2, 3000, 1<<30) {
			b2.Visit(c.x, c.y)
		}
		b2.Merge(a2)
		if b2.Count() != a.Count() {
			t.Fatalf("seed %d: merge not commutative: %d vs %d", seed, b2.Count(), a.Count())
		}
		b2.Each(func(x, y int64) {
			if !a.Contains(x, y) {
				t.Fatalf("seed %d: b∪a has (%d,%d), a∪b misses it", seed, x, y)
			}
		})

		// Idempotence: re-merging adds nothing.
		if again := a.Merge(b); again != 0 {
			t.Fatalf("seed %d: re-merge added %d cells", seed, again)
		}
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	src := rng.New(5)
	b := NewIndex()
	for _, c := range randWalkCells(src, 1000, 1<<25) {
		b.Visit(c.x, c.y)
	}
	a := NewIndex()
	added := a.Merge(b)
	if added != b.Count() || a.Count() != b.Count() {
		t.Fatalf("merge into empty: added=%d count=%d, want %d", added, a.Count(), b.Count())
	}
	b.Each(func(x, y int64) {
		if !a.Contains(x, y) {
			t.Fatalf("merge into empty lost (%d,%d)", x, y)
		}
	})
}

func TestNearestMatchesBruteForce(t *testing.T) {
	src := rng.New(12345)
	ix := NewIndex()
	var pts []cell
	for _, c := range randWalkCells(src, 4000, 5000) {
		if ix.Visit(c.x, c.y) {
			pts = append(pts, c)
		}
	}
	if _, _, ok := NewIndex().Nearest(0, 0); ok {
		t.Fatal("empty index returned a nearest cell")
	}
	for trial := 0; trial < 500; trial++ {
		qx := src.Intn(20001) - 10000
		qy := src.Intn(20001) - 10000
		// Brute force with the documented tie-break: min distance, then
		// smaller y, then smaller x.
		var bx, by, bd int64 = 0, 0, -1
		for _, c := range pts {
			d := chebDist(c.x, c.y, qx, qy)
			if bd < 0 || d < bd || (d == bd && (c.y < by || (c.y == by && c.x < bx))) {
				bd, bx, by = d, c.x, c.y
			}
		}
		nx, ny, ok := ix.Nearest(qx, qy)
		if !ok || nx != bx || ny != by {
			t.Fatalf("Nearest(%d,%d) = (%d,%d,%v), brute force (%d,%d) dist %d",
				qx, qy, nx, ny, ok, bx, by, bd)
		}
	}
}

func TestFromRects(t *testing.T) {
	rects := [][4]int64{
		{-3, -3, 2, 2},   // 6×6 around origin
		{100, 5, 120, 7}, // 21×3 off-center
	}
	ix := FromRects(rects, 1<<20)
	if ix == nil {
		t.Fatal("FromRects returned nil under the cap")
	}
	if want := int64(6*6 + 21*3); ix.Count() != want {
		t.Fatalf("Count=%d, want %d", ix.Count(), want)
	}
	if !ix.Contains(-3, -3) || !ix.Contains(2, 2) || !ix.Contains(110, 6) {
		t.Fatal("rasterized rect missing corner/interior cells")
	}
	if ix.Contains(3, 0) || ix.Contains(99, 6) {
		t.Fatal("rasterized rect contains cells outside every rect")
	}
	if FromRects([][4]int64{{0, 0, 1 << 30, 1 << 30}}, 1<<20) != nil {
		t.Fatal("oversized rect should return nil")
	}
	if FromRects([][4]int64{{5, 5, 4, 5}}, 1<<20) != nil {
		t.Fatal("malformed rect should return nil")
	}
}

func TestVisitSteadyStateAllocs(t *testing.T) {
	ix := NewIndex()
	var x, y int64
	src := rng.New(1)
	// Pre-touch a working set so steady state has its tiles allocated.
	for i := 0; i < 4096; i++ {
		ix.Visit(x, y)
		x += src.Intn(3) - 1
		y += src.Intn(3) - 1
	}
	x, y = 0, 0
	src2 := rng.New(1)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			ix.Visit(x, y)
			x += src2.Intn(3) - 1
			y += src2.Intn(3) - 1
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Visit allocated %v times per run, want 0", allocs)
	}
}
