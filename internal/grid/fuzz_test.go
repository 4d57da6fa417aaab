package grid

import "testing"

// FuzzVisitSet drives the dense and the sparse backing side by side against
// a map oracle that keeps only points with |p|∞ ≤ r. The first byte picks
// the radius; after it, each 3-byte record is 1 op byte + 2 coordinate
// bytes. Ops cycle through a walk step, a teleport (reaching well past the
// ball), buffering the position for VisitBatch, flushing the buffer, a visit
// into a same-radius scratch pair, and merging the scratch pair in.
func FuzzVisitSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 1, 100, 156, 0, 1, 0, 1, 3, 3})
	f.Add([]byte{63, 2, 0, 0, 3, 0, 0, 4, 1, 2, 5, 0, 0, 1, 127, 128, 2, 0, 0, 3, 0, 0})
	// A walk that leaves a radius-2 ball and comes back.
	walk := []byte{2}
	for i := 0; i < 12; i++ {
		walk = append(walk, 0, byte(i/6), 0)
	}
	f.Add(walk)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		r := int64(data[0] % 64)
		data = data[1:]
		dense, sparse := NewVisitSet(r), NewSparseVisitSet(r)
		denseScratch, sparseScratch := NewVisitSet(r), NewSparseVisitSet(r)
		oracle, scratchOracle := map[Point]bool{}, map[Point]bool{}
		inBall := func(p Point) bool { return p.Norm() <= r }
		visit := func(p Point) {
			fresh := inBall(p) && !oracle[p]
			if got := dense.Visit(p); got != fresh {
				t.Fatalf("r=%d: dense Visit(%v) = %v, oracle says %v", r, p, got, fresh)
			}
			if got := sparse.Visit(p); got != fresh {
				t.Fatalf("r=%d: sparse Visit(%v) = %v, oracle says %v", r, p, got, fresh)
			}
			if inBall(p) {
				oracle[p] = true
			}
		}
		var p Point
		var batch []Point
		for len(data) >= 3 {
			op, a, b := data[0]%6, int64(int8(data[1])), int64(int8(data[2]))
			data = data[3:]
			switch op {
			case 0:
				p = p.Move(Direction(1 + a&3))
				visit(p)
			case 1:
				// ±3·128 reaches up to six ball radii past the largest r.
				p = Point{X: 3 * a, Y: 3 * b}
				visit(p)
			case 2:
				p = Point{X: a, Y: b}
				batch = append(batch, p)
			case 3:
				dense.VisitBatch(batch)
				sparse.VisitBatch(batch)
				for _, q := range batch {
					if inBall(q) {
						oracle[q] = true
					}
				}
				batch = batch[:0]
			case 4:
				q := Point{X: a, Y: b}
				denseScratch.Visit(q)
				sparseScratch.Visit(q)
				if inBall(q) {
					scratchOracle[q] = true
				}
			case 5:
				dense.Merge(denseScratch)
				sparse.Merge(sparseScratch)
				for q := range scratchOracle {
					oracle[q] = true
				}
			}
			for _, v := range []*VisitSet{dense, sparse} {
				if v.Contains(p) != oracle[p] {
					t.Fatalf("r=%d sparse=%v: Contains(%v) = %v, oracle says %v",
						r, v.Sparse(), p, v.Contains(p), oracle[p])
				}
			}
		}
		for _, v := range []*VisitSet{dense, sparse} {
			if v.CountInBall() != int64(len(oracle)) {
				t.Fatalf("r=%d sparse=%v: CountInBall = %d, oracle has %d",
					r, v.Sparse(), v.CountInBall(), len(oracle))
			}
			seen := map[Point]bool{}
			v.Each(func(q Point) {
				if !oracle[q] || seen[q] {
					t.Fatalf("r=%d sparse=%v: Each yielded %v (in oracle %v, repeated %v)",
						r, v.Sparse(), q, oracle[q], seen[q])
				}
				seen[q] = true
			})
			if len(seen) != len(oracle) {
				t.Fatalf("r=%d sparse=%v: Each yielded %d points, oracle has %d",
					r, v.Sparse(), len(seen), len(oracle))
			}
			for q := range oracle {
				if !v.Contains(q) {
					t.Fatalf("r=%d sparse=%v: lost %v", r, v.Sparse(), q)
				}
			}
		}
	})
}
