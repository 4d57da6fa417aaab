package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointString(t *testing.T) {
	tests := []struct {
		p    Point
		want string
	}{
		{Point{}, "(0,0)"},
		{Point{X: 3, Y: -7}, "(3,-7)"},
		{Point{X: -1, Y: 1}, "(-1,1)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestNorm(t *testing.T) {
	tests := []struct {
		p        Point
		norm, l1 int64
	}{
		{Point{}, 0, 0},
		{Point{X: 3, Y: -7}, 7, 10},
		{Point{X: -5, Y: 2}, 5, 7},
		{Point{X: 4, Y: 4}, 4, 8},
	}
	for _, tt := range tests {
		if got := tt.p.Norm(); got != tt.norm {
			t.Errorf("Norm(%v) = %d, want %d", tt.p, got, tt.norm)
		}
		if got := tt.p.L1Norm(); got != tt.l1 {
			t.Errorf("L1Norm(%v) = %d, want %d", tt.p, got, tt.l1)
		}
	}
}

func TestDistSymmetricAndTriangle(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int32) bool {
		a := Point{X: int64(ax), Y: int64(ay)}
		b := Point{X: int64(bx), Y: int64(by)}
		c := Point{X: int64(cx), Y: int64(cy)}
		if Dist(a, b) != Dist(b, a) {
			return false
		}
		if Dist(a, c) > Dist(a, b)+Dist(b, c) {
			return false
		}
		return Dist(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirections(t *testing.T) {
	for _, d := range Directions {
		if !d.Valid() {
			t.Errorf("direction %v not valid", d)
		}
		if d.Opposite().Opposite() != d {
			t.Errorf("double opposite of %v = %v", d, d.Opposite().Opposite())
		}
		sum := d.Delta().Add(d.Opposite().Delta())
		if sum != (Point{}) {
			t.Errorf("delta(%v) + delta(opposite) = %v, want origin", d, sum)
		}
		if d.Delta().L1Norm() != 1 {
			t.Errorf("delta(%v) is not a unit step", d)
		}
	}
	var zero Direction
	if zero.Valid() {
		t.Error("zero direction should be invalid")
	}
	if zero.Delta() != (Point{}) {
		t.Error("zero direction delta should be origin")
	}
}

func TestMove(t *testing.T) {
	p := Point{X: 2, Y: 3}
	if got := p.Move(Up); got != (Point{X: 2, Y: 4}) {
		t.Errorf("Move(Up) = %v", got)
	}
	if got := p.Move(Down); got != (Point{X: 2, Y: 2}) {
		t.Errorf("Move(Down) = %v", got)
	}
	if got := p.Move(Left); got != (Point{X: 1, Y: 3}) {
		t.Errorf("Move(Left) = %v", got)
	}
	if got := p.Move(Right); got != (Point{X: 3, Y: 3}) {
		t.Errorf("Move(Right) = %v", got)
	}
}

func TestBallSize(t *testing.T) {
	for d := int64(0); d <= 20; d++ {
		var n int64
		BallPoints(d, func(Point) bool { n++; return true })
		if n != BallSize(d) {
			t.Errorf("BallPoints(%d) enumerated %d points, BallSize = %d", d, n, BallSize(d))
		}
	}
}

func TestBallPointsAllInBall(t *testing.T) {
	const d = 9
	BallPoints(d, func(p Point) bool {
		if p.Norm() > d {
			t.Errorf("BallPoints(%d) produced out-of-ball point %v", int64(d), p)
		}
		return true
	})
}

func TestBallPointsEarlyStop(t *testing.T) {
	var n int
	BallPoints(10, func(Point) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop after %d points, want 5", n)
	}
}

func TestSphereSizeMatchesBallDifference(t *testing.T) {
	for d := int64(0); d <= 50; d++ {
		var want int64
		if d == 0 {
			want = 1
		} else {
			want = BallSize(d) - BallSize(d-1)
		}
		if got := SphereSize(d); got != want {
			t.Errorf("SphereSize(%d) = %d, want %d", d, got, want)
		}
	}
}

func TestSpherePointEnumeratesSphereExactly(t *testing.T) {
	for d := int64(1); d <= 8; d++ {
		seen := make(map[Point]bool)
		for i := int64(0); i < SphereSize(d); i++ {
			p := SpherePoint(d, i)
			if p.Norm() != d {
				t.Fatalf("SpherePoint(%d, %d) = %v has norm %d", d, i, p, p.Norm())
			}
			if seen[p] {
				t.Fatalf("SpherePoint(%d, %d) = %v duplicated", d, i, p)
			}
			seen[p] = true
		}
		if int64(len(seen)) != SphereSize(d) {
			t.Fatalf("d=%d enumerated %d distinct points, want %d", d, len(seen), SphereSize(d))
		}
	}
}

func TestSpherePointZero(t *testing.T) {
	if p := SpherePoint(0, 0); p != (Point{}) {
		t.Errorf("SpherePoint(0,0) = %v, want origin", p)
	}
}

func TestSpherePointPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range sphere index")
		}
	}()
	SpherePoint(3, SphereSize(3))
}

func TestClamp(t *testing.T) {
	tests := []struct {
		p    Point
		d    int64
		want Point
	}{
		{Point{X: 10, Y: -10}, 4, Point{X: 4, Y: -4}},
		{Point{X: 1, Y: 2}, 4, Point{X: 1, Y: 2}},
		{Point{X: -9, Y: 0}, 3, Point{X: -3, Y: 0}},
	}
	for _, tt := range tests {
		if got := tt.p.Clamp(tt.d); got != tt.want {
			t.Errorf("Clamp(%v, %d) = %v, want %v", tt.p, tt.d, got, tt.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x, y int32, dRaw uint8) bool {
		d := int64(dRaw)
		p := Point{X: int64(x), Y: int64(y)}
		q := p.Clamp(d)
		if q.Norm() > d {
			return false
		}
		// Clamping an in-range point is the identity.
		if p.Norm() <= d && q != p {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVisitSetBasic(t *testing.T) {
	v := NewVisitSet(4)
	p := Point{X: 1, Y: 2}
	if v.Contains(p) {
		t.Error("fresh set should not contain point")
	}
	if !v.Visit(p) {
		t.Error("first visit should report new")
	}
	if v.Visit(p) {
		t.Error("second visit should report not-new")
	}
	if !v.Contains(p) {
		t.Error("set should contain visited point")
	}
	if v.CountInBall() != 1 {
		t.Errorf("CountInBall = %d, want 1", v.CountInBall())
	}
}

// TestVisitSetSparseOverflow pins the ball-only contract in both backings:
// a point outside the radius-r ball is ignored — Visit reports false, it is
// never contained, and it is not counted.
func TestVisitSetSparseOverflow(t *testing.T) {
	for _, v := range []*VisitSet{NewVisitSet(2), NewSparseVisitSet(2)} {
		far := Point{X: 100, Y: -50}
		if v.Visit(far) {
			t.Errorf("sparse=%v: far visit should be ignored", v.Sparse())
		}
		if v.Contains(far) {
			t.Errorf("sparse=%v: far point should not be contained", v.Sparse())
		}
		edge := Point{X: 2, Y: -2}
		if !v.Visit(edge) || !v.Contains(edge) {
			t.Errorf("sparse=%v: ball-boundary point %v not recorded", v.Sparse(), edge)
		}
		if v.CountInBall() != 1 {
			t.Errorf("sparse=%v: CountInBall = %d, want 1", v.Sparse(), v.CountInBall())
		}
	}
}

func TestVisitSetCoverage(t *testing.T) {
	v := NewVisitSet(3)
	BallPoints(3, func(p Point) bool {
		v.Visit(p)
		return true
	})
	if got := v.CoverageFraction(); got != 1.0 {
		t.Errorf("full coverage fraction = %v, want 1", got)
	}
	if v.CountInBall() != BallSize(3) {
		t.Errorf("CountInBall = %d, want %d", v.CountInBall(), BallSize(3))
	}
}

func TestVisitSetMergeSameRadius(t *testing.T) {
	a := NewVisitSet(5)
	b := NewVisitSet(5)
	a.Visit(Point{X: 1, Y: 1})
	b.Visit(Point{X: 1, Y: 1})
	b.Visit(Point{X: -2, Y: 3})
	b.Visit(Point{X: 40, Y: 0}) // outside the ball: ignored by b
	a.Merge(b)
	if a.CountInBall() != 2 {
		t.Errorf("merged CountInBall = %d, want 2", a.CountInBall())
	}
	for _, p := range []Point{{1, 1}, {-2, 3}} {
		if !a.Contains(p) {
			t.Errorf("merged set missing %v", p)
		}
	}
	if a.Contains(Point{X: 40, Y: 0}) {
		t.Error("merged set holds a point outside the ball")
	}
}

func TestVisitSetMergeDifferentRadius(t *testing.T) {
	a := NewVisitSet(10)
	b := NewVisitSet(2)
	b.Visit(Point{X: 1, Y: 0})
	b.Visit(Point{X: 5, Y: 5}) // outside b's ball: never recorded
	a.Merge(b)
	if a.CountInBall() != 1 || !a.Contains(Point{X: 1, Y: 0}) {
		t.Errorf("merged CountInBall = %d, want 1 holding (1,0)", a.CountInBall())
	}
	if a.Contains(Point{X: 5, Y: 5}) {
		t.Error("merge recovered a point its source never recorded")
	}
}

func TestVisitSetMergeNil(t *testing.T) {
	a := NewVisitSet(1)
	a.Merge(nil) // must not panic
	if a.CountInBall() != 0 {
		t.Errorf("CountInBall after nil merge = %d", a.CountInBall())
	}
}

func TestVisitSetMergeMatchesUnion(t *testing.T) {
	// Property: merging random sets equals the set union restricted to the
	// ball, including counts.
	const r = 8
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := NewVisitSet(r)
		b := NewVisitSet(r)
		union := make(map[Point]bool)
		for i := 0; i < 200; i++ {
			p := Point{X: int64(rnd.Intn(31) - 15), Y: int64(rnd.Intn(31) - 15)}
			if rnd.Intn(2) == 0 {
				a.Visit(p)
			} else {
				b.Visit(p)
			}
			if p.Norm() <= r {
				union[p] = true
			}
		}
		a.Merge(b)
		if a.CountInBall() != int64(len(union)) {
			t.Fatalf("trial %d: merged count %d, want %d", trial, a.CountInBall(), len(union))
		}
		for y := int64(-15); y <= 15; y++ {
			for x := int64(-15); x <= 15; x++ {
				p := Point{X: x, Y: y}
				if a.Contains(p) != union[p] {
					t.Fatalf("trial %d: Contains(%v) = %v, want %v", trial, p, a.Contains(p), union[p])
				}
			}
		}
	}
}
func TestVisitSetNegativeRadius(t *testing.T) {
	v := NewVisitSet(-5)
	if v.Radius() != 0 {
		t.Errorf("Radius = %d, want 0", v.Radius())
	}
	if !v.Visit(Origin) {
		t.Error("origin visit should be new")
	}
}
