package geom

import (
	"math/rand"
	"testing"
)

func rect(x1, y1, x2, y2 float64) Rect {
	return NewRect(NewPoint(x1, y1), NewPoint(x2, y2))
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(NewPoint(5, 1), NewPoint(2, 4))
	if !r.Lo.Equal(NewPoint(2, 1)) || !r.Hi.Equal(NewPoint(5, 4)) {
		t.Fatalf("NewRect did not normalise corners: %v", r)
	}
	if !r.IsValid() {
		t.Fatal("normalised rect must be valid")
	}
}

func TestRectContains(t *testing.T) {
	r := rect(0, 0, 10, 10)
	cases := []struct {
		p              Point
		closed, strict bool
	}{
		{NewPoint(5, 5), true, true},
		{NewPoint(0, 5), true, false},
		{NewPoint(10, 10), true, false},
		{NewPoint(-1, 5), false, false},
		{NewPoint(5, 11), false, false},
	}
	for _, c := range cases {
		if got := r.Contains(c.p); got != c.closed {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.closed)
		}
		if got := r.ContainsStrict(c.p); got != c.strict {
			t.Errorf("ContainsStrict(%v) = %v, want %v", c.p, got, c.strict)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	a := rect(0, 0, 5, 5)
	b := rect(3, 3, 8, 8)
	got, ok := a.Intersect(b)
	if !ok {
		t.Fatal("rects should intersect")
	}
	want := rect(3, 3, 5, 5)
	if !got.Lo.Equal(want.Lo) || !got.Hi.Equal(want.Hi) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	// Touching boundary: closed semantics → degenerate intersection.
	c := rect(5, 0, 9, 5)
	got, ok = a.Intersect(c)
	if !ok || got.Lo[0] != 5 || got.Hi[0] != 5 {
		t.Fatalf("touching rects should yield degenerate intersection, got %v ok=%v", got, ok)
	}
	// Disjoint.
	d := rect(6, 6, 7, 7)
	if _, ok := a.Intersect(d); ok {
		t.Fatal("disjoint rects must not intersect")
	}
	if a.Intersects(d) {
		t.Fatal("Intersects must agree with Intersect")
	}
}

func TestRectAreaMarginCenter(t *testing.T) {
	r := rect(1, 2, 4, 6)
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %v, want 12", got)
	}
	if got := r.Margin(); got != 7 {
		t.Errorf("Margin = %v, want 7", got)
	}
	if got := r.Center(); !got.Equal(NewPoint(2.5, 4)) {
		t.Errorf("Center = %v", got)
	}
}

func TestOverlapArea(t *testing.T) {
	a := rect(0, 0, 4, 4)
	b := rect(2, 2, 6, 6)
	if got := a.OverlapArea(b); got != 4 {
		t.Errorf("OverlapArea = %v, want 4", got)
	}
	if got := a.OverlapArea(rect(4, 0, 8, 4)); got != 0 {
		t.Errorf("touching rects have zero overlap area, got %v", got)
	}
}

func TestCorners(t *testing.T) {
	r := rect(0, 0, 1, 2)
	cs := r.Corners()
	if len(cs) != 4 {
		t.Fatalf("2-d rect has 4 corners, got %d", len(cs))
	}
	want := map[string]bool{"(0, 0)": true, "(1, 0)": true, "(0, 2)": true, "(1, 2)": true}
	for _, c := range cs {
		if !want[c.String()] {
			t.Errorf("unexpected corner %v", c)
		}
	}
	r3 := NewRect(NewPoint(0, 0, 0), NewPoint(1, 1, 1))
	if len(r3.Corners()) != 8 {
		t.Fatal("3-d rect has 8 corners")
	}
}

func TestNearestPointAndMinDist(t *testing.T) {
	r := rect(0, 0, 4, 4)
	cases := []struct {
		p, nearest Point
		l1         float64
	}{
		{NewPoint(2, 2), NewPoint(2, 2), 0},
		{NewPoint(-1, 2), NewPoint(0, 2), 1},
		{NewPoint(6, 7), NewPoint(4, 4), 5},
	}
	for _, c := range cases {
		if got := r.NearestPoint(c.p); !got.Equal(c.nearest) {
			t.Errorf("NearestPoint(%v) = %v, want %v", c.p, got, c.nearest)
		}
		if got := r.MinDistL1(c.p); got != c.l1 {
			t.Errorf("MinDistL1(%v) = %v, want %v", c.p, got, c.l1)
		}
	}
}

func TestWindowRect(t *testing.T) {
	// Paper Fig. 4(b): window of c1=(5,30) w.r.t. q=(8.5,55).
	c := NewPoint(5, 30)
	q := NewPoint(8.5, 55)
	w := WindowRect(c, q)
	if !w.Lo.Equal(NewPoint(1.5, 5)) || !w.Hi.Equal(NewPoint(8.5, 55)) {
		t.Fatalf("WindowRect = %v, want [(1.5,5),(8.5,55)]", w)
	}
	if !w.Contains(NewPoint(7.5, 42)) {
		t.Error("p2 must be inside c1's window (paper Fig. 4b)")
	}
	if !w.Contains(q) {
		t.Error("q is always a corner of its own window")
	}
}

func TestTransformMinMax(t *testing.T) {
	c := NewPoint(5, 5)
	r := rect(6, 2, 8, 4) // entirely right of c in x, below in y
	tr := r.TransformMinMax(c)
	if !tr.Lo.Equal(NewPoint(1, 1)) || !tr.Hi.Equal(NewPoint(3, 3)) {
		t.Fatalf("TransformMinMax = %v", tr)
	}
	// Rect straddling c in x: min distance 0.
	r2 := rect(3, 2, 8, 4)
	tr2 := r2.TransformMinMax(c)
	if tr2.Lo[0] != 0 || tr2.Hi[0] != 3 {
		t.Fatalf("straddling TransformMinMax = %v", tr2)
	}
}

// Property: TransformMinMax bounds the transform of every contained point.
func TestTransformMinMaxBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		c := NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		a := NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		b := NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		r := NewRect(a, b)
		bounds := r.TransformMinMax(c)
		// Sample random points inside r.
		for j := 0; j < 10; j++ {
			p := make(Point, 3)
			for k := range p {
				p[k] = r.Lo[k] + rng.Float64()*(r.Hi[k]-r.Lo[k])
			}
			tp := p.Transform(c)
			if !bounds.Contains(tp) {
				t.Fatalf("transform %v of %v escapes bounds %v (c=%v r=%v)", tp, p, bounds, c, r)
			}
		}
	}
}

func TestMBR(t *testing.T) {
	pts := []Point{NewPoint(1, 5), NewPoint(3, 2), NewPoint(2, 7)}
	r := MBR(pts)
	if !r.Lo.Equal(NewPoint(1, 2)) || !r.Hi.Equal(NewPoint(3, 7)) {
		t.Fatalf("MBR = %v", r)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MBR of empty set must panic")
		}
	}()
	MBR(nil)
}

func TestExpandAndUnion(t *testing.T) {
	r := PointRect(NewPoint(2, 2))
	r.Expand(NewPoint(0, 5))
	if !r.Lo.Equal(NewPoint(0, 2)) || !r.Hi.Equal(NewPoint(2, 5)) {
		t.Fatalf("Expand = %v", r)
	}
	u := rect(0, 0, 1, 1).Union(rect(2, 2, 3, 3))
	if !u.Lo.Equal(NewPoint(0, 0)) || !u.Hi.Equal(NewPoint(3, 3)) {
		t.Fatalf("Union = %v", u)
	}
}

func TestContainsRect(t *testing.T) {
	outer := rect(0, 0, 10, 10)
	if !outer.ContainsRect(rect(1, 1, 9, 9)) {
		t.Error("inner rect should be contained")
	}
	if !outer.ContainsRect(outer) {
		t.Error("rect contains itself")
	}
	if outer.ContainsRect(rect(5, 5, 11, 9)) {
		t.Error("overflowing rect must not be contained")
	}
}
