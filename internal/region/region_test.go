package region

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func rect(x1, y1, x2, y2 float64) geom.Rect {
	return geom.NewRect(geom.NewPoint(x1, y1), geom.NewPoint(x2, y2))
}

func TestSetContains(t *testing.T) {
	s := Set{rect(0, 0, 2, 2), rect(5, 5, 7, 7)}
	if !s.Contains(geom.NewPoint(1, 1)) || !s.Contains(geom.NewPoint(6, 6)) {
		t.Error("points in member rects must be contained")
	}
	if s.Contains(geom.NewPoint(3, 3)) {
		t.Error("gap point must not be contained")
	}
	if Set(nil).Contains(geom.NewPoint(0, 0)) {
		t.Error("empty set contains nothing")
	}
}

func TestPrune(t *testing.T) {
	s := Set{rect(0, 0, 10, 10), rect(1, 1, 5, 5), rect(20, 20, 30, 30), rect(0, 0, 10, 10)}
	p := s.Prune()
	if len(p) != 2 {
		t.Fatalf("Prune kept %d rects, want 2: %v", len(p), p)
	}
	if !Equivalent(s, p) {
		t.Fatal("pruning must preserve the region")
	}
}

// overlaps reports whether some rectangle of s meets some rectangle of o.
func overlaps(s, o Set) bool {
	for _, a := range s {
		for _, b := range o {
			if a.Intersects(b) {
				return true
			}
		}
	}
	return false
}

func TestIntersectSet(t *testing.T) {
	a := Set{rect(0, 0, 4, 4), rect(6, 0, 10, 4)}
	b := Set{rect(2, 2, 8, 8)}
	got := a.IntersectSet(b)
	want := Set{rect(2, 2, 4, 4), rect(6, 2, 8, 4)}
	if !Equivalent(got, want) {
		t.Fatalf("IntersectSet = %v, want %v", got, want)
	}
	if !overlaps(a, b) {
		t.Error("a pairwise overlap must agree with non-empty intersection")
	}
	far := Set{rect(100, 100, 101, 101)}
	if len(a.IntersectSet(far)) != 0 || overlaps(a, far) {
		t.Error("disjoint sets must not intersect")
	}
}

func TestAreaBasics(t *testing.T) {
	cases := []struct {
		s    Set
		want float64
	}{
		{nil, 0},
		{Set{rect(0, 0, 2, 3)}, 6},
		{Set{rect(0, 0, 2, 2), rect(4, 4, 6, 6)}, 8},  // disjoint
		{Set{rect(0, 0, 4, 4), rect(2, 2, 6, 6)}, 28}, // overlap 4
		{Set{rect(0, 0, 4, 4), rect(1, 1, 2, 2)}, 16}, // contained
		{Set{rect(0, 0, 4, 4), rect(4, 0, 8, 4)}, 32}, // touching
		{Set{rect(0, 0, 4, 4), rect(0, 0, 4, 4)}, 16}, // duplicate
		{Set{rect(0, 0, 0, 5), rect(3, 3, 3, 9)}, 0},  // degenerate
	}
	for i, c := range cases {
		if got := c.s.Area(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: Area = %v, want %v", i, got, c.want)
		}
	}
}

func TestArea3D(t *testing.T) {
	a := geom.NewRect(geom.NewPoint(0, 0, 0), geom.NewPoint(2, 2, 2))
	b := geom.NewRect(geom.NewPoint(1, 1, 1), geom.NewPoint(3, 3, 3))
	s := Set{a, b}
	if got := s.Area(); math.Abs(got-15) > 1e-12 { // 8+8-1
		t.Fatalf("3-d union volume = %v, want 15", got)
	}
}

// Property: union area vs Monte Carlo estimate on random rect sets.
func TestAreaMonteCarloAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		var s Set
		for i := 0; i < 8; i++ {
			x, y := rng.Float64()*8, rng.Float64()*8
			s = append(s, rect(x, y, x+rng.Float64()*4, y+rng.Float64()*4))
		}
		exact := s.Area()
		const n = 200000
		hits := 0
		for i := 0; i < n; i++ {
			p := geom.NewPoint(rng.Float64()*12, rng.Float64()*12)
			if s.Contains(p) {
				hits++
			}
		}
		mc := float64(hits) / n * 144
		if math.Abs(mc-exact) > 0.05*144 {
			t.Fatalf("trial %d: exact %v vs MC %v", trial, exact, mc)
		}
	}
}

func TestNearestPoint(t *testing.T) {
	s := Set{rect(0, 0, 2, 2), rect(10, 10, 12, 12)}
	p, d, ok := s.NearestPoint(geom.NewPoint(3, 1), nil)
	if !ok || !p.Equal(geom.NewPoint(2, 1)) || d != 1 {
		t.Fatalf("NearestPoint = %v d=%v ok=%v", p, d, ok)
	}
	// Inside a rect: distance zero, point itself.
	p, d, _ = s.NearestPoint(geom.NewPoint(11, 11), nil)
	if !p.Equal(geom.NewPoint(11, 11)) || d != 0 {
		t.Fatalf("inside NearestPoint = %v d=%v", p, d)
	}
	if _, _, ok := Set(nil).NearestPoint(geom.NewPoint(0, 0), nil); ok {
		t.Fatal("empty set has no nearest point")
	}
	// Weighted: heavy x-weight flips the winner.
	s2 := Set{rect(4, 0, 5, 1), rect(0, 4, 1, 5)}
	q := geom.NewPoint(0, 0)
	p, _, _ = s2.NearestPoint(q, []float64{10, 1})
	if !p.Equal(geom.NewPoint(0, 4)) {
		t.Fatalf("weighted NearestPoint = %v, want (0, 4)", p)
	}
}

func TestCorners(t *testing.T) {
	s := Set{rect(0, 0, 1, 1), rect(1, 1, 2, 2)}
	cs := s.Corners()
	if len(cs) != 7 { // 4 + 4 − shared (1,1)
		t.Fatalf("Corners returned %d points, want 7: %v", len(cs), cs)
	}
}

func TestStaircase2DSimple(t *testing.T) {
	// Two skyline points a=(1,5), b=(3,2), universe (10,10).
	tr := []geom.Point{geom.NewPoint(1, 5), geom.NewPoint(3, 2)}
	u := geom.NewPoint(10, 10)
	corners := StaircaseCorners2D(tr, u)
	want := map[string]bool{"(1, 10)": true, "(3, 5)": true, "(10, 2)": true}
	if len(corners) != 3 {
		t.Fatalf("corners = %v, want 3", corners)
	}
	for _, c := range corners {
		if !want[c.String()] {
			t.Fatalf("unexpected corner %v", c)
		}
	}
}

func TestStaircaseEmptySkyline(t *testing.T) {
	u := geom.NewPoint(7, 9)
	for _, corners := range [][]geom.Point{
		StaircaseCorners2D(nil, u),
		StaircaseCornersGrid(nil, u),
	} {
		if len(corners) != 1 || !corners[0].Equal(u) {
			t.Fatalf("empty skyline corners = %v, want [%v]", corners, u)
		}
	}
}

func TestStaircaseFiltersDominated(t *testing.T) {
	// (2,2) is dominated by (1,1); only (1,1) shapes the staircase.
	tr := []geom.Point{geom.NewPoint(1, 1), geom.NewPoint(2, 2)}
	u := geom.NewPoint(5, 5)
	corners := StaircaseCorners2D(tr, u)
	if len(corners) != 2 {
		t.Fatalf("corners = %v, want 2", corners)
	}
}

func TestStaircase2DMatchesGridRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		tr := make([]geom.Point, n)
		for i := range tr {
			tr[i] = geom.NewPoint(rng.Float64()*10, rng.Float64()*10)
		}
		u := geom.NewPoint(12, 12)
		fast := cornersToSet(StaircaseCorners2D(tr, u))
		grid := cornersToSet(StaircaseCornersGrid(tr, u))
		if !Equivalent(fast, grid) {
			t.Fatalf("trial %d: 2-d staircase %v != grid %v (points %v)", trial, fast, grid, tr)
		}
	}
}

func cornersToSet(corners []geom.Point) Set {
	var s Set
	origin := make(geom.Point, len(corners[0]))
	for _, m := range corners {
		s = append(s, geom.NewRect(origin, m))
	}
	return s
}

// Property: the staircase region contains exactly the points of the universe
// not strictly dominated by any skyline point (up to the closed boundary).
func TestStaircaseMembershipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		tr := make([]geom.Point, n)
		for i := range tr {
			tr[i] = geom.NewPoint(1+rng.Float64()*8, 1+rng.Float64()*8)
		}
		u := geom.NewPoint(10, 10)
		s := cornersToSet(StaircaseCorners2D(tr, u))
		for probe := 0; probe < 200; probe++ {
			p := geom.NewPoint(rng.Float64()*10, rng.Float64()*10)
			dominated := false
			weaklyDominated := false
			for _, sk := range tr {
				if sk.Dominates(p) {
					dominated = true
				}
				if sk.WeaklyDominates(p) {
					weaklyDominated = true
				}
			}
			in := s.Contains(p)
			if !weaklyDominated && !in {
				t.Fatalf("trial %d: undominated point %v outside staircase", trial, p)
			}
			if dominated && in {
				// Allowed only on the measure-zero closed boundary: the point
				// must sit on a corner boundary.
				onBoundary := false
				for _, r := range s {
					if r.Contains(p) && !r.ContainsStrict(p) {
						onBoundary = true
						break
					}
				}
				if !onBoundary {
					t.Fatalf("trial %d: dominated interior point %v inside staircase", trial, p)
				}
			}
		}
	}
}

func TestStaircaseGrid3D(t *testing.T) {
	tr := []geom.Point{
		geom.NewPoint(1, 5, 5),
		geom.NewPoint(5, 1, 5),
		geom.NewPoint(5, 5, 1),
	}
	u := geom.NewPoint(10, 10, 10)
	corners := StaircaseCornersGrid(tr, u)
	s := cornersToSet(corners)
	rng := rand.New(rand.NewSource(29))
	for probe := 0; probe < 500; probe++ {
		p := geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		dominated := false
		for _, sk := range tr {
			if sk.Dominates(p) {
				dominated = true
				break
			}
		}
		if dominated == s.Contains(p) {
			// Tolerate closed-boundary coincidences only.
			weak := false
			for _, sk := range tr {
				if sk.WeaklyDominates(p) && !sk.Equal(p) {
					weak = true
				}
			}
			if dominated && s.Contains(p) && !weak {
				t.Fatalf("3-d staircase misclassifies %v", p)
			}
			if !dominated && !s.Contains(p) {
				t.Fatalf("3-d staircase misses undominated %v", p)
			}
		}
	}
}

// Paper §V.B worked example: the anti-DDR of c7 = (26, 70) over the Fig. 1
// products (excluding c7's own record) is the region covered by the four
// rectangles r1..r4 listed in the paper.
func TestAntiDDRPaperC7(t *testing.T) {
	c7 := geom.NewPoint(26, 70)
	products := []geom.Point{
		geom.NewPoint(5, 30), geom.NewPoint(7.5, 42), geom.NewPoint(2.5, 70),
		geom.NewPoint(7.5, 90), geom.NewPoint(24, 20), geom.NewPoint(20, 50),
		geom.NewPoint(16, 80),
	}
	// DSL(c7) computed over those products: {p3, p5, p6, p8} (transformed
	// staircase (23.5,0),(2,50),(6,20),(10,10)).
	dsl := []geom.Point{
		geom.NewPoint(2.5, 70), geom.NewPoint(24, 20),
		geom.NewPoint(20, 50), geom.NewPoint(16, 80),
	}
	universe := geom.MBR(append(products, geom.NewPoint(26, 70)))
	got, _ := AntiDDRChecked(c7, dsl, universe, nil)
	want := Set{
		rect(2.5, 60, 49.5, 80),
		rect(16, 50, 36, 90),
		rect(20, 20, 32, 120),
		rect(24, 50, 28, 90),
	}
	if !Equivalent(got, want) {
		t.Fatalf("anti-DDR(c7) = %v (area %v), want %v (area %v)",
			got, got.Area(), want, want.Area())
	}
	// q = (8.5, 55) must lie outside anti-DDR(c7): c7 is a why-not point.
	if got.Contains(geom.NewPoint(8.5, 55)) {
		t.Fatal("q must not be inside anti-DDR(c7)")
	}
	// And c7 itself is always inside its own anti-DDR.
	if !got.Contains(c7) {
		t.Fatal("c7 must be inside its own anti-DDR")
	}
}

// Membership property for AntiDDRChecked against the raw definition: a point x is in
// the anti-DDR of c iff no DSL point dynamically dominates x w.r.t. c
// (closed-boundary tolerance).
func TestAntiDDRMembershipProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		var products []geom.Point
		for i := 0; i < 60; i++ {
			products = append(products, geom.NewPoint(rng.Float64()*100, rng.Float64()*100))
		}
		c := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		universe := geom.MBR(products)
		// Brute-force dynamic skyline of c.
		var dsl []geom.Point
		for i, p := range products {
			dominated := false
			for j, o := range products {
				if i != j && geom.DynDominates(c, o, p) {
					dominated = true
					break
				}
			}
			if !dominated {
				dsl = append(dsl, p)
			}
		}
		add, _ := AntiDDRChecked(c, dsl, universe, nil)
		for probe := 0; probe < 200; probe++ {
			x := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
			if !universe.Contains(x) {
				continue
			}
			dominated := false
			for _, s := range dsl {
				if geom.DynDominates(c, s, x) {
					dominated = true
					break
				}
			}
			in := add.Contains(x)
			if !dominated && !in {
				t.Fatalf("trial %d: undominated %v outside anti-DDR of %v", trial, x, c)
			}
			// dominated ∧ in can only happen on the closed boundary, which
			// random probes hit with probability zero; treat as failure.
			if dominated && in {
				t.Fatalf("trial %d: dominated %v inside anti-DDR of %v", trial, x, c)
			}
		}
	}
}

func TestApproxAntiDDRIsSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		var dsl []geom.Point
		for i := 0; i < 12; i++ {
			dsl = append(dsl, geom.NewPoint(rng.Float64()*50, rng.Float64()*50))
		}
		c := geom.NewPoint(50, 50)
		universe := rect(0, 0, 100, 100)
		exact, _ := AntiDDRChecked(c, dsl, universe, nil)
		// Sample 4 of the DSL points plus forced extremes, like §VI.B.1.
		u := universe.TransformMinMax(c).Hi
		sampled := samplePoints(dsl, c, 4)
		corners := ApproxAntiDDRCorners(c, sampled, u, 0)
		approx := AntiDDRFromCorners(c, corners)
		// Subset check: approx ∩ exact must equal approx (by measure).
		inter := approx.IntersectSet(exact)
		if math.Abs(inter.Area()-approx.Area()) > 1e-6*(1+approx.Area()) {
			t.Fatalf("trial %d: approx anti-DDR not a subset (approx %v, inter %v)",
				trial, approx.Area(), inter.Area())
		}
	}
}

// samplePoints mimics the k-sampling: sort the transformed skyline of dsl by
// dim 0, keep every ⌈n/k⌉-th plus the last.
func samplePoints(dsl []geom.Point, c geom.Point, k int) []geom.Point {
	sky := minimalPoints(transformAll(dsl, c))
	// Back-map: sampling operates on original points; reuse order of sky.
	// For the test it is enough to pick original points whose transforms are
	// in sky, in sorted order.
	var origs []geom.Point
	for _, s := range sky {
		for _, p := range dsl {
			if p.Transform(c).Equal(s) {
				origs = append(origs, p)
				break
			}
		}
	}
	step := (len(origs) + k - 1) / k
	if step < 1 {
		step = 1
	}
	var out []geom.Point
	for i := 0; i < len(origs); i += step {
		out = append(out, origs[i])
	}
	out = append(out, origs[len(origs)-1])
	return out
}

func transformAll(pts []geom.Point, c geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Transform(c)
	}
	return out
}

func TestEquivalent(t *testing.T) {
	a := Set{rect(0, 0, 4, 4)}
	b := Set{rect(0, 0, 2, 4), rect(2, 0, 4, 4)} // same region, split
	if !Equivalent(a, b) {
		t.Error("split representation must be equivalent")
	}
	c := Set{rect(0, 0, 4, 4.0001)}
	if Equivalent(a, c) {
		t.Error("different regions must not be equivalent")
	}
	// Equal area, different place.
	d := Set{rect(10, 10, 14, 14)}
	if Equivalent(a, d) {
		t.Error("same-area disjoint regions must not be equivalent")
	}
}

func TestIsEmptyAndIntersectRect(t *testing.T) {
	if !(Set{}).IsEmpty() || (Set{rect(0, 0, 1, 1)}).IsEmpty() {
		t.Fatal("IsEmpty basics")
	}
	s := Set{rect(0, 0, 4, 4), rect(6, 6, 9, 9)}
	got := s.IntersectRect(rect(3, 3, 7, 7))
	want := Set{rect(3, 3, 4, 4), rect(6, 6, 7, 7)}
	if !Equivalent(got, want) {
		t.Fatalf("IntersectRect = %v", got)
	}
}

func TestInteriorNudge(t *testing.T) {
	s := Set{rect(0, 0, 10, 10), rect(20, 20, 21, 21)}
	// A corner point moves strictly inside the containing rect.
	p := geom.NewPoint(0, 0)
	n := s.InteriorNudge(p, 0.1)
	if !s[0].ContainsStrict(n) {
		t.Fatalf("nudged point %v not strictly inside", n)
	}
	// The larger containing rect wins when several contain p.
	overlap := Set{rect(0, 0, 2, 2), rect(0, 0, 10, 10)}
	n2 := overlap.InteriorNudge(geom.NewPoint(0, 0), 0.5)
	if !n2.ApproxEqual(geom.NewPoint(2.5, 2.5), 1e-9) {
		t.Fatalf("nudge toward larger rect centre = %v", n2)
	}
	// Degenerate-only containment returns the point unchanged.
	line := Set{geom.NewRect(geom.NewPoint(5, 0), geom.NewPoint(5, 9))}
	if got := line.InteriorNudge(geom.NewPoint(5, 3), 0.1); !got.Equal(geom.NewPoint(5, 3)) {
		t.Fatalf("degenerate nudge = %v", got)
	}
	// Points outside every rect come back unchanged.
	if got := s.InteriorNudge(geom.NewPoint(99, 99), 0.1); !got.Equal(geom.NewPoint(99, 99)) {
		t.Fatalf("outside nudge = %v", got)
	}
}
