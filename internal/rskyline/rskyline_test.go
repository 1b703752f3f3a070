package rskyline

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// fig1 returns the paper's running-example dataset (Fig. 1a).
func fig1() []Item {
	coords := [][2]float64{
		{5, 30}, {7.5, 42}, {2.5, 70}, {7.5, 90},
		{24, 20}, {20, 50}, {26, 70}, {16, 80},
	}
	items := make([]Item, len(coords))
	for i, c := range coords {
		items[i] = Item{ID: i + 1, Point: geom.NewPoint(c[0], c[1])}
	}
	return items
}

var paperQ = geom.NewPoint(8.5, 55)

func fig1DB() *DB { return NewDB(2, fig1(), rtree.Config{}) }

// must unwraps an unchecked query: with a nil checker or a background
// context no query can fail, so an error here is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func ids(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Paper Fig. 4(b): window query of c1 = pt1 returns {p2}.
func TestWindowQueryC1(t *testing.T) {
	db := fig1DB()
	c1 := geom.NewPoint(5, 30)
	got := must(db.WindowQueryChecked(nil, c1, paperQ, 1))
	if !equalInts(ids(got), []int{2}) {
		t.Fatalf("window_query(c1, q) = %v, want [2]", ids(got))
	}
	if !must(db.WindowExistsChecked(nil, c1, paperQ, 1)) {
		t.Fatal("WindowExists must agree")
	}
}

// Paper Fig. 4(a): window query of c2 = pt2 returns nothing, so c2 ∈ RSL(q).
func TestWindowQueryC2(t *testing.T) {
	db := fig1DB()
	c2 := geom.NewPoint(7.5, 42)
	if got := must(db.WindowQueryChecked(nil, c2, paperQ, 2)); len(got) != 0 {
		t.Fatalf("window_query(c2, q) = %v, want empty", ids(got))
	}
	if must(db.WindowExistsChecked(nil, c2, paperQ, 2)) {
		t.Fatal("WindowExists must agree")
	}
	if !must(db.IsReverseSkylineChecked(nil, Item{ID: 2, Point: c2}, paperQ)) {
		t.Fatal("c2 must be in RSL(q) (paper Fig. 4a)")
	}
}

// Paper §V.B example: RSL(q) over the Fig. 1 data (monochromatic) is
// {c2, c3, c4, c6, c8}.
func TestReverseSkylinePaperExample(t *testing.T) {
	db := fig1DB()
	customers := fig1()
	got := must(db.ReverseSkylineCtx(context.Background(), customers, paperQ))
	want := []int{2, 3, 4, 6, 8}
	if !equalInts(ids(got), want) {
		t.Fatalf("RSL(q) = %v, want %v", ids(got), want)
	}
	filtered := must(db.ReverseSkylineFilteredCtx(context.Background(), customers, paperQ))
	if !equalInts(ids(filtered), want) {
		t.Fatalf("filtered RSL(q) = %v, want %v", ids(filtered), want)
	}
}

// bruteIsRSL checks membership from first principles: q must be in the
// dynamic skyline of c over P∪{q} with c's own record removed.
func bruteIsRSL(products []Item, c Item, q geom.Point) bool {
	for _, p := range products {
		if p.ID == c.ID {
			continue
		}
		if geom.DynDominates(c.Point, p.Point, q) {
			return false
		}
	}
	return true
}

func randItems(n, dims int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		p := make(geom.Point, dims)
		for d := range p {
			p[d] = rng.Float64() * 100
		}
		items[i] = Item{ID: i, Point: p}
	}
	return items
}

func TestReverseSkylineMatchesBruteRandom(t *testing.T) {
	for _, dims := range []int{2, 3} {
		for seed := int64(0); seed < 4; seed++ {
			products := randItems(500, dims, seed)
			db := NewDB(dims, products, rtree.Config{})
			rng := rand.New(rand.NewSource(seed + 100))
			q := make(geom.Point, dims)
			for d := range q {
				q[d] = rng.Float64() * 100
			}
			var want []int
			for _, c := range products {
				if bruteIsRSL(products, c, q) {
					want = append(want, c.ID)
				}
			}
			sort.Ints(want)
			got := ids(must(db.ReverseSkylineCtx(context.Background(), products, q)))
			if !equalInts(got, want) {
				t.Fatalf("dims=%d seed=%d: RSL mismatch got=%v want=%v", dims, seed, got, want)
			}
			gotF := ids(must(db.ReverseSkylineFilteredCtx(context.Background(), products, q)))
			if !equalInts(gotF, want) {
				t.Fatalf("dims=%d seed=%d: filtered RSL mismatch got=%v want=%v", dims, seed, gotF, want)
			}
		}
	}
}

func TestBichromaticReverseSkyline(t *testing.T) {
	// Distinct product and customer sets: no exclusion interplay.
	products := randItems(300, 2, 7)
	customers := randItems(100, 2, 8)
	for i := range customers {
		customers[i].ID += 10000 // disjoint ID space
	}
	db := NewDB(2, products, rtree.Config{})
	q := geom.NewPoint(50, 50)
	var want []int
	for _, c := range customers {
		if bruteIsRSL(products, c, q) {
			want = append(want, c.ID)
		}
	}
	sort.Ints(want)
	if got := ids(must(db.ReverseSkylineCtx(context.Background(), customers, q))); !equalInts(got, want) {
		t.Fatalf("bichromatic RSL got=%v want=%v", got, want)
	}
	if got := ids(must(db.ReverseSkylineFilteredCtx(context.Background(), customers, q))); !equalInts(got, want) {
		t.Fatalf("bichromatic filtered RSL got=%v want=%v", got, want)
	}
}

func TestDynamicSkylineExcluding(t *testing.T) {
	db := fig1DB()
	c2 := geom.NewPoint(7.5, 42)
	// DSL(c2) over P \ {pt2} is {p1, p4, p6} (paper §I).
	got := ids(db.DynamicSkylineExcluding(c2, 2))
	if !equalInts(got, []int{1, 4, 6}) {
		t.Fatalf("DSL(c2) = %v, want [1 4 6]", got)
	}
	// Without exclusion pt2 itself (at distance zero) dominates everything.
	all := ids(db.DynamicSkylineExcluding(c2, NoExclude))
	if !equalInts(all, []int{2}) {
		t.Fatalf("DSL(c2) without exclusion = %v, want [2]", all)
	}
	if bbs := ids(must(db.DynamicSkylineChecked(nil, c2))); !equalInts(bbs, []int{2}) {
		t.Fatalf("BBS DSL(c2) = %v, want [2]", bbs)
	}
}

func TestRSLMembershipEquivalence(t *testing.T) {
	// Property: IsReverseSkyline(c, q) ⇔ q ∈ DSL(c) over P∪{q} (c excluded).
	products := randItems(200, 2, 9)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 50; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		c := products[rng.Intn(len(products))]
		got := must(db.IsReverseSkylineChecked(nil, c, q))
		// q ∈ DSL(c) iff nothing in P\{c} dynamically dominates q w.r.t. c.
		want := bruteIsRSL(products, c, q)
		if got != want {
			t.Fatalf("membership mismatch: c=%v q=%v got=%v want=%v", c, q, got, want)
		}
	}
}

func TestQueryAtCustomerLocation(t *testing.T) {
	// When q coincides with the customer, nothing can strictly dominate q
	// (every product is at best equal in the transformed space), so c ∈ RSL(q).
	products := randItems(100, 2, 11)
	db := NewDB(2, products, rtree.Config{})
	c := products[3]
	if !must(db.IsReverseSkylineChecked(nil, c, c.Point)) {
		t.Fatal("customer must be in RSL of a product placed exactly at it")
	}
}

func TestDBBasics(t *testing.T) {
	db := fig1DB()
	if db.Len() != 8 || db.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", db.Len(), db.Dims())
	}
	u, ok := db.Universe()
	if !ok || !u.Lo.Equal(geom.NewPoint(2.5, 20)) || !u.Hi.Equal(geom.NewPoint(26, 90)) {
		t.Fatalf("Universe = %v ok=%v", u, ok)
	}
	db.Insert(Item{ID: 99, Point: geom.NewPoint(1, 1)})
	if db.Len() != 9 {
		t.Fatal("Insert failed")
	}
	if !db.Delete(Item{ID: 99, Point: geom.NewPoint(1, 1)}) || db.Len() != 8 {
		t.Fatal("Delete failed")
	}
}

// Lemma 1: deleting Λ from P puts c_t into RSL(q).
func TestLemma1DeletionIncludesWhyNot(t *testing.T) {
	products := randItems(400, 2, 13)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(14))
	checked := 0
	for trial := 0; trial < 40 && checked < 10; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		c := products[rng.Intn(len(products))]
		lambda := must(db.WindowQueryChecked(nil, c.Point, q, c.ID))
		if len(lambda) == 0 {
			continue // already in RSL
		}
		checked++
		for _, p := range lambda {
			if !db.Delete(p) {
				t.Fatalf("failed to delete %v", p)
			}
		}
		if !must(db.IsReverseSkylineChecked(nil, c, q)) {
			t.Fatalf("Lemma 1 violated: c=%v q=%v still outside RSL after deleting Λ", c, q)
		}
		for _, p := range lambda {
			db.Insert(p)
		}
	}
	if checked == 0 {
		t.Fatal("no why-not cases sampled; test vacuous")
	}
}

func TestReverseSkylineBBRSMatchesMono(t *testing.T) {
	products := randItems(800, 2, 21)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		// The monochromatic RSL: every product record is a customer.
		got := ids(must(db.ReverseSkylineBBRSCtx(context.Background(), q)))
		plain := ids(must(db.ReverseSkylineCtx(context.Background(), products, q)))
		if !equalInts(got, plain) {
			t.Fatalf("trial %d: BBRS=%v plain=%v", trial, got, plain)
		}
	}
}

func TestReverseSkylinePaperExampleAllVariants(t *testing.T) {
	db := fig1DB()
	want := []int{2, 3, 4, 6, 8}
	if got := ids(must(db.ReverseSkylineCtx(context.Background(), fig1(), paperQ))); !equalInts(got, want) {
		t.Fatalf("mono RSL = %v", got)
	}
	if got := ids(must(db.ReverseSkylineBBRSCtx(context.Background(), paperQ))); !equalInts(got, want) {
		t.Fatalf("BBRS RSL = %v", got)
	}
}

// Concurrent read-only use of the DB must be race-free (access counting,
// window queries, the BBRS traversal). Run with -race to enforce.
func TestConcurrentReadsRaceFree(t *testing.T) {
	products := randItems(2000, 2, 71)
	db := NewDB(2, products, rtree.Config{})
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(seed int64) {
			defer func() { done <- struct{}{} }()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				c := products[rng.Intn(len(products))]
				q := products[rng.Intn(len(products))].Point
				must(db.WindowExistsChecked(nil, c.Point, q, c.ID))
				db.DynamicSkylineExcluding(c.Point, c.ID)
				if i%10 == 0 {
					must(db.ReverseSkylineBBRSCtx(context.Background(), q))
				}
			}
		}(int64(w))
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

// WindowFrontier equals filtering the materialised window down to its
// dominance minima, for both centre choices.
func TestWindowFrontierMatchesOracle(t *testing.T) {
	products := randItems(600, 2, 81)
	db := NewDB(2, products, rtree.Config{})
	rng := rand.New(rand.NewSource(82))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		c := products[rng.Intn(len(products))]
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		lambda := must(db.WindowQueryChecked(nil, c.Point, q, c.ID))
		if len(lambda) == 0 {
			continue
		}
		checked++
		for _, centre := range []geom.Point{q, c.Point} {
			var want []int
			for a, ea := range lambda {
				dominated := false
				for b, eb := range lambda {
					if a != b && geom.DynDominates(centre, eb.Point, ea.Point) {
						dominated = true
						break
					}
				}
				if !dominated {
					want = append(want, ea.ID)
				}
			}
			sort.Ints(want)
			got := ids(must(db.WindowFrontierChecked(nil, c.Point, q, centre, c.ID)))
			if !equalInts(got, want) {
				t.Fatalf("trial %d centre=%v: frontier %v, want %v", trial, centre, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("vacuous")
	}
}

func TestWindowFrontierEmpty(t *testing.T) {
	db := fig1DB()
	c2 := geom.NewPoint(7.5, 42)
	if got := must(db.WindowFrontierChecked(nil, c2, paperQ, paperQ, 2)); len(got) != 0 {
		t.Fatalf("frontier of an empty window = %v", got)
	}
}
