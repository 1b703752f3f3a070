package grid

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

func randItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)}
	}
	return items
}

func ids(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	sort.Ints(out)
	return out
}

func TestGridMatchesBruteRange(t *testing.T) {
	items := randItems(2000, 1)
	g := New(2, items, 32)
	if g.Len() != 2000 {
		t.Fatalf("Len = %d", g.Len())
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		a := geom.NewPoint(rng.Float64()*120-10, rng.Float64()*120-10)
		b := geom.NewPoint(rng.Float64()*120-10, rng.Float64()*120-10)
		q := geom.NewRect(a, b)
		var want []int
		for _, it := range items {
			if q.Contains(it.Point) {
				want = append(want, it.ID)
			}
		}
		sort.Ints(want)
		got := ids(g.RangeQuery(q))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: id mismatch", trial)
			}
		}
	}
}

func TestGridEmptyAndDegenerate(t *testing.T) {
	g := New(2, nil, 16)
	if g.Len() != 0 {
		t.Fatal("empty grid")
	}
	if _, ok := g.Bounds(); ok {
		t.Fatal("empty grid has no bounds")
	}
	g.Search(geom.NewRect(geom.NewPoint(0, 0), geom.NewPoint(1, 1)), func(Item) bool {
		t.Fatal("search on empty grid yielded an item")
		return false
	})
	// All points identical: degenerate bounds, single cell.
	same := []Item{{ID: 1, Point: geom.NewPoint(5, 5)}, {ID: 2, Point: geom.NewPoint(5, 5)}}
	g2 := New(2, same, 8)
	if got := g2.RangeQuery(geom.PointRect(geom.NewPoint(5, 5))); len(got) != 2 {
		t.Fatalf("degenerate grid query = %d", len(got))
	}
	// Resolution below 1 is clamped.
	g3 := New(2, same, 0)
	if got := len(g3.RangeQuery(geom.PointRect(geom.NewPoint(5, 5)))); got != 2 {
		t.Fatalf("res-0 grid query = %d", got)
	}
}

func TestGridExistsShortCircuit(t *testing.T) {
	items := randItems(1000, 3)
	g := New(2, items, 16)
	all := geom.NewRect(geom.NewPoint(0, 0), geom.NewPoint(100, 100))
	visited := 0
	g.Exists(all, func(Item) bool { visited++; return true })
	if visited != 1 {
		t.Fatalf("Exists visited %d, want 1", visited)
	}
	if g.Exists(all, func(Item) bool { return false }) {
		t.Fatal("unsatisfiable predicate must be false")
	}
}

// The grid's window-existence test agrees with the R-tree's on random data,
// so reverse-skyline verification is index-independent.
func TestGridWindowExistsMatchesRTree(t *testing.T) {
	items := datagen.Generate(datagen.CarDB, 3000, 2, 5)
	g := New(2, items, 48)
	db := rskyline.NewDB(2, items, rtree.Config{})
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		c := items[rng.Intn(len(items))]
		q := items[rng.Intn(len(items))].Point.Clone()
		q[0] *= 1 + 0.1*(rng.Float64()-0.5)
		want, _ := db.WindowExistsChecked(nil, c.Point, q, c.ID)
		got := g.WindowExists(c.Point, q, c.ID)
		if got != want {
			t.Fatalf("trial %d: grid=%v rtree=%v (c=%v q=%v)", trial, got, want, c.Point, q)
		}
	}
}
