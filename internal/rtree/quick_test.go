package rtree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// ops is a random sequence of insert/delete operations plus query probes.
type ops struct {
	Coords [][2]float64
	Dels   []byte // delete item i%len after inserting when Dels[i] odd
}

func (ops) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 5 + r.Intn(120)
	o := ops{Coords: make([][2]float64, n), Dels: make([]byte, n)}
	for i := range o.Coords {
		o.Coords[i] = [2]float64{r.Float64() * 100, r.Float64() * 100}
		o.Dels[i] = byte(r.Intn(4))
	}
	return reflect.ValueOf(o)
}

// The tree agrees with a naive map through any insert/delete interleaving.
func TestQuickTreeMatchesNaive(t *testing.T) {
	f := func(o ops) bool {
		tr := New(2, Config{MaxEntries: 6, MinEntries: 2})
		live := map[int]Item{}
		for i, c := range o.Coords {
			it := Item{ID: i, Point: geom.NewPoint(c[0], c[1])}
			tr.Insert(it)
			live[i] = it
			if o.Dels[i]%2 == 1 && len(live) > 1 {
				// Delete some earlier item.
				for id, victim := range live {
					if !tr.Delete(victim) {
						return false
					}
					delete(live, id)
					break
				}
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		if err := tr.checkInvariants(); err != nil {
			return false
		}
		// Full-range query returns exactly the live set.
		got := map[int]bool{}
		tr.All(func(it Item) bool { got[it.ID] = true; return true })
		if len(got) != len(live) {
			return false
		}
		for id := range live {
			if !got[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Range queries agree with brute force for random windows.
func TestQuickRangeAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(o ops) bool {
		items := make([]Item, len(o.Coords))
		for i, c := range o.Coords {
			items[i] = Item{ID: i, Point: geom.NewPoint(c[0], c[1])}
		}
		tr := BulkLoad(2, items, Config{MaxEntries: 8})
		for probe := 0; probe < 5; probe++ {
			a := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
			b := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
			q := geom.NewRect(a, b)
			want := map[int]bool{}
			for _, it := range items {
				if q.Contains(it.Point) {
					want[it.ID] = true
				}
			}
			got := rangeQuery(tr, q)
			if len(got) != len(want) {
				return false
			}
			for _, it := range got {
				if !want[it.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Best-first emission order is monotone in the key for arbitrary data.
func TestQuickBestFirstMonotone(t *testing.T) {
	f := func(o ops) bool {
		items := make([]Item, len(o.Coords))
		for i, c := range o.Coords {
			items[i] = Item{ID: i, Point: geom.NewPoint(c[0], c[1])}
		}
		tr := BulkLoad(2, items, Config{MaxEntries: 5})
		origin := geom.NewPoint(50, 50)
		prev := -1.0
		count := 0
		ok := true
		tr.BestFirstChecked(nil,
			func(p geom.Point) float64 { return origin.L1(p) },
			func(r geom.Rect) float64 { return r.MinDistL1(origin) },
			nil,
			func(_ Item, key float64) bool {
				if key < prev-1e-12 {
					ok = false
					return false
				}
				prev = key
				count++
				return true
			},
		)
		return ok && count == len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
