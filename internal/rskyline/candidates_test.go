package rskyline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/rtree"
)

// TestFilteredRSLCandidatesMatchOracle is the differential test of the
// serving path's reverse skyline, whose global-skyline candidates come from
// the index traversal: over UN/CO/AC data at d ∈ {2,3,4}, monochromatic and
// bichromatic customers, duplicate points, a product exactly at q and query
// points sharing a coordinate with a product, the result must equal the
// brute-force oracle's, member for member and in customer order, at width 1
// and width 2.
func TestFilteredRSLCandidatesMatchOracle(t *testing.T) {
	for _, kind := range []datagen.Kind{datagen.Uniform, datagen.Correlated, datagen.AntiCorrelated} {
		for _, dims := range []int{2, 3, 4} {
			seed := int64(dims)*10 + int64(kind)
			rng := rand.New(rand.NewSource(seed))
			products := datagen.Generate(kind, 400, dims, seed)
			// Duplicates under fresh IDs: a point and its copy tie in every
			// dimension, so neither may eliminate the other.
			for i := 0; i < 20; i++ {
				p := products[rng.Intn(len(products))]
				products = append(products, Item{ID: 100_000 + i, Point: p.Point.Clone()})
			}
			queries := queryPoints(rng, products, dims)
			// A product exactly at the last query point: it ties every
			// customer's window distance and blocks nobody.
			products = append(products, Item{ID: 200_000, Point: queries[len(queries)-1].Clone()})
			db := NewDB(dims, products, rtree.Config{})

			mono := shuffled(rng, products)
			bi := datagen.Generate(kind, 150, dims, seed+1)
			for i := range bi {
				bi[i].ID += 1_000_000 // disjoint from every product ID
			}
			bi = append(bi, Item{ID: 2_000_000, Point: queries[0].Clone()})
			for ci, customers := range [][]Item{mono, bi} {
				for qi, q := range queries {
					want := oracle.ReverseSkyline(products, customers, q)
					for _, width := range []int{1, 2} {
						ctx := exec.WithWorkers(context.Background(), width)
						got, err := db.ReverseSkylineFilteredCtx(ctx, customers, q)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%v d=%d customers=%d q=%d width=%d", kind, dims, ci, qi, width)
						if msg := sameOrder(got, want); msg != "" {
							t.Fatalf("%s: %s", name, msg)
						}
					}
				}
			}
		}
	}
}

// queryPoints draws query points the way the benchmark does (a product
// moved by at most 1% of each span), plus one sitting exactly on a product
// and one sharing a single coordinate with a product.
func queryPoints(rng *rand.Rand, products []Item, dims int) []geom.Point {
	var qs []geom.Point
	for i := 0; i < 3; i++ {
		p := products[rng.Intn(len(products))].Point
		q := make(geom.Point, dims)
		for d := range q {
			q[d] = p[d] + (rng.Float64()*2-1)*10
		}
		qs = append(qs, q)
	}
	axis := products[rng.Intn(len(products))].Point.Clone()
	axis[0] += 5
	qs = append(qs, axis)
	return append(qs, products[rng.Intn(len(products))].Point.Clone())
}

func shuffled(rng *rand.Rand, items []Item) []Item {
	out := append([]Item(nil), items...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sameOrder reports how got differs from want as ordered ID lists, or "".
func sameOrder(got, want []Item) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d members, want %d (got %v, want %v)", len(got), len(want), orderedIDs(got), orderedIDs(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			return fmt.Sprintf("member %d is %d, want %d (got %v, want %v)", i, got[i].ID, want[i].ID, orderedIDs(got), orderedIDs(want))
		}
	}
	return ""
}

func orderedIDs(items []Item) []int {
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}
