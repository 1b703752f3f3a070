package whynot

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

func TestMWQBatchMatchesSingles(t *testing.T) {
	products := randProducts(300, 3030)
	e := NewEngine(rskyline.NewDB(2, products, rtree.Config{}))
	rng := rand.New(rand.NewSource(3031))
	var q geom.Point
	var rsl []Item
	for trial := 0; trial < 40; trial++ {
		q = geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl = must(e.DB.ReverseSkylineCtx(context.Background(), products, q))
		if len(rsl) >= 1 && len(rsl) <= 8 {
			break
		}
		rsl = nil
	}
	if rsl == nil {
		t.Skip("no suitable query sampled")
	}
	var cts []Item
	for _, c := range products {
		if must(e.DB.WindowExistsChecked(nil, c.Point, q, c.ID)) {
			cts = append(cts, c)
		}
		if len(cts) == 12 {
			break
		}
	}
	sr := must(e.SafeRegionCtx(context.Background(), q, rsl))
	batch := must(e.MWQBatchCtx(context.Background(), cts, q, rsl, Options{}))
	parallel := must(e.MWQBatchCtx(exec.WithWorkers(context.Background(), 4), cts, q, rsl, Options{}))
	if len(batch) != len(cts) || len(parallel) != len(cts) {
		t.Fatalf("batch sizes: %d / %d for %d customers", len(batch), len(parallel), len(cts))
	}
	for i, ct := range cts {
		single := must(e.MWQCtx(context.Background(), ct, q, sr, Options{}))
		if batch[i].Cost != single.Cost || batch[i].Case != single.Case {
			t.Fatalf("batch[%d] diverges from single: %v/%v vs %v/%v",
				i, batch[i].Cost, batch[i].Case, single.Cost, single.Case)
		}
		if parallel[i].Cost != single.Cost || parallel[i].Case != single.Case {
			t.Fatalf("parallel[%d] diverges from single", i)
		}
		if !parallel[i].QStar.Equal(single.QStar) || !parallel[i].CtStar.Equal(single.CtStar) {
			t.Fatalf("parallel[%d] chose different points", i)
		}
	}
	// Empty batch is fine.
	if got := must(e.MWQBatchCtx(exec.WithWorkers(context.Background(), 4), nil, q, rsl, Options{})); len(got) != 0 {
		t.Fatal("empty batch should yield empty results")
	}
}
