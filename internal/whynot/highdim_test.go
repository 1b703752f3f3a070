package whynot

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// rand3D builds a small 3-d product set: the safe-region machinery switches
// from the 2-d staircase to the generic grid-corner construction there.
func rand3D(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Point: geom.NewPoint(
			rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)}
	}
	return items
}

// Anti-DDR membership in 3-d: q is inside a customer's anti-DDR iff the
// customer is in RSL(q).
func TestAntiDDR3DMatchesMembership(t *testing.T) {
	items := rand3D(120, 42)
	e := NewEngine(rskyline.NewDB(3, items, rtree.Config{}))
	rng := rand.New(rand.NewSource(43))
	checked := 0
	for trial := 0; trial < 30; trial++ {
		q := geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		c := items[rng.Intn(len(items))]
		add := must(e.AntiDDROfCtx(context.Background(), c))
		inRSL := must(e.DB.IsReverseSkylineChecked(nil, c, q))
		if inRSL != add.Contains(q) {
			t.Fatalf("trial %d: membership %v but anti-DDR contains %v (c=%v q=%v)",
				trial, inRSL, add.Contains(q), c.Point, q)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("vacuous")
	}
}

// 3-d safe region: interior probes preserve the reverse skyline.
func TestSafeRegion3DPreservesRSL(t *testing.T) {
	items := rand3D(120, 44)
	e := NewEngine(rskyline.NewDB(3, items, rtree.Config{}))
	rng := rand.New(rand.NewSource(45))
	tested := 0
	for trial := 0; trial < 40 && tested < 3; trial++ {
		q := geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		rsl := must(e.DB.ReverseSkylineCtx(context.Background(), items, q))
		if len(rsl) < 1 || len(rsl) > 5 {
			continue
		}
		tested++
		sr := must(e.SafeRegionCtx(context.Background(), q, rsl))
		if !sr.Contains(q) {
			t.Fatal("3-d safe region must contain q")
		}
		for _, r := range sr {
			if r.Area() == 0 {
				continue
			}
			p := r.Center()
			for _, c := range rsl {
				if must(e.DB.WindowExistsChecked(nil, c.Point, p, c.ID)) {
					t.Fatalf("3-d safe region loses customer %d at %v", c.ID, p)
				}
			}
		}
	}
	if tested == 0 {
		t.Skip("no suitable 3-d queries sampled")
	}
}

// Full 3-d MWQ: the answer must admit the why-not point and keep the RSL.
func TestMWQ3DSoundness(t *testing.T) {
	items := rand3D(120, 46)
	e := NewEngine(rskyline.NewDB(3, items, rtree.Config{}))
	rng := rand.New(rand.NewSource(47))
	tested := 0
	for trial := 0; trial < 60 && tested < 3; trial++ {
		q := geom.NewPoint(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		rsl := must(e.DB.ReverseSkylineCtx(context.Background(), items, q))
		if len(rsl) < 1 || len(rsl) > 4 {
			continue
		}
		ct := items[rng.Intn(len(items))]
		if !must(e.DB.WindowExistsChecked(nil, ct.Point, q, ct.ID)) {
			continue
		}
		tested++
		res := must(e.MWQExactCtx(context.Background(), ct, q, rsl, Options{}))
		qn := res.SafeRegion.InteriorNudge(res.QStar, 1e-9)
		if res.Case == CaseOverlap {
			qn = res.Overlap.InteriorNudge(res.QStar, 1e-9)
			if must(e.DB.WindowExistsChecked(nil, ct.Point, qn, ct.ID)) {
				t.Fatalf("3-d C1 answer does not admit ct")
			}
		} else if !must(e.ValidateWhyNotMoveCtx(context.Background(), ct, res.QStar, res.CtStar, 1e-7)) {
			t.Fatalf("3-d C2 answer invalid: ct*=%v q*=%v", res.CtStar, res.QStar)
		}
		for _, c := range rsl {
			if must(e.DB.WindowExistsChecked(nil, c.Point, qn, c.ID)) {
				t.Fatalf("3-d MWQ loses customer %d", c.ID)
			}
		}
		mwp := must(e.MWPCtx(context.Background(), ct, q, Options{}))
		if res.Cost > mwp.Best().Cost+1e-9 {
			t.Fatalf("3-d MWQ cost %v > MWP %v", res.Cost, mwp.Best().Cost)
		}
	}
	if tested == 0 {
		t.Skip("no suitable 3-d cases sampled")
	}
}
