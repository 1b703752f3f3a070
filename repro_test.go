package repro

import (
	"bytes"
	"math"
	"testing"
)

// fig1 is the paper's running example (Fig. 1a): price in K$, mileage in Kmi.
func fig1() []Item {
	coords := [][2]float64{
		{5, 30}, {7.5, 42}, {2.5, 70}, {7.5, 90},
		{24, 20}, {20, 50}, {26, 70}, {16, 80},
	}
	items := make([]Item, len(coords))
	for i, c := range coords {
		items[i] = Item{ID: i + 1, Point: NewPoint(c[0], c[1])}
	}
	return items
}

func TestFacadeEndToEnd(t *testing.T) {
	products := fig1()
	db := NewDB(2, products)
	if db.Len() != 8 || db.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", db.Len(), db.Dims())
	}
	q := NewPoint(8.5, 55)

	// Reverse skyline matches the paper: {c2, c3, c4, c6, c8}.
	rsl := db.ReverseSkyline(products, q)
	want := map[int]bool{2: true, 3: true, 4: true, 6: true, 8: true}
	if len(rsl) != len(want) {
		t.Fatalf("RSL = %v", rsl)
	}
	for _, c := range rsl {
		if !want[c.ID] {
			t.Fatalf("unexpected RSL member %d", c.ID)
		}
		if !db.IsReverseSkyline(c, q) {
			t.Fatalf("IsReverseSkyline(%d) inconsistent", c.ID)
		}
	}

	// Why-not question for c1.
	c1 := products[0]
	if db.IsReverseSkyline(c1, q) {
		t.Fatal("c1 should be a why-not point")
	}
	culprits := db.Explain(c1, q)
	if len(culprits) != 1 || culprits[0].ID != 2 {
		t.Fatalf("Explain = %v, want [p2]", culprits)
	}

	mwp := db.MWP(c1, q, Options{})
	if !db.ValidateWhyNotMove(c1, q, mwp.Best().Point, 1e-9) {
		t.Fatal("MWP best candidate invalid")
	}
	mqp := db.MQP(c1, q, Options{})
	if !db.ValidateQueryMove(c1, mqp.Best().Point, 1e-9) {
		t.Fatal("MQP best candidate invalid")
	}

	sr := db.SafeRegion(q, rsl)
	if !sr.Contains(q) {
		t.Fatal("safe region must contain q")
	}
	mwq := db.MWQ(c1, q, sr, Options{})
	if mwq.Cost > mwp.Best().Cost+1e-12 {
		t.Fatalf("MWQ cost %v > MWP cost %v", mwq.Cost, mwp.Best().Cost)
	}
	if got := db.MWQExact(c1, q, rsl, Options{}); got.Cost != mwq.Cost {
		t.Fatalf("MWQExact cost %v != MWQ cost %v", got.Cost, mwq.Cost)
	}

	// The anti-dominance region of an RSL member contains q; that of the
	// why-not point does not.
	if !db.AntiDominanceRegion(rsl[0]).Contains(q) {
		t.Fatal("anti-DDR of an RSL member must contain q")
	}
	if db.AntiDominanceRegion(c1).Contains(q) {
		t.Fatal("anti-DDR of the why-not point must not contain q")
	}
}

func TestFacadeApprox(t *testing.T) {
	products, err := GenerateDataset("UN", 2000, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(2, products)
	store := db.BuildApproxStore(products, 10)
	q := products[17].Point.Clone()
	q[0] += 1
	rsl := db.ReverseSkyline(products, q)
	if len(rsl) == 0 {
		t.Skip("no reverse skyline for the probe query")
	}
	var whyNot Item
	found := false
	for _, c := range products {
		if db.IsReverseSkyline(c, q) {
			continue
		}
		whyNot, found = c, true
		break
	}
	if !found {
		t.Skip("no why-not point")
	}
	approx := db.MWQApprox(whyNot, q, rsl, store, Options{})
	mwp := db.MWP(whyNot, q, Options{})
	if approx.Cost > mwp.Best().Cost+1e-9 {
		t.Fatalf("Approx-MWQ %v worse than MWP %v", approx.Cost, mwp.Best().Cost)
	}
}

func TestGenerateDatasetKinds(t *testing.T) {
	for _, kind := range []string{"UN", "CO", "AC", "CarDB", "uniform", "correlated", "anti-correlated", "cardb"} {
		items, err := GenerateDataset(kind, 100, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(items) != 100 {
			t.Fatalf("%s: %d items", kind, len(items))
		}
	}
	if _, err := GenerateDataset("nope", 10, 2, 1); err == nil {
		t.Fatal("unknown kind must error")
	} else if err.Error() == "" {
		t.Fatal("error must carry a message")
	}
}

func TestMQPTotalCostFacade(t *testing.T) {
	products := fig1()
	db := NewDB(2, products)
	q := NewPoint(8.5, 55)
	rsl := db.ReverseSkyline(products, q)
	sr := db.SafeRegion(q, rsl)
	mqp := db.MQP(products[0], q, Options{})
	best := math.Inf(1)
	for _, cand := range mqp.Candidates {
		if c := db.MQPTotalCost(q, cand.Point, rsl, sr, Options{}); c < best {
			best = c
		}
	}
	if math.IsInf(best, 1) || best < 0 {
		t.Fatalf("MQP total cost = %v", best)
	}
	// Plain-move MQP cost ignores lost customers, so the total cost with
	// restoration can only be larger or equal for the same candidate.
	cand := mqp.Best()
	total := db.MQPTotalCost(q, cand.Point, rsl, sr, Options{})
	anchorFree := db.Engine().Norm.NormalizedL1(q, cand.Point, nil)
	_ = anchorFree // anchor uses the SR nearest point, so no direct ordering; just sanity-check non-negativity
	if total < 0 {
		t.Fatalf("negative total cost %v", total)
	}
}

func TestFacadeWideSurface(t *testing.T) {
	products := fig1()
	db := NewDB(2, products)
	q := NewPoint(8.5, 55)
	rsl := db.ReverseSkyline(products, q)

	// DynamicSkyline: DSL(q) over the catalogue is {p2, p6} (paper Fig. 2a).
	dsl := db.DynamicSkyline(q)
	if len(dsl) != 2 {
		t.Fatalf("DSL(q) = %v", dsl)
	}

	// BBRS variant agrees with the standard reverse skyline.
	bbrs := db.ReverseSkylineBBRS(q)
	if len(bbrs) != len(rsl) {
		t.Fatalf("BBRS RSL = %d, want %d", len(bbrs), len(rsl))
	}

	// Safe-region truncation and expansion helpers.
	sr := db.SafeRegion(q, rsl)
	limits := Rect{Lo: NewPoint(8, 50), Hi: NewPoint(12, 60)}
	trunc := TruncateSafeRegion(sr, limits)
	for _, r := range trunc {
		if !limits.ContainsRect(r) {
			t.Fatalf("truncated rect %v escapes limits", r)
		}
	}
	exp := ExpandSafeRegion(limits)
	if len(exp) != 1 {
		t.Fatalf("expanded region = %v", exp)
	}
	if lost := db.LostCustomers(NewPoint(26, 20), rsl); len(lost) == 0 {
		t.Fatal("drastic move should lose customers")
	}

	// Batch API matches singles.
	c1, c7 := products[0], products[6]
	batch := db.MWQBatch([]Item{c1, c7}, q, rsl, Options{})
	if len(batch) != 2 {
		t.Fatalf("batch = %d results", len(batch))
	}
	wide := NewDBWithOptions(2, products, DBOptions{Parallelism: 2})
	parallel := wide.MWQBatch([]Item{c1, c7}, q, rsl, Options{})
	for i := range batch {
		if batch[i].Cost != parallel[i].Cost || batch[i].Case != parallel[i].Case {
			t.Fatalf("batch/parallel diverge at %d", i)
		}
	}

	// Store build (parallel), save, reload via the facade.
	store := wide.BuildApproxStore(rsl, 5)
	var buf bytes.Buffer
	if err := store.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadApproxStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != store.Len() {
		t.Fatalf("store round trip: %d vs %d", back.Len(), store.Len())
	}
	res := db.MWQApprox(c1, q, rsl, back, Options{})
	mwp := db.MWP(c1, q, Options{})
	if res.Cost > mwp.Best().Cost+1e-12 {
		t.Fatalf("facade Approx-MWQ %v worse than MWP %v", res.Cost, mwp.Best().Cost)
	}

	// Engine escape hatch exists and shares the DB.
	if db.Engine().DB.Len() != db.Len() {
		t.Fatal("Engine() must expose the same database")
	}
}
