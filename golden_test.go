package repro_test

import (
	"testing"

	"repro"
)

// The golden suite walks the paper's worked example (Fig. 1a, §IV–§V) through
// the public API end-to-end and pins the exact numbers the paper prints:
// query product q = (8.5K$, 55Kmi), culprit p₂ = (7.5, 42), why-not customer
// c₁ = (5, 30) with MWP answer c₁* = (5, 48.5), MQP answer q* = (7.5, 55),
// and the C1/C2 split of Algorithm 4. It also pins the DESIGN.md §2
// boundary-closure semantics: every candidate is an infimum on the closure of
// its valid region — not yet a member at the exact candidate point, a member
// after an arbitrarily small further move.

// fig1Items is the paper's 8-point running example (price in K$, mileage in
// Kmi).
func fig1Items() []repro.Item {
	coords := [][2]float64{
		{5, 30}, {7.5, 42}, {2.5, 70}, {7.5, 90},
		{24, 20}, {20, 50}, {26, 70}, {16, 80},
	}
	items := make([]repro.Item, len(coords))
	for i, c := range coords {
		items[i] = repro.Item{ID: i + 1, Point: repro.NewPoint(c[0], c[1])}
	}
	return items
}

var goldenQ = repro.NewPoint(8.5, 55)

// goldenDBs returns the paper's database in every execution configuration
// the golden numbers must be invariant under: the sequential reference, the
// worker-pool configuration, and the fully cached one.
func goldenDBs() map[string]*repro.DB {
	items := fig1Items()
	return map[string]*repro.DB{
		"sequential": repro.NewDB(2, items),
		"parallel":   repro.NewDBWithOptions(2, fig1Items(), repro.DBOptions{Parallelism: 4}),
		"cached": repro.NewDBWithOptions(2, fig1Items(), repro.DBOptions{
			Parallelism: 4, CacheSize: 64,
		}),
	}
}

func candidateSet(cands []repro.Candidate, want ...repro.Point) bool {
	if len(cands) != len(want) {
		return false
	}
	for _, w := range want {
		found := false
		for _, c := range cands {
			if c.Point.ApproxEqual(w, 1e-9) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestGoldenPaperExample(t *testing.T) {
	for name, db := range goldenDBs() {
		name, db := name, db
		t.Run(name, func(t *testing.T) {
			items := fig1Items()
			c1 := items[0] // (5, 30)

			// §III aspect (1): the only culprit is p₂ = (7.5, 42).
			culprits := db.Explain(c1, goldenQ)
			if len(culprits) != 1 || culprits[0].ID != 2 {
				t.Fatalf("Explain = %v, want [p2]", culprits)
			}

			// Fig. 1b: RSL(q) holds five of the eight customers; the why-not
			// customer c₁ is not among them.
			rsl := db.ReverseSkyline(items, goldenQ)
			if len(rsl) != 5 {
				t.Fatalf("|RSL(q)| = %d, want 5", len(rsl))
			}
			if db.IsReverseSkyline(c1, goldenQ) {
				t.Fatal("c1 must be a why-not customer")
			}

			// §IV (Algorithm 1): c₁* ∈ {(5, 48.5), (8, 30)} — the paper's
			// headline answer is (5, 48.5).
			mwp := db.MWP(c1, goldenQ, repro.Options{})
			if !candidateSet(mwp.Candidates, repro.NewPoint(5, 48.5), repro.NewPoint(8, 30)) {
				t.Fatalf("MWP candidates = %v, want {(5,48.5), (8,30)}", mwp.Candidates)
			}
			// Boundary-closure semantics (DESIGN.md §2): at the exact
			// candidate point the customer is still NOT a member — the
			// candidate is the infimum of the movement cost — and becomes one
			// after an ε-move toward q.
			for _, cand := range mwp.Candidates {
				moved := repro.Item{ID: c1.ID, Point: cand.Point}
				if db.IsReverseSkyline(moved, goldenQ) {
					t.Fatalf("candidate %v must lie ON the boundary (not yet a member)", cand.Point)
				}
				if !db.ValidateWhyNotMove(c1, goldenQ, cand.Point, 1e-9) {
					t.Fatalf("candidate %v must admit c1 after the ε-nudge", cand.Point)
				}
			}

			// §V.A (Algorithm 2): q* ∈ {(8.5, 42), (7.5, 55)}, and the paper's
			// "decrease the price at least 1K" means (7.5, 55) is cheapest.
			mqp := db.MQP(c1, goldenQ, repro.Options{})
			if !candidateSet(mqp.Candidates, repro.NewPoint(8.5, 42), repro.NewPoint(7.5, 55)) {
				t.Fatalf("MQP candidates = %v, want {(8.5,42), (7.5,55)}", mqp.Candidates)
			}
			if !mqp.Best().Point.ApproxEqual(repro.NewPoint(7.5, 55), 1e-9) {
				t.Fatalf("best MQP candidate = %v, want (7.5, 55)", mqp.Best().Point)
			}
			for _, cand := range mqp.Candidates {
				if !db.ValidateQueryMove(c1, cand.Point, 1e-9) {
					t.Fatalf("MQP candidate %v must admit c1 after the ε-nudge", cand.Point)
				}
			}
		})
	}
}

// TestGoldenSafeRegion pins §V.B's safe region through membership probes:
// SR(q) is the union of [7.5,10]×[50,70] and [7.5,12.5]×[50,54] (the paper's
// "58" is a typo for "70"; see the internal test for the derivation). The
// region is closed, so its corners are members — the boundary-closure
// convention again.
func TestGoldenSafeRegion(t *testing.T) {
	for name, db := range goldenDBs() {
		name, db := name, db
		t.Run(name, func(t *testing.T) {
			rsl := db.ReverseSkyline(fig1Items(), goldenQ)
			sr := db.SafeRegion(goldenQ, rsl)
			if !sr.Contains(goldenQ) {
				t.Fatal("q must lie inside its own safe region")
			}
			inside := []repro.Point{
				repro.NewPoint(7.5, 50),  // shared closed corner
				repro.NewPoint(10, 70),   // far corner of the first rectangle
				repro.NewPoint(12.5, 54), // far corner of the second rectangle
				repro.NewPoint(9, 65), repro.NewPoint(12, 52),
			}
			outside := []repro.Point{
				repro.NewPoint(7.49, 55),  // cheaper than every safe price
				repro.NewPoint(12, 60),    // beyond mileage 54 at price > 10
				repro.NewPoint(10.01, 65), // beyond price 10 at mileage > 54
				repro.NewPoint(8.5, 49.9), // below the mileage floor
			}
			for _, p := range inside {
				if !sr.Contains(p) {
					t.Fatalf("%v must be inside SR(q)", p)
				}
			}
			for _, p := range outside {
				if sr.Contains(p) {
					t.Fatalf("%v must be outside SR(q)", p)
				}
			}
		})
	}
}

// TestGoldenMWQ pins Algorithm 4 on both paper cases: c₇ = (26, 70) is case
// C1 (the safe region reaches its anti-DDR; q* = (8.5, 60) at zero cost) and
// c₁ = (5, 30) is case C2 (both points move; never costlier than MWP).
func TestGoldenMWQ(t *testing.T) {
	for name, db := range goldenDBs() {
		name, db := name, db
		t.Run(name, func(t *testing.T) {
			items := fig1Items()
			rsl := db.ReverseSkyline(items, goldenQ)

			c7 := items[6]
			res := db.MWQExact(c7, goldenQ, rsl, repro.Options{})
			if res.Case != 1 {
				t.Fatalf("c7: case = %v, want C1", res.Case)
			}
			if !res.QStar.ApproxEqual(repro.NewPoint(8.5, 60), 1e-9) {
				t.Fatalf("c7: q* = %v, want (8.5, 60)", res.QStar)
			}
			if res.Cost != 0 {
				t.Fatalf("c7: C1 cost = %v, want 0", res.Cost)
			}
			// q* is an infimum on the closed overlap boundary: nudge into the
			// overlap interior, then c7 is admitted and nobody is lost.
			qn := res.Overlap.InteriorNudge(res.QStar, 1e-9)
			if !db.IsReverseSkyline(c7, qn) {
				t.Fatal("c7: q* must admit c7 after the ε-nudge")
			}
			if lost := db.LostCustomers(qn, rsl); len(lost) != 0 {
				t.Fatalf("c7: q* loses customers %v", lost)
			}

			c1 := items[0]
			res = db.MWQExact(c1, goldenQ, rsl, repro.Options{})
			if res.Case != 2 {
				t.Fatalf("c1: case = %v, want C2", res.Case)
			}
			if !res.SafeRegion.Contains(res.QStar) {
				t.Fatal("c1: q* must stay inside the safe region")
			}
			if !db.ValidateWhyNotMove(c1, res.QStar, res.CtStar, 1e-9) {
				t.Fatalf("c1: c1* = %v must admit c1 against q* = %v", res.CtStar, res.QStar)
			}
			mwp := db.MWP(c1, goldenQ, repro.Options{})
			if res.Cost > mwp.Best().Cost+1e-12 {
				t.Fatalf("c1: cost(MWQ) = %v > cost(MWP) = %v", res.Cost, mwp.Best().Cost)
			}
		})
	}
}

// TestGoldenMQPTotalCostCarDB pins one §VI.A total cost on CarDB data with
// exact float equality: the α-distance of an MQP answer from the safe region
// plus the MWP cost of winning back each of the ten (of eleven)
// reverse-skyline customers the move loses. The customers are the product
// records themselves, so a change to which customers count as lost (the
// monochromatic self-exclusion included) or to any MWP cost moves the bits.
func TestGoldenMQPTotalCostCarDB(t *testing.T) {
	const want = 0.3121472443575362
	products, err := repro.GenerateDataset("CarDB", 2000, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	q := products[100].Point
	ct := products[0]
	for name, db := range map[string]*repro.DB{
		"sequential": repro.NewDB(2, products),
		"parallel":   repro.NewDBWithOptions(2, products, repro.DBOptions{Parallelism: 2}),
	} {
		rsl := db.ReverseSkyline(products, q)
		sr := db.SafeRegion(q, rsl)
		qStar := db.MQP(ct, q, repro.Options{}).Best().Point
		if lost := db.LostCustomers(qStar, rsl); len(rsl) != 11 || len(lost) != 10 {
			t.Fatalf("%s: |rsl|=%d lost=%d, want 11 and 10", name, len(rsl), len(lost))
		}
		if got := db.MQPTotalCost(q, qStar, rsl, sr, repro.Options{}); got != want {
			t.Fatalf("%s: MQP total cost = %v, want %v", name, got, want)
		}
	}
}
