package whynot

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// Metamorphic properties of the why-not algorithms. Unlike the golden tests,
// nothing here pins concrete coordinates: each test states a relation the
// paper proves between two answers and checks it on seeded random workloads.

// propertyCases yields seeded (q, rsl, ct) tuples over e's products where ct
// is a genuine why-not customer and the RSL is small enough for exact safe
// regions, mirroring the sampling idiom of TestMWQSoundnessRandom.
func propertyCases(t *testing.T, e *Engine, products []Item, seed int64, fn func(q geom.Point, rsl []Item, ct Item)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed + 350))
	tested := 0
	for trial := 0; trial < 60 && tested < 6; trial++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		rsl := must(e.DB.ReverseSkylineCtx(context.Background(), products, q))
		if len(rsl) == 0 || len(rsl) > 12 {
			continue
		}
		ct := products[rng.Intn(len(products))]
		if !must(e.DB.WindowExistsChecked(nil, ct.Point, q, ct.ID)) {
			continue // already a member
		}
		tested++
		fn(q, rsl, ct)
	}
	if tested == 0 {
		t.Fatalf("seed %d: no why-not cases sampled", seed)
	}
}

func propertyEngine(seed int64) (*Engine, []Item) {
	products := randProducts(200, seed+300)
	return NewEngine(rskyline.NewDB(2, products, rtree.Config{})), products
}

// TestPropertyMWQNeverCostlierThanMWP: MWP (move only the customer) is a
// feasible solution of the MWQ optimisation with q* = q, so the MWQ optimum
// can never cost more (§V.C; in case C1 the cost is outright zero).
func TestPropertyMWQNeverCostlierThanMWP(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		e, products := propertyEngine(seed)
		propertyCases(t, e, products, seed, func(q geom.Point, rsl []Item, ct Item) {
			mwq := must(e.MWQExactCtx(context.Background(), ct, q, rsl, Options{}))
			mwp := must(e.MWPCtx(context.Background(), ct, q, Options{}))
			if mwq.Case == CaseOverlap && mwq.Cost != 0 {
				t.Fatalf("seed %d: C1 cost %v, want 0", seed, mwq.Cost)
			}
			if mwq.Cost > mwp.Best().Cost+1e-9 {
				t.Fatalf("seed %d: cost(MWQ)=%v > cost(MWP)=%v (case %v)",
					seed, mwq.Cost, mwp.Best().Cost, mwq.Case)
			}
		})
	}
}

// TestPropertyApproxMWQAgainstExact checks §VI.B.2's guarantees for the
// approximate pipeline against the exact one on the same questions:
//
//   - the approximate safe region is a subset of the exact one, so every
//     approximate q* is feasible for the exact optimiser;
//   - reachability only shrinks: an approximate C1 implies an exact C1, and
//     there both costs are the optimum zero;
//   - whenever the exact answer attains the true optimum (case C1, cost 0)
//     the approximate cost is ≥ the exact cost — in the C2/C2 subcase both
//     sides are corner heuristics (Algorithm 4 steps 10–13) over different
//     rectangle decompositions, so the pointwise inequality is not a theorem
//     and is not asserted;
//   - both answers validate with real window queries after the ε-nudge.
func TestPropertyApproxMWQAgainstExact(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		e, products := propertyEngine(seed)
		store := must(e.BuildApproxStoreCtx(context.Background(), products, 6, 0))
		rng := rand.New(rand.NewSource(seed + 375))
		propertyCases(t, e, products, seed, func(q geom.Point, rsl []Item, ct Item) {
			exact := must(e.MWQExactCtx(context.Background(), ct, q, rsl, Options{}))
			approx := must(e.MWQApproxCtx(context.Background(), ct, q, rsl, store, Options{}))

			// Region subset, probed at corners and random interior samples of
			// every positive approximate rectangle.
			for _, r := range positiveRects(approx.SafeRegion) {
				for _, p := range r.Corners() {
					if !exact.SafeRegion.Contains(p) {
						t.Fatalf("seed %d: approx SR corner %v outside exact SR", seed, p)
					}
				}
				p := make(geom.Point, len(r.Lo))
				for j := range p {
					p[j] = r.Lo[j] + rng.Float64()*(r.Hi[j]-r.Lo[j])
				}
				if !exact.SafeRegion.Contains(p) {
					t.Fatalf("seed %d: approx SR sample %v outside exact SR", seed, p)
				}
			}

			if approx.Case == CaseOverlap && exact.Case != CaseOverlap {
				t.Fatalf("seed %d: approx reached the anti-DDR (C1) but exact did not (C%d)",
					seed, exact.Case)
			}
			if exact.Case == CaseOverlap && approx.Cost < exact.Cost-1e-9 {
				t.Fatalf("seed %d: approx cost %v below exact optimum %v", seed, approx.Cost, exact.Cost)
			}

			for _, res := range []struct {
				name string
				r    MWQResult
			}{{"exact", exact}, {"approx", approx}} {
				switch res.r.Case {
				case CaseOverlap:
					// q* admits ct without moving it: an MQP-style move.
					qn := res.r.Overlap.InteriorNudge(res.r.QStar, 1e-9)
					if !must(e.ValidateQueryMoveCtx(context.Background(), ct, qn, 1e-9)) {
						t.Fatalf("seed %d: %s C1 q*=%v does not admit ct", seed, res.name, res.r.QStar)
					}
				case CaseDisjoint:
					// ct* admits ct against the moved query: an MWP-style move.
					if !must(e.ValidateWhyNotMoveCtx(context.Background(), ct, res.r.QStar, res.r.CtStar, 1e-7)) {
						t.Fatalf("seed %d: %s C2 ct*=%v invalid against q*=%v",
							seed, res.name, res.r.CtStar, res.r.QStar)
					}
				}
			}
		})
	}
}

// TestPropertyRSLMonotoneUnderSafeMove: moving q anywhere inside SR(q) loses
// no customer (Lemma 2), so RSL(q*) ⊇ RSL(q) — for the MWQ answer itself and
// for arbitrary positions sampled from the safe region's positive-volume
// rectangles. The region is closed and zero-volume intersection slivers have
// no achievable interior (moving there genuinely loses customers — see the
// case-C2 corner filter), so samples come from positive rectangles only and
// are nudged into the interior before probing, per the boundary-closure
// convention.
func TestPropertyRSLMonotoneUnderSafeMove(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		e, products := propertyEngine(seed)
		rng := rand.New(rand.NewSource(seed + 400))
		propertyCases(t, e, products, seed, func(q geom.Point, rsl []Item, ct Item) {
			res := must(e.MWQExactCtx(context.Background(), ct, q, rsl, Options{}))
			probes := []geom.Point{res.SafeRegion.InteriorNudge(res.QStar, 1e-9)}
			if res.Case == CaseOverlap {
				probes[0] = res.Overlap.InteriorNudge(res.QStar, 1e-9)
			}
			for _, r := range positiveRects(res.SafeRegion) {
				p := make(geom.Point, len(r.Lo))
				for j := range p {
					p[j] = r.Lo[j] + rng.Float64()*(r.Hi[j]-r.Lo[j])
				}
				probes = append(probes, res.SafeRegion.InteriorNudge(p, 1e-9))
			}
			for _, qStar := range probes {
				after := idSetOf(must(e.DB.ReverseSkylineCtx(context.Background(), products, qStar)))
				for _, c := range rsl {
					if !after[c.ID] {
						t.Fatalf("seed %d: customer %d ∈ RSL(q) lost at q*=%v ∈ SR(q)",
							seed, c.ID, qStar)
					}
				}
			}
		})
	}
}

func idSetOf(items []Item) map[int]bool {
	m := make(map[int]bool, len(items))
	for _, it := range items {
		m[it.ID] = true
	}
	return m
}
