package oracle_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/oracle"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/whynot"
)

// The differential suite runs every optimised query path — branch-and-bound
// traversals, the BBRS pipeline, the parallel variants and the memoised
// caches — against the package's brute-force oracles on seeded UN/CO/AC
// datasets in 2, 3 and 4 dimensions.

var kinds = []struct {
	name string
	kind datagen.Kind
}{
	{"UN", datagen.Uniform},
	{"CO", datagen.Correlated},
	{"AC", datagen.AntiCorrelated},
}

var dims = []int{2, 3, 4}

// fixture is one seeded bichromatic configuration: products indexed in a DB,
// customers with a disjoint ID range, and a deterministic RNG for queries.
type fixture struct {
	products  []oracle.Item
	customers []oracle.Item
	db        *rskyline.DB
	rng       *rand.Rand
}

func newFixture(kind datagen.Kind, d, nProducts, nCustomers int, seed int64) fixture {
	products := datagen.Generate(kind, nProducts, d, seed)
	customers := datagen.Generate(kind, nCustomers, d, seed+1)
	for i := range customers {
		customers[i].ID += 10_000 // disjoint from product IDs
	}
	return fixture{
		products:  products,
		customers: customers,
		db:        rskyline.NewDB(d, products, rtree.Config{}),
		rng:       rand.New(rand.NewSource(seed + 2)),
	}
}

// queryPoint draws a continuous position inside the product universe;
// continuous draws avoid the measure-zero boundary ties the closed-set
// constructions resolve differently from the strict-dominance oracles.
func (f fixture) queryPoint() geom.Point {
	u, _ := f.db.Universe()
	p := make(geom.Point, len(u.Lo))
	for j := range p {
		p[j] = u.Lo[j] + f.rng.Float64()*(u.Hi[j]-u.Lo[j])
	}
	return p
}

func idSet(items []oracle.Item) map[int]bool {
	m := make(map[int]bool, len(items))
	for _, it := range items {
		m[it.ID] = true
	}
	return m
}

func sameIDs(t *testing.T, label string, got, want []oracle.Item) {
	t.Helper()
	g, w := idSet(got), idSet(want)
	if len(g) != len(w) {
		t.Fatalf("%s: got %d members, oracle says %d (got %v, want %v)", label, len(g), len(w), g, w)
	}
	for id := range w {
		if !g[id] {
			t.Fatalf("%s: oracle member %d missing from result", label, id)
		}
	}
}

func forEachConfig(t *testing.T, fn func(t *testing.T, f fixture)) {
	forEachConfigMaxDim(t, 4, fn)
}

func forEachConfigMaxDim(t *testing.T, maxDim int, fn func(t *testing.T, f fixture)) {
	for _, k := range kinds {
		for _, d := range dims {
			if d > maxDim {
				continue
			}
			if d == 4 && testing.Short() {
				// The d=4 configs dominate the suite's runtime (2^d orthant
				// fan-out in every pass) while the algorithms branch on
				// dimension nowhere beyond loops; -short keeps d ≤ 3.
				continue
			}
			k, d := k, d
			t.Run(fmt.Sprintf("%s/d=%d", k.name, d), func(t *testing.T) {
				t.Parallel()
				fn(t, newFixture(k.kind, d, 60, 30, int64(1000*d)+int64(k.kind)))
			})
		}
	}
}

func TestDynamicSkylineAgreesWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		for i := 0; i < 8; i++ {
			c := f.customers[f.rng.Intn(len(f.customers))]
			got := f.db.DynamicSkylineExcluding(c.Point, oracle.NoExclude)
			want := oracle.DynamicSkyline(f.products, c.Point, oracle.NoExclude)
			sameIDs(t, "DSL (BBS)", got, want)

			// With the monochromatic exclusion of an arbitrary product record.
			ex := f.products[f.rng.Intn(len(f.products))].ID
			got = f.db.DynamicSkylineExcluding(c.Point, ex)
			want = oracle.DynamicSkyline(f.products, c.Point, ex)
			sameIDs(t, "DSL excluding", got, want)
		}
	})
}

func TestDynamicSkylineCachedAgreesWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		f.db.EnableDSLCache(64)
		// Two passes: the second is served from the cache and must agree too.
		for pass := 0; pass < 2; pass++ {
			for _, c := range f.customers[:10] {
				got, err := f.db.DynamicSkylineOfChecked(nil, c, oracle.NoExclude)
				if err != nil {
					t.Fatal(err)
				}
				sameIDs(t, fmt.Sprintf("cached DSL pass %d", pass),
					got, oracle.DynamicSkyline(f.products, c.Point, oracle.NoExclude))
			}
		}
		if f.db.DSLCacheStats().Hits == 0 {
			t.Fatal("second pass did not hit the DSL cache")
		}
	})
}

func TestReverseSkylinePathsAgreeWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		for i := 0; i < 4; i++ {
			q := f.queryPoint()
			want := oracle.ReverseSkyline(f.products, f.customers, q)

			for _, workers := range []int{1, 2, 4, -1} {
				ctx := exec.WithWorkers(context.Background(), workers)
				got, err := f.db.ReverseSkylineCtx(ctx, f.customers, q)
				if err != nil {
					t.Fatal(err)
				}
				sameIDs(t, fmt.Sprintf("RSL direct w=%d", workers), got, want)

				got, err = f.db.ReverseSkylineFilteredCtx(ctx, f.customers, q)
				if err != nil {
					t.Fatal(err)
				}
				sameIDs(t, fmt.Sprintf("RSL filtered w=%d", workers), got, want)
			}
		}
	})
}

// TestBBRSAgreesWithOracle exercises the monochromatic pipeline: the
// customers are the product records themselves, each invisible to its own
// window queries.
func TestBBRSAgreesWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		for i := 0; i < 4; i++ {
			q := f.queryPoint()
			want := oracle.ReverseSkyline(f.products, f.products, q)
			for _, workers := range []int{1, 4} {
				got, err := f.db.ReverseSkylineBBRSCtx(exec.WithWorkers(context.Background(), workers), q)
				if err != nil {
					t.Fatal(err)
				}
				sameIDs(t, fmt.Sprintf("BBRS w=%d", workers), got, want)
			}
		}
	})
}

// TestSafeRegionMembershipAgreesWithOracle compares constructed safe regions
// — sequential, parallel, and cached — against the semantic oracle (every
// RSL member retained) at sampled continuous positions, and checks the three
// constructions are equivalent as regions. Dimensions are capped at 3: the
// exact anti-DDR staircase is built from a d-dimensional corner grid whose
// cost explodes at d=4 (a single 4-d construction takes minutes), so no
// caller constructs exact safe regions there; 4-d coverage of the shared
// per-customer machinery comes from the DSL and reverse-skyline suites above.
func TestSafeRegionMembershipAgreesWithOracle(t *testing.T) {
	forEachConfigMaxDim(t, 3, func(t *testing.T, f fixture) {
		eng := whynot.NewEngine(f.db)
		cachedDB := rskyline.NewDB(f.db.Dims(), f.products, rtree.Config{})
		cachedDB.EnableDSLCache(64)
		cachedEng := whynot.NewEngine(cachedDB)
		cachedEng.EnableAntiDDRCache(64)

		// Exact safe regions grow combinatorially with |RSL| and with
		// dimensionality (each anti-DDR is a d-dimensional staircase of
		// rectangles), so the member cap shrinks as d grows. Capping keeps
		// the oracle comparison exact: SR over a subset is the intersection
		// over that subset.
		cap := map[int]int{2: 6, 3: 4}[f.db.Dims()]
		for i := 0; i < 2; i++ {
			q := f.queryPoint()
			rsl := oracle.ReverseSkyline(f.products, f.customers, q)
			if len(rsl) > cap {
				rsl = rsl[:cap]
			}

			seq, err := eng.SafeRegionCtx(context.Background(), q, rsl)
			if err != nil {
				t.Fatal(err)
			}
			par, err := eng.SafeRegionCtx(exec.WithWorkers(context.Background(), 4), q, rsl)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the caches with a first construction, then use the cached
			// result, which must still agree.
			if _, err := cachedEng.SafeRegionCtx(context.Background(), q, rsl); err != nil {
				t.Fatal(err)
			}
			cached, err := cachedEng.SafeRegionCtx(context.Background(), q, rsl)
			if err != nil {
				t.Fatal(err)
			}

			if !region.Equivalent(seq, par) {
				t.Fatalf("parallel safe region differs from sequential (q=%v, |rsl|=%d)", q, len(rsl))
			}
			if !region.Equivalent(seq, cached) {
				t.Fatalf("cached safe region differs from sequential (q=%v, |rsl|=%d)", q, len(rsl))
			}

			for s := 0; s < 120; s++ {
				x := f.queryPoint()
				got := seq.Contains(x)
				want := oracle.SafeAt(f.products, rsl, x)
				if got != want {
					t.Fatalf("safe-region membership at %v: constructed=%v oracle=%v (q=%v)", x, got, want, q)
				}
			}
		}
		if cachedEng.AntiDDRCacheStats().Hits == 0 {
			t.Fatal("repeated construction did not hit the anti-DDR cache")
		}
	})
}

// TestLostCustomersAndMQPCostAgreeWithOracle checks the two why-not measures
// built on the reverse-skyline membership loop. LostCustomersCtx must return
// exactly the members of RSL(q) that fail the Definition 3 test at q*, in
// RSL order, at every width. MQPTotalCostCtx must equal the α-distance from
// the safe region's nearest point to q* plus the MWP cost of winning back
// each of those customers, summed in the same order (so bit-for-bit equal).
func TestLostCustomersAndMQPCostAgreeWithOracle(t *testing.T) {
	forEachConfig(t, func(t *testing.T, f fixture) {
		eng := whynot.NewEngine(f.db)
		u, _ := f.db.Universe()
		lostSeen := 0
		for i := 0; i < 4; i++ {
			q := f.queryPoint()
			rsl := oracle.ReverseSkyline(f.products, f.customers, q)
			qStar := f.queryPoint()
			var want []oracle.Item
			for _, c := range rsl {
				if !oracle.IsReverseSkyline(f.products, c, qStar) {
					want = append(want, c)
				}
			}
			lostSeen += len(want)

			// A small box around q stands in for its safe region, so the
			// α-distance is charged from the box's nearest point.
			half := u.Hi.Sub(u.Lo).Scale(0.01)
			sr := region.Set{{Lo: q.Sub(half), Hi: q.Add(half)}}
			anchor, _, _ := sr.NearestPoint(qStar, nil)
			wantCost := eng.Norm.NormalizedL1(anchor, qStar, nil)
			for _, c := range want {
				res, err := eng.MWPCtx(context.Background(), c, qStar, whynot.Options{})
				if err != nil {
					t.Fatal(err)
				}
				wantCost += res.Best().Cost
			}

			for _, workers := range []int{1, 2} {
				ctx := exec.WithWorkers(context.Background(), workers)
				got, err := eng.LostCustomersCtx(ctx, qStar, rsl)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("w=%d: %d lost customers, oracle says %d", workers, len(got), len(want))
				}
				for k := range want {
					if got[k].ID != want[k].ID {
						t.Fatalf("w=%d: lost[%d] = %d, oracle says %d (order must follow rsl)", workers, k, got[k].ID, want[k].ID)
					}
				}
				cost, err := eng.MQPTotalCostCtx(ctx, q, qStar, rsl, sr, whynot.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if cost != wantCost {
					t.Fatalf("w=%d: MQP total cost %v, want %v", workers, cost, wantCost)
				}
			}
		}
		if lostSeen == 0 {
			t.Fatal("no customer lost at any q*: test vacuous")
		}
	})
}
