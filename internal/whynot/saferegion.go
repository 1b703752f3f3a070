package whynot

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/region"
	"repro/internal/skyline"
)

// SafeRegionCtx implements Algorithm 3: the exact safe region of q is the
// intersection of the anti-dominance regions of every reverse-skyline point
// (Lemma 2), each represented as a union of rectangles built from the
// customer's dynamic skyline (Fig. 10). rsl must be RSL(q) over the customers
// of interest; an empty rsl yields the whole product universe, since q then
// has no customers to lose. By construction q itself always lies in the
// result. The checkpoint fires once per reverse-skyline member (each
// contributes one DSL computation plus one rectangle-set intersection, the
// part that can grow exponentially with |RSL(q)|).
func (e *Engine) SafeRegionCtx(ctx context.Context, q geom.Point, rsl []Item) (region.Set, error) {
	chk, err := entry(ctx)
	if err != nil {
		return nil, err
	}
	return e.exactSafeRegion(ctx, chk, q, rsl)
}

// exactSafeRegion runs Algorithm 3 under its "saferegion.exact" phase; every
// entry point that builds the exact region goes through it, so EXPLAIN plans
// and flight records do not depend on the fan-out width.
func (e *Engine) exactSafeRegion(ctx context.Context, chk *cancel.Checker, q geom.Point, rsl []Item) (region.Set, error) {
	sp, end := explain.StartPhase(ctx, "saferegion.exact", explain.RuleSafeRegion)
	defer end()
	sp.SetIn(len(rsl))
	sr, err := e.safeRegion(ctx, chk, q, rsl)
	if err == nil {
		sp.SetOut(len(sr))
	}
	return sr, err
}

func (e *Engine) safeRegion(ctx context.Context, chk *cancel.Checker, q geom.Point, rsl []Item) (region.Set, error) {
	universe, ok := e.DB.Universe()
	if !ok {
		return region.Set{geom.PointRect(q)}, nil
	}
	if len(rsl) == 0 {
		// No reverse-skyline points: every position is safe within the
		// universe (extended symmetrically around q like any anti-DDR).
		u := universe.TransformMinMax(q).Hi
		return region.Set{{Lo: q.Sub(u), Hi: q.Add(u)}}, nil
	}
	// The per-customer anti-DDRs — DSL computation plus staircase assembly,
	// the bulk of Algorithm 3 — fan out over exec.Workers(ctx) goroutines.
	// The intersection fold stays on this goroutine: it is an ordered
	// reduction, so the result is identical at every width.
	adds := make([]region.Set, len(rsl))
	err := exec.ForEach(ctx, len(rsl), cancel.SiteSafeRegion, func(chk *cancel.Checker, i int) error {
		var err error
		adds[i], err = e.antiDDRCached(chk, rsl[i], universe, pollAt(chk, cancel.SiteSafeRegion))
		return err
	})
	if err != nil {
		return nil, err
	}
	// Copy: adds[0] may be a shared cached set and the fold (and
	// ensureContainsQ below) append to sr.
	sr := append(region.Set{}, adds[0]...)
	poll := pollAt(chk, cancel.SiteSafeRegion)
	for i := 1; i < len(adds); i++ {
		if sr, err = sr.IntersectSetChecked(adds[i], poll); err != nil {
			return nil, err
		}
		adds[i] = nil // folded: let an uncached set go before the next one
	}
	return ensureContainsQ(sr, q), nil
}

// antiDDRCached computes the anti-dominance region of customer c against the
// current universe, through the engine's anti-DDR cache when one is enabled.
// A hit must match the customer's position and the current database
// generation; anything else recomputes and refreshes the entry. The returned
// set may be shared — callers must not modify it in place.
func (e *Engine) antiDDRCached(chk *cancel.Checker, c Item, universe geom.Rect, poll func() error) (region.Set, error) {
	if e.addr == nil {
		return e.antiDDRCompute(chk, c, universe, poll)
	}
	gen := e.DB.Generation()
	if ent, ok := e.addr.Get(c.ID); ok {
		if ent.gen == gen && ent.point.Equal(c.Point) {
			return ent.set, nil
		}
		// The entry was found but fails validation: a hit that cannot be
		// served. Reclassify it so hit rates stay honest.
		e.addr.MarkStale()
		obs.AddCacheStale(1)
	}
	set, err := e.antiDDRCompute(chk, c, universe, poll)
	if err != nil {
		return nil, err
	}
	// Stamped with the pre-computation generation: a mutation racing with the
	// traversal leaves the entry stale-on-arrival and it is never served.
	e.addr.Put(c.ID, addrEntry{point: c.Point.Clone(), gen: gen, set: set})
	return set, nil
}

// antiDDRCompute is the uncached per-customer unit of Algorithm 3: DSL(c)
// (through the database's DSL cache when enabled) followed by the Fig. 10
// staircase construction.
func (e *Engine) antiDDRCompute(chk *cancel.Checker, c Item, universe geom.Rect, poll func() error) (region.Set, error) {
	dsl, err := e.DB.DynamicSkylineOfChecked(chk, c, c.ID)
	if err != nil {
		return nil, err
	}
	return region.AntiDDRChecked(c.Point, points(dsl), universe, poll)
}

// pollAt adapts a checker to the poll-callback form the region package's
// combinatorial loops accept (rectangle-set intersection and grid staircase
// construction can dwarf any per-customer checkpoint). A nil checker yields a
// nil poll so the legacy paths keep region's zero-overhead loops.
func pollAt(chk *cancel.Checker, site string) func() error {
	if chk == nil {
		return nil
	}
	return func() error { return chk.Point(site) }
}

// ensureContainsQ guarantees the trivially safe position q itself is part of
// the region (it always is for the exact construction; the approximate
// construction can miss it, in which case the safe region degrades to {q}
// and MWQ degrades to MWP, matching §VI.B.2's "no worse than MWP" bound).
func ensureContainsQ(sr region.Set, q geom.Point) region.Set {
	if sr.Contains(q) {
		return sr
	}
	return append(sr, geom.PointRect(q))
}

func points(items []Item) []geom.Point {
	out := make([]geom.Point, len(items))
	for i, it := range items {
		out[i] = it.Point
	}
	return out
}

// ApproxStore holds the pre-computed k-sampled dynamic skylines of §VI.B.1,
// the offline structure that turns safe-region construction from minutes
// into seconds (Fig. 17) at the price of a smaller (but always safe)
// region.
type ApproxStore struct {
	K       int
	SortDim int
	// corners maps a customer ID to the transformed corner points of its
	// approximate anti-DDR.
	corners map[int][]geom.Point
}

// BuildApproxStoreCtx pre-computes approximate anti-DDR corners for every
// given customer: the full DSL is computed once per customer, k-sampled, and
// the resulting corners stored (first and last sorted points always
// retained, no successive-pair merging — Fig. 16). Each customer is an
// independent read-only index traversal, so the loop fans out over
// exec.Workers(ctx) goroutines; the store is identical at every width.
func (e *Engine) BuildApproxStoreCtx(ctx context.Context, customers []Item, k, sortDim int) (*ApproxStore, error) {
	if _, err := entry(ctx); err != nil {
		return nil, err
	}
	store := &ApproxStore{K: k, SortDim: sortDim, corners: make(map[int][]geom.Point, len(customers))}
	universe, ok := e.DB.Universe()
	if !ok {
		return store, nil
	}
	// Per-index result slots: each job writes only its own index, so the
	// map is assembled without locking once the loop is done.
	corners := make([][]geom.Point, len(customers))
	err := exec.ForEach(ctx, len(customers), cancel.SiteStoreBuild, func(chk *cancel.Checker, i int) error {
		c := customers[i]
		dsl, err := e.DB.DynamicSkylineExcludingChecked(chk, c.Point, c.ID)
		if err != nil {
			return err
		}
		sampled := skyline.ApproxDynamic(dsl, c.Point, k, sortDim)
		u := universe.TransformMinMax(c.Point).Hi
		corners[i] = region.ApproxAntiDDRCorners(c.Point, points(sampled), u, sortDim)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, c := range customers {
		store.corners[c.ID] = corners[i]
	}
	return store, nil
}

// Corners returns the stored transformed corners for a customer ID; ok is
// false when the customer was not pre-computed.
func (s *ApproxStore) Corners(id int) ([]geom.Point, bool) {
	c, ok := s.corners[id]
	return c, ok
}

// ApproxSafeRegionCtx assembles the approximate safe region from
// pre-computed corners. Customers missing from the store fall back to an
// exact anti-DDR computation, keeping the result correct (always a subset of
// the exact safe region, so no existing customer can be lost). Its
// checkpoints use a distinct site from the exact construction so fault
// injection can slow one rung of the degradation ladder without the other.
func (e *Engine) ApproxSafeRegionCtx(ctx context.Context, q geom.Point, rsl []Item, store *ApproxStore) (region.Set, error) {
	chk, err := entry(ctx)
	if err != nil {
		return nil, err
	}
	return e.approxSafeRegionPhase(ctx, chk, q, rsl, store)
}

// approxSafeRegionPhase runs the approximate construction under its
// "saferegion.approx" phase, for both the bare region and the approx rung.
func (e *Engine) approxSafeRegionPhase(ctx context.Context, chk *cancel.Checker, q geom.Point, rsl []Item, store *ApproxStore) (region.Set, error) {
	sp, end := explain.StartPhase(ctx, "saferegion.approx", explain.RuleSafeRegion)
	defer end()
	sp.SetIn(len(rsl))
	sr, err := e.approxSafeRegion(chk, q, rsl, store)
	if err == nil {
		sp.SetOut(len(sr))
	}
	return sr, err
}

func (e *Engine) approxSafeRegion(chk *cancel.Checker, q geom.Point, rsl []Item, store *ApproxStore) (region.Set, error) {
	universe, ok := e.DB.Universe()
	if !ok {
		return region.Set{geom.PointRect(q)}, nil
	}
	var sr region.Set
	started := false
	poll := pollAt(chk, cancel.SiteApproxSafeRegion)
	for _, c := range rsl {
		if err := chk.Point(cancel.SiteApproxSafeRegion); err != nil {
			return nil, err
		}
		var add region.Set
		if corners, found := store.Corners(c.ID); found {
			add = region.AntiDDRFromCorners(c.Point, corners)
		} else {
			var err error
			add, err = e.antiDDRCached(chk, c, universe, poll)
			if err != nil {
				return nil, err
			}
		}
		if !started {
			sr, started = append(region.Set{}, add...), true
		} else {
			var err error
			sr, err = sr.IntersectSetChecked(add, poll)
			if err != nil {
				return nil, err
			}
		}
	}
	if !started {
		u := universe.TransformMinMax(q).Hi
		return region.Set{{Lo: q.Sub(u), Hi: q.Add(u)}}, nil
	}
	return ensureContainsQ(sr, q), nil
}

// TruncateSafeRegion implements the §V.B flexibility note: clip the safe
// region to a feature-limit box (e.g. "the price can only move within
// [8K, 12K]"). Truncation preserves the no-customer-lost guarantee; the
// region only gets smaller. If q itself falls outside the limits the result
// can be empty — callers should treat that as "the limits forbid every safe
// position".
func TruncateSafeRegion(sr region.Set, limits geom.Rect) region.Set {
	return sr.IntersectRect(limits)
}

// ExpandSafeRegion implements the other direction of the §V.B note: relax
// the safe region to the whole feature box, accepting that customers may be
// lost. It returns the expanded region together with the customers of rsl
// that would be lost at a given position (use LostCustomers per candidate
// position to quantify the side effect).
func ExpandSafeRegion(limits geom.Rect) region.Set {
	return region.Set{limits.Clone()}
}

// LostCustomersCtx returns the members of rsl that would leave the reverse
// skyline if the query point moved to qStar — the side-effect measure for
// truncated/expanded safe regions and for raw MQP answers. It is rsl minus
// RSL(qStar) over rsl: one window-existence probe per member through the
// database's membership loop, which fans out over exec.Workers(ctx)
// goroutines. The result is in rsl order.
func (e *Engine) LostCustomersCtx(ctx context.Context, qStar geom.Point, rsl []Item) ([]Item, error) {
	if _, err := entry(ctx); err != nil {
		return nil, err
	}
	kept, err := e.DB.ReverseSkylineCtx(ctx, rsl, qStar)
	if err != nil {
		return nil, err
	}
	// kept is a subsequence of rsl, so one merge pass finds the difference.
	var lost []Item
	k := 0
	for _, c := range rsl {
		if k < len(kept) && kept[k].ID == c.ID && kept[k].Point.Equal(c.Point) {
			k++
			continue
		}
		lost = append(lost, c)
	}
	return lost, nil
}

// AntiDDROfCtx returns the anti-dominance region of an arbitrary point as a
// rectangle set (used by Algorithm 4 for the why-not point and exposed for
// callers that want to inspect it).
func (e *Engine) AntiDDROfCtx(ctx context.Context, c Item) (region.Set, error) {
	chk, err := entry(ctx)
	if err != nil {
		return nil, err
	}
	return e.antiDDROf(chk, c)
}

func (e *Engine) antiDDROf(chk *cancel.Checker, c Item) (region.Set, error) {
	universe, ok := e.DB.Universe()
	if !ok {
		return region.Set{geom.PointRect(c.Point)}, nil
	}
	return e.antiDDRCompute(chk, c, universe, pollAt(chk, cancel.SiteAntiDDR))
}
