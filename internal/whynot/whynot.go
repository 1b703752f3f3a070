// Package whynot implements the paper's contribution: answering why-not
// questions in reverse skyline queries.
//
// Given a product database P (package rskyline), a query product q and a
// why-not customer c_t ∉ RSL(q), the package provides:
//
//   - Explain — aspect (1) of §III: the culprit products Λ returned by the
//     window query, whose deletion would admit c_t (Lemma 1);
//   - MWP (Algorithm 1) — move the why-not point: minimal modifications
//     c_t → c_t* such that q ∈ DSL(c_t*);
//   - MQP (Algorithm 2) — move the query point: minimal modifications
//     q → q* such that c_t ∈ RSL(q*), possibly losing existing customers;
//   - SafeRegion (Algorithm 3, Lemma 2/3) — the exact region where q may
//     move without losing any existing reverse-skyline customer, plus the
//     approximate variant of §VI.B.1;
//   - MWQ (Algorithm 4) — move q inside its safe region and, only when
//     unavoidable (case C2 of Table I), also move c_t, minimising the cost
//     of Eqn. (11).
//
// Candidate semantics: as in the paper's worked examples, candidates lie on
// the closure of the valid region; they are infima of the movement cost and
// become strictly valid after an arbitrarily small further move. Validation
// helpers apply that ε-move before re-checking membership with real window
// queries.
package whynot

import (
	"context"
	"math"
	"sort"

	"repro/internal/cancel"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// Item aliases the R-tree item type.
type Item = rtree.Item

// Options tunes the algorithms. The zero value reproduces the paper's
// experimental setup: sort dimension 0, equal weights summing to one.
type Options struct {
	// SortDim is the dimension used to sort the candidate list M.
	SortDim int
	// WeightsC is the β vector of Eqn. (9) weighting why-not-point movement
	// per dimension. Nil means equal weights 1/d.
	WeightsC []float64
	// WeightsQ is the α vector weighting query-point movement. Nil means
	// equal weights 1/d.
	WeightsQ []float64
}

// Candidate is one proposed new location together with its normalised
// weighted L1 cost from the original location (Eqn. (11) after min–max
// normalisation).
type Candidate struct {
	Point geom.Point
	Cost  float64
}

// Engine binds a product database with the normaliser used for costs.
// Every window query and dynamic skyline it runs for a customer follows the
// monochromatic convention: the customer's own product record (matched by
// ID) is invisible to it. For bichromatic data, whose customer IDs are
// disjoint from the product IDs, the convention is a no-op.
type Engine struct {
	DB   *rskyline.DB
	Norm *geom.Normalizer

	// addr memoises per-customer anti-dominance regions (the per-c_l unit of
	// Algorithm 3). Nil — the default — disables caching. Entries carry the
	// database generation observed before computing and are ignored when the
	// database has mutated since, so Insert/Delete invalidate implicitly even
	// if a stale entry survives a purge race.
	addr *exec.Cache[int, addrEntry]
}

// addrEntry is one cached anti-DDR: the customer position it was computed
// for, the database generation it is valid against, and the rectangle set.
// The set is shared between queries and must be treated as immutable.
type addrEntry struct {
	point geom.Point
	gen   uint64
	set   region.Set
}

// EnableAntiDDRCache turns on memoisation of per-customer anti-dominance
// regions, bounded to capacity entries (capacity <= 0 disables caching).
// Safe-region construction for repeated query points over a stable customer
// set then skips both the DSL computation and the staircase construction for
// cached customers.
func (e *Engine) EnableAntiDDRCache(capacity int) {
	e.addr = exec.NewCache[int, addrEntry](capacity)
}

// AntiDDRCacheStats reports the cumulative accounting of the anti-DDR cache
// (all-zero when caching is disabled).
func (e *Engine) AntiDDRCacheStats() exec.CacheStats {
	return e.addr.Stats()
}

// InvalidateCaches eagerly drops every cached per-customer structure held by
// the engine. Correctness never depends on calling it — entries are
// generation-validated against the database and go stale automatically on
// Insert/Delete — but an explicit purge releases their memory immediately
// instead of waiting for LRU eviction.
func (e *Engine) InvalidateCaches() {
	e.addr.Purge()
}

// NewEngine builds an engine over db. The cost normaliser is fitted to the
// product universe.
func NewEngine(db *rskyline.DB) *Engine {
	u, ok := db.Universe()
	if !ok {
		u = geom.NewRect(make(geom.Point, db.Dims()), make(geom.Point, db.Dims()))
	}
	return &Engine{DB: db, Norm: geom.NewNormalizerFromRect(u)}
}

// entry guards a context-aware entry point: it rejects an already-cancelled
// context before any algorithmic work happens and hands back the per-query
// checker used by every checkpoint below.
func entry(ctx context.Context) (*cancel.Checker, error) {
	if ctx == nil {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return cancel.FromContext(ctx), nil
}

// ExplainCtx answers aspect (1) of §III: it returns the products Λ that
// keep c_t out of RSL(q). An empty result means c_t is already a
// reverse-skyline point of q. By Lemma 1, deleting Λ from P admits c_t.
func (e *Engine) ExplainCtx(ctx context.Context, ct Item, q geom.Point) ([]Item, error) {
	chk, err := entry(ctx)
	if err != nil {
		return nil, err
	}
	sp, end := explain.StartPhase(ctx, "explain.window", explain.RuleDSLWindow)
	defer end()
	out, err := e.DB.WindowQueryChecked(chk, ct.Point, q, ct.ID)
	if err == nil {
		sp.SetOut(len(out))
	}
	return out, err
}

// costC returns the normalised β-weighted movement cost of the why-not point.
func (e *Engine) costC(from, to geom.Point, opt Options) float64 {
	return e.Norm.NormalizedL1(from, to, opt.WeightsC)
}

// costQ returns the normalised α-weighted movement cost of the query point.
func (e *Engine) costQ(from, to geom.Point, opt Options) float64 {
	return e.Norm.NormalizedL1(from, to, opt.WeightsQ)
}

// MWPResult is the outcome of Algorithm 1.
type MWPResult struct {
	// Frontier is F: the members of the window-query result Λ minimal under
	// dynamic dominance w.r.t. q, whose midpoints bound the valid area. (The
	// full Λ is never materialised — use Explain for aspect (1); the
	// frontier is extracted by an index-level branch-and-bound.)
	Frontier []Item
	// Candidates are the proposed c_t* locations, sorted by ascending cost.
	Candidates []Candidate
	// AlreadyMember is true when c_t ∈ RSL(q); then the single zero-cost
	// candidate is c_t itself.
	AlreadyMember bool
}

// Best returns the cheapest candidate. It panics on an empty result, which
// cannot happen for results produced by MWP.
func (r MWPResult) Best() Candidate { return r.Candidates[0] }

// MWPCtx implements Algorithm 1 (Modify Why-Not Point): it computes
// candidate locations c_t* of minimal movement such that q enters the
// dynamic skyline of c_t*. The construction works in the
// orientation-canonical frame (each dimension flipped so that q lies above
// c_t), which reproduces the paper's formulas exactly for their
// configuration and stays correct for arbitrary relative positions. The
// frontier extraction (the only index-touching, potentially expensive step)
// carries checkpoints.
func (e *Engine) MWPCtx(ctx context.Context, ct Item, q geom.Point, opt Options) (MWPResult, error) {
	chk, err := entry(ctx)
	if err != nil {
		return MWPResult{}, err
	}
	_, end := explain.StartPhase(ctx, "mwp", explain.RuleNone)
	defer end()
	return e.mwp(chk, explain.From(ctx), ct, q, opt)
}

// mwp runs Algorithm 1. eb, when non-nil, receives the per-phase plan nodes
// (threaded explicitly like chk — this layer has no context).
func (e *Engine) mwp(chk *cancel.Checker, eb *explain.Builder, ct Item, q geom.Point, opt Options) (MWPResult, error) {
	spF := eb.Start("mwp.frontier", explain.RuleDSLWindow)
	frontier, err := e.DB.WindowFrontierChecked(chk, ct.Point, q, q, ct.ID)
	if err != nil {
		spF.End()
		return MWPResult{}, err
	}
	spF.SetOut(len(frontier))
	spF.End()
	if len(frontier) == 0 {
		return MWPResult{
			AlreadyMember: true,
			Candidates:    []Candidate{{Point: ct.Point.Clone(), Cost: 0}},
		}, nil
	}
	spC := eb.Start("mwp.candidates", explain.RuleMidpoint)
	spC.SetIn(len(frontier))
	defer spC.End()

	d := len(q)
	i := opt.SortDim
	// Canonical frame: flip dimensions so that q ≥ c_t everywhere.
	dir := directions(ct.Point, q)
	cc := flip(ct.Point, dir)
	qc := flip(q, dir)

	// Midpoints between each frontier point and q (Eqn. (1) generalised to
	// both sides: u = (e + q)/2). Dimensions in which the frontier point
	// coincides with q are degenerate: no position can make q strictly
	// closer there, so they never count toward validity.
	mids := make([]geom.Point, len(frontier))
	degen := make([][]bool, len(frontier))
	for k, f := range frontier {
		fc := flip(f.Point, dir)
		m := make(geom.Point, d)
		dg := make([]bool, d)
		for j := 0; j < d; j++ {
			m[j] = (fc[j] + qc[j]) / 2
			dg[j] = fc[j] == qc[j]
		}
		mids[k] = m
		degen[k] = dg
	}
	// Keep only maximal midpoints in the canonical frame (midpoints of
	// frontier points form an antichain when the frontier does, but guard
	// against ties), then sort by the chosen dimension.
	keep := maximalIndices(mids)
	sort.Slice(keep, func(a, b int) bool { return mids[keep[a]][i] < mids[keep[b]][i] })
	binding := make([]constraint, len(keep))
	for k, idx := range keep {
		binding[k] = constraint{mid: mids[idx], degen: degen[idx]}
	}

	// Build the candidate list: projection of the first entry onto c_t in
	// dimension i, coordinate-wise minima of successive pairs (Eqn. (2)),
	// projection of the last entry onto c_t in the remaining dimensions
	// (Eqn. (3)).
	var canon []geom.Point
	first := binding[0].mid.Clone()
	first[i] = cc[i]
	canon = append(canon, first)
	for k := 0; k+1 < len(binding); k++ {
		canon = append(canon, binding[k].mid.Min(binding[k+1].mid))
	}
	last := binding[len(binding)-1].mid.Clone()
	for j := 0; j < d; j++ {
		if j != i {
			last[j] = cc[j]
		}
	}
	canon = append(canon, last)

	// Closure-validity filter: a canonical candidate x neutralises a
	// frontier midpoint u iff some non-degenerate dimension has x_j ≥ u_j
	// (an ε-move toward q then makes q strictly closer there). Degenerate
	// dimensions never help, and in higher dimensions the paper's
	// construction can emit invalid combinations; both are dropped here.
	valid := canon[:0]
	for _, x := range canon {
		if canonValid(x, binding) {
			valid = append(valid, x)
		}
	}
	if len(valid) == 0 {
		// Always-valid fallback: moving c_t onto q itself puts q at
		// transformed distance zero, where nothing strictly dominates it.
		valid = append(valid, qc)
	}

	cands := make([]Candidate, 0, len(valid))
	for _, m := range valid {
		p := flip(m, dir)
		cands = append(cands, Candidate{Point: p, Cost: e.costC(ct.Point, p, opt)})
	}
	obs.AddCandidateEvaluations(len(cands))
	sortCandidates(cands)
	deduped := dedupCandidates(cands)
	spC.SetOut(len(deduped))
	return MWPResult{Frontier: frontier, Candidates: deduped}, nil
}

// constraint is one binding frontier midpoint with its per-dimension
// degeneracy mask (true where the frontier point coincides with q).
type constraint struct {
	mid   geom.Point
	degen []bool
}

// canonValid reports whether canonical candidate x lies in the closure of
// the valid region bounded by the given constraints: for every midpoint
// there must be a non-degenerate dimension with x_j ≥ u_j.
func canonValid(x geom.Point, binding []constraint) bool {
	for _, c := range binding {
		ok := false
		for j := range x {
			if !c.degen[j] && x[j] >= c.mid[j] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// maximalIndices returns the indices of the points not weakly dominated from
// above by another point, deduplicating equal points.
func maximalIndices(pts []geom.Point) []int {
	var out []int
	for a, pa := range pts {
		covered := false
		for b, pb := range pts {
			if a == b {
				continue
			}
			if pa.WeaklyDominates(pb) && !pb.Equal(pa) {
				covered = true
				break
			}
			if pb.Equal(pa) && b < a {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, a)
		}
	}
	return out
}

// directions returns per-dimension +1/−1 so that flipping makes q ≥ c.
func directions(c, q geom.Point) []float64 {
	dir := make([]float64, len(c))
	for j := range c {
		if q[j] >= c[j] {
			dir[j] = 1
		} else {
			dir[j] = -1
		}
	}
	return dir
}

func flip(p geom.Point, dir []float64) geom.Point {
	out := make(geom.Point, len(p))
	for j := range p {
		out[j] = p[j] * dir[j]
	}
	return out
}

func sortCandidates(cands []Candidate) {
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].Cost < cands[b].Cost })
}

func dedupCandidates(cands []Candidate) []Candidate {
	var out []Candidate
	for _, c := range cands {
		dup := false
		for _, kept := range out {
			if kept.Point.Equal(c.Point) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// ValidateWhyNotMoveCtx reports whether moving the why-not point to cand
// admits it into RSL(q) after an ε-nudge toward q (candidates lie on the
// closure of the valid region; see the package comment).
func (e *Engine) ValidateWhyNotMoveCtx(ctx context.Context, ct Item, q geom.Point, cand geom.Point, eps float64) (bool, error) {
	chk, err := entry(ctx)
	if err != nil {
		return false, err
	}
	nudged := nudgeToward(cand, q, eps)
	found, err := e.DB.WindowExistsChecked(chk, nudged, q, ct.ID)
	if err != nil {
		return false, err
	}
	return !found, nil
}

// nudgeToward moves p a relative distance eps toward target.
func nudgeToward(p, target geom.Point, eps float64) geom.Point {
	out := make(geom.Point, len(p))
	for j := range p {
		out[j] = p[j] + eps*(target[j]-p[j])
	}
	return out
}

// minCost returns the smallest candidate cost, or +Inf on empty input.
func minCost(cands []Candidate) float64 {
	best := math.Inf(1)
	for _, c := range cands {
		if c.Cost < best {
			best = c.Cost
		}
	}
	return best
}
