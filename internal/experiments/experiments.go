// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI):
//
//	Table III  — quality (solution cost) of MWP/MQP/MWQ on CarDB 50K/100K/200K
//	Table IV   — quality on synthetic UN/CO/AC 100K and 200K
//	Fig. 14    — reverse-skyline size vs safe-region area
//	Fig. 15    — execution time of MWP, MQP, SR and MWQ
//	Table V/VI — Approx-MWQ quality vs the exact methods
//	Fig. 17    — execution time of MWP, MQP and Approx-MWQ
//
// A Suite binds one dataset (used monochromatically as both products and
// customer preferences, as in the paper) with a query workload of reverse
// skyline sizes 1–15; the Run* methods produce rows shaped like the paper's
// tables, and the Format* helpers render them.
package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/whynot"
)

// bg runs the experiment queries: it can never be cancelled, so value may
// drop their always-nil errors.
var bg = context.Background()

func value[T any](v T, _ error) T { return v }

// Item aliases the R-tree item type.
type Item = rtree.Item

// Suite is one dataset plus its query workload.
type Suite struct {
	Name   string
	Engine *whynot.Engine
	Items  []Item
	Cases  []dataset.QueryCase
}

// DefaultRSLTargets is the paper's workload: queries with 1–15 reverse
// skyline points.
var DefaultRSLTargets = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// NewSuite generates a dataset of the given kind and size, indexes it, and
// selects a query workload covering the requested reverse-skyline sizes.
func NewSuite(kind datagen.Kind, size int, targets []int, seed int64) *Suite {
	items := datagen.Generate(kind, size, 2, seed)
	return NewSuiteFromItems(fmt.Sprintf("%s-%dK", kind, size/1000), items, targets, seed+1)
}

// NewSuiteFromItems builds a suite over pre-generated items.
func NewSuiteFromItems(name string, items []Item, targets []int, seed int64) *Suite {
	db := rskyline.NewDB(2, items, rtree.Config{})
	rng := rand.New(rand.NewSource(seed))
	maxTrials := 150 * len(targets)
	cases := dataset.FindQueries(db, nil, targets, maxTrials, rng)
	return &Suite{
		Name:   name,
		Engine: whynot.NewEngine(db),
		Items:  items,
		Cases:  cases,
	}
}

// QualityRow is one line of Tables III–VI: the best solution cost of each
// method for one query.
type QualityRow struct {
	Query     int
	RSLSize   int
	MWP       float64
	MQP       float64
	MWQ       float64
	ApproxMWQ float64 // NaN unless an ApproxStore was supplied
}

// TimingRow is one line of Figs. 15/17: wall-clock time per method.
type TimingRow struct {
	RSLSize   int
	MWP       time.Duration
	MQP       time.Duration
	SR        time.Duration // safe-region construction alone
	MWQ       time.Duration // SR + Algorithm 4
	ApproxMWQ time.Duration // approximate SR assembly + Algorithm 4
}

// AreaRow is one point of Fig. 14: safe-region area (as a fraction of the
// data universe) per reverse-skyline size.
type AreaRow struct {
	RSLSize int
	Area    float64
	Frac    float64
}

// RunQuality produces the rows of Tables III/IV (and V/VI when store is
// non-nil). Costs follow §VI.A: min–max-normalised weighted L1 with equal
// weights; MQP additionally charges the restoration of lost customers.
func (s *Suite) RunQuality(store *whynot.ApproxStore) []QualityRow {
	opt := whynot.Options{}
	rows := make([]QualityRow, 0, len(s.Cases))
	for i, qc := range s.Cases {
		e := s.Engine
		sr := value(e.SafeRegionCtx(bg, qc.Q, qc.RSL))

		mwp := value(e.MWPCtx(bg, qc.WhyNot, qc.Q, opt)).Best().Cost

		mqpRes := value(e.MQPCtx(bg, qc.WhyNot, qc.Q, opt))
		mqp := math.Inf(1)
		for _, cand := range mqpRes.Candidates {
			if c := value(e.MQPTotalCostCtx(bg, qc.Q, cand.Point, qc.RSL, sr, opt)); c < mqp {
				mqp = c
			}
		}

		mwq := value(e.MWQCtx(bg, qc.WhyNot, qc.Q, sr, opt)).Cost

		approx := math.NaN()
		if store != nil {
			approx = value(e.MWQApproxCtx(bg, qc.WhyNot, qc.Q, qc.RSL, store, opt)).Cost
		}
		rows = append(rows, QualityRow{
			Query: i + 1, RSLSize: len(qc.RSL),
			MWP: mwp, MQP: mqp, MWQ: mwq, ApproxMWQ: approx,
		})
	}
	return rows
}

// RunTiming produces the rows of Fig. 15 (and Fig. 17 when store is
// non-nil): per-method wall-clock times for each query of the workload.
func (s *Suite) RunTiming(store *whynot.ApproxStore) []TimingRow {
	opt := whynot.Options{}
	rows := make([]TimingRow, 0, len(s.Cases))
	for _, qc := range s.Cases {
		e := s.Engine
		var row TimingRow
		row.RSLSize = len(qc.RSL)

		t0 := time.Now()
		e.MWPCtx(bg, qc.WhyNot, qc.Q, opt)
		row.MWP = time.Since(t0)

		t0 = time.Now()
		e.MQPCtx(bg, qc.WhyNot, qc.Q, opt)
		row.MQP = time.Since(t0)

		t0 = time.Now()
		sr := value(e.SafeRegionCtx(bg, qc.Q, qc.RSL))
		row.SR = time.Since(t0)

		t0 = time.Now()
		e.MWQCtx(bg, qc.WhyNot, qc.Q, sr, opt)
		row.MWQ = row.SR + time.Since(t0)

		if store != nil {
			t0 = time.Now()
			e.MWQApproxCtx(bg, qc.WhyNot, qc.Q, qc.RSL, store, opt)
			row.ApproxMWQ = time.Since(t0)
		}
		rows = append(rows, row)
	}
	return rows
}

// RunSafeRegionArea produces the Fig. 14 series: safe-region area per
// reverse-skyline size, both absolute and as a fraction of the data
// universe's area.
func (s *Suite) RunSafeRegionArea() []AreaRow {
	universe, ok := s.Engine.DB.Universe()
	uArea := 1.0
	if ok {
		uArea = universe.Area()
	}
	rows := make([]AreaRow, 0, len(s.Cases))
	for _, qc := range s.Cases {
		sr := value(s.Engine.SafeRegionCtx(bg, qc.Q, qc.RSL))
		// Clip to the universe so the fraction is comparable across queries
		// (anti-DDR rectangles extend symmetrically beyond the data range).
		a := sr.IntersectRect(universe).Area()
		rows = append(rows, AreaRow{RSLSize: len(qc.RSL), Area: a, Frac: a / uArea})
	}
	return rows
}

// BuildStore precomputes the approximate-DSL store of §VI.B.1 for the
// suite's customers that actually appear in some workload RSL, plus every
// customer (full offline precomputation) when full is true.
func (s *Suite) BuildStore(k int, full bool) *whynot.ApproxStore {
	if full {
		return value(s.Engine.BuildApproxStoreCtx(bg, s.Items, k, 0))
	}
	seen := map[int]bool{}
	var needed []Item
	for _, qc := range s.Cases {
		for _, c := range qc.RSL {
			if !seen[c.ID] {
				seen[c.ID] = true
				needed = append(needed, c)
			}
		}
	}
	return value(s.Engine.BuildApproxStoreCtx(bg, needed, k, 0))
}

// ShapeChecks evaluates the qualitative claims of §VI against quality rows,
// returning human-readable violations (empty means every claim held):
//
//  1. cost(MWQ) ≤ cost(MWP) for every query;
//  2. zero-cost MWQ answers appear only via safe-region overlap (case C1);
//  3. Approx-MWQ is never worse than MWP (when present).
func ShapeChecks(rows []QualityRow) []string {
	const eps = 1e-9
	var bad []string
	for _, r := range rows {
		if r.MWQ > r.MWP+eps {
			bad = append(bad, fmt.Sprintf("q%d (|RSL|=%d): MWQ %.9f > MWP %.9f",
				r.Query, r.RSLSize, r.MWQ, r.MWP))
		}
		if !math.IsNaN(r.ApproxMWQ) && r.ApproxMWQ > r.MWP+eps {
			bad = append(bad, fmt.Sprintf("q%d (|RSL|=%d): Approx-MWQ %.9f > MWP %.9f",
				r.Query, r.RSLSize, r.ApproxMWQ, r.MWP))
		}
	}
	return bad
}
