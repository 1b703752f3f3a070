package repro

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// approximate-store sampling constant k, the R*-tree page size, the
// global-skyline candidate filter, and rectangle-set pruning inside the
// safe-region intersection.

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/whynot"
)

// Ablation 1: Approx-MWQ cost/time as k grows (paper: k chosen empirically;
// larger k = bigger store, tighter safe region, cheaper answers).
func BenchmarkAblationApproxK(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	for _, k := range []int{2, 5, 10, 20, 40} {
		store := must(s.Engine.BuildApproxStoreCtx(exec.WithWorkers(context.Background(), -1), rslCustomers(s), k, 0))
		b.Run(benchName("k", k), func(b *testing.B) {
			e := s.Engine
			qc := s.Cases[len(s.Cases)-1]
			for n := 0; n < b.N; n++ {
				e.MWQApproxCtx(context.Background(), qc.WhyNot, qc.Q, qc.RSL, store, whynot.Options{})
			}
		})
	}
}

// rslCustomers collects the distinct reverse-skyline customers across the
// suite's workload — the set a real deployment would precompute for.
func rslCustomers(s *experiments.Suite) []Item {
	seen := map[int]bool{}
	var out []Item
	for _, qc := range s.Cases {
		for _, c := range qc.RSL {
			if !seen[c.ID] {
				seen[c.ID] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Ablation 2: window-query throughput vs R*-tree page size (the paper fixes
// 1536 bytes; this shows the sensitivity).
func BenchmarkAblationPageSize(b *testing.B) {
	items := benchItems(benchSize)
	q := NewPoint(500, 500)
	for _, page := range []int{512, 1536, 4096, 16384} {
		db := rskyline.NewDB(2, items, rtree.Config{PageSize: page})
		b.Run(benchName("page", page), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				c := items[n%len(items)]
				db.WindowExistsChecked(nil, c.Point, q, c.ID)
			}
		})
	}
}

// Ablation 3: reverse-skyline computation over every product against the
// index-based BBRS traversal, whose global-skyline candidates skip most
// window queries.
func BenchmarkAblationRSLFilter(b *testing.B) {
	items := benchItems(benchSize)
	db := rskyline.NewDB(2, items, rtree.Config{})
	q := NewPoint(500, 500)
	b.Run("unfiltered", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			db.ReverseSkylineCtx(context.Background(), items, q)
		}
	})
	b.Run("bbrs-index", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			db.ReverseSkylineBBRSCtx(context.Background(), q)
		}
	})
}

// Ablation 4: the containment prune inside rectangle-set intersection. The
// safe-region construction relies on it to keep intermediate sets small.
func BenchmarkAblationRegionPrune(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	qc := s.Cases[len(s.Cases)-1]
	// Collect the per-customer anti-DDRs once.
	var parts []region.Set
	for _, c := range qc.RSL {
		parts = append(parts, must(s.Engine.AntiDDROfCtx(context.Background(), c)))
	}
	b.Run("with-prune", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			acc := parts[0]
			for _, p := range parts[1:] {
				acc = acc.IntersectSet(p) // prunes internally
			}
		}
	})
	b.Run("prune-only-at-end", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			acc := parts[0]
			for _, p := range parts[1:] {
				var raw region.Set
				for _, x := range acc {
					for _, y := range p {
						if r, ok := x.Intersect(y); ok {
							raw = append(raw, r)
						}
					}
				}
				acc = raw
			}
			_ = acc.Prune()
		}
	})
}

// Ablation 5: serial vs parallel approximate-store precomputation.
func BenchmarkAblationStoreBuild(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	customers := rslCustomers(s)
	b.Run("serial", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			s.Engine.BuildApproxStoreCtx(context.Background(), customers, 10, 0)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			s.Engine.BuildApproxStoreCtx(exec.WithWorkers(context.Background(), -1), customers, 10, 0)
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
