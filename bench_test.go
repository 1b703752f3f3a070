package repro

// Benchmarks: one per table and figure of the paper's evaluation (§VI), plus
// component micro-benchmarks for the substrates. The experiment benchmarks
// run the same harness as cmd/experiments on bench-sized datasets (the full
// paper-scale sweep is `go run ./cmd/experiments`); what testing.B measures
// here is the per-query cost of regenerating one row of the corresponding
// table or one point of the corresponding figure.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/whynot"
)

// must unwraps a query run under a background context, which cannot fail.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

const (
	benchSize = 20000
	benchSeed = 2013 // ICDE 2013
)

var benchTargets = []int{1, 2, 3, 4, 5, 6, 7, 8}

// suiteCache builds each experiment suite once per process.
var suiteCache = struct {
	sync.Mutex
	m map[string]*experiments.Suite
}{m: map[string]*experiments.Suite{}}

func benchSuite(b *testing.B, kind datagen.Kind) *experiments.Suite {
	b.Helper()
	suiteCache.Lock()
	defer suiteCache.Unlock()
	key := kind.String()
	if s, ok := suiteCache.m[key]; ok {
		return s
	}
	s := experiments.NewSuite(kind, benchSize, benchTargets, benchSeed)
	if len(s.Cases) == 0 {
		b.Fatalf("no query cases for %v", kind)
	}
	suiteCache.m[key] = s
	return s
}

var storeCache = struct {
	sync.Mutex
	m map[string]*whynot.ApproxStore
}{m: map[string]*whynot.ApproxStore{}}

func benchStore(b *testing.B, s *experiments.Suite, k int) *whynot.ApproxStore {
	b.Helper()
	storeCache.Lock()
	defer storeCache.Unlock()
	if st, ok := storeCache.m[s.Name]; ok {
		return st
	}
	st := s.BuildStore(k, false)
	storeCache.m[s.Name] = st
	return st
}

// quality benchmarks: Tables III (CarDB) and IV (UN/CO/AC).

func benchmarkQuality(b *testing.B, kind datagen.Kind) {
	s := benchSuite(b, kind)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.RunQuality(nil)
		if bad := experiments.ShapeChecks(rows); len(bad) != 0 {
			b.Fatalf("shape violations: %v", bad)
		}
	}
}

func BenchmarkTable3CarDBQuality(b *testing.B)      { benchmarkQuality(b, datagen.CarDB) }
func BenchmarkTable4UniformQuality(b *testing.B)    { benchmarkQuality(b, datagen.Uniform) }
func BenchmarkTable4CorrelatedQuality(b *testing.B) { benchmarkQuality(b, datagen.Correlated) }
func BenchmarkTable4AntiCorrQuality(b *testing.B)   { benchmarkQuality(b, datagen.AntiCorrelated) }

// Tables V/VI: the approximate method against the exact ones.

func benchmarkApproxQuality(b *testing.B, kind datagen.Kind, k int) {
	s := benchSuite(b, kind)
	store := benchStore(b, s, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := s.RunQuality(store)
		if bad := experiments.ShapeChecks(rows); len(bad) != 0 {
			b.Fatalf("shape violations: %v", bad)
		}
	}
}

func BenchmarkTable5CarDBApprox(b *testing.B)   { benchmarkApproxQuality(b, datagen.CarDB, 10) }
func BenchmarkTable6UniformApprox(b *testing.B) { benchmarkApproxQuality(b, datagen.Uniform, 10) }

// Fig. 14: safe-region area per reverse-skyline size.

func BenchmarkFig14SafeRegionArea(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := s.RunSafeRegionArea(); len(rows) == 0 {
			b.Fatal("no area rows")
		}
	}
}

// Fig. 15: per-method execution time. Each method gets its own benchmark so
// that -bench output shows the same series as the figure.

func benchCase(b *testing.B, s *experiments.Suite) (e *whynot.Engine, qc0 int) {
	b.Helper()
	if len(s.Cases) == 0 {
		b.Fatal("no cases")
	}
	return s.Engine, len(s.Cases) - 1 // the largest-RSL case
}

func BenchmarkFig15MWP(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	e, i := benchCase(b, s)
	qc := s.Cases[i]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.MWPCtx(context.Background(), qc.WhyNot, qc.Q, whynot.Options{})
	}
}

func BenchmarkFig15MQP(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	e, i := benchCase(b, s)
	qc := s.Cases[i]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.MQPCtx(context.Background(), qc.WhyNot, qc.Q, whynot.Options{})
	}
}

func BenchmarkFig15SafeRegion(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	e, i := benchCase(b, s)
	qc := s.Cases[i]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.SafeRegionCtx(context.Background(), qc.Q, qc.RSL)
	}
}

func BenchmarkFig15MWQ(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	e, i := benchCase(b, s)
	qc := s.Cases[i]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.MWQExactCtx(context.Background(), qc.WhyNot, qc.Q, qc.RSL, whynot.Options{})
	}
}

// Fig. 17: the approximate pipeline at query time (precomputation excluded,
// as in the paper — the store is built offline).

func BenchmarkFig17ApproxMWQ(b *testing.B) {
	s := benchSuite(b, datagen.CarDB)
	store := benchStore(b, s, 10)
	e, i := benchCase(b, s)
	qc := s.Cases[i]
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.MWQApproxCtx(context.Background(), qc.WhyNot, qc.Q, qc.RSL, store, whynot.Options{})
	}
}

// Substrate micro-benchmarks.

func benchItems(n int) []Item {
	return datagen.Generate(datagen.Uniform, n, 2, 99)
}

func BenchmarkRTreeBulkLoad(b *testing.B) {
	items := benchItems(benchSize)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rtree.BulkLoad(2, items, rtree.Config{})
	}
}

func BenchmarkRTreeInsert(b *testing.B) {
	items := benchItems(benchSize)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		t := rtree.New(2, rtree.Config{})
		for _, it := range items[:5000] {
			t.Insert(it)
		}
	}
}

func BenchmarkWindowExistenceQuery(b *testing.B) {
	items := benchItems(benchSize)
	db := rskyline.NewDB(2, items, rtree.Config{})
	rng := rand.New(rand.NewSource(1))
	q := NewPoint(500, 500)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c := items[rng.Intn(len(items))]
		db.WindowExistsChecked(nil, c.Point, q, c.ID)
	}
}

func BenchmarkDynamicSkylineBBS(b *testing.B) {
	items := benchItems(benchSize)
	db := rskyline.NewDB(2, items, rtree.Config{})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		db.DynamicSkylineChecked(nil, NewPoint(500, 500))
	}
}

func BenchmarkReverseSkylineFiltered(b *testing.B) {
	items := benchItems(benchSize)
	db := rskyline.NewDB(2, items, rtree.Config{})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		db.ReverseSkylineFilteredCtx(context.Background(), items, NewPoint(500, 500))
	}
}

func BenchmarkReverseSkylineUnfiltered(b *testing.B) {
	items := benchItems(5000) // quadratic in effect; keep it smaller
	db := rskyline.NewDB(2, items, rtree.Config{})
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		db.ReverseSkylineCtx(context.Background(), items, NewPoint(500, 500))
	}
}

// Parallel-executor benchmarks on the CarDB-50K workload (the JSON smoke run
// with a fixed configuration is `make bench-smoke` / cmd/parallelbench).

var carDB50K = struct {
	sync.Once
	items []Item
	q     Point
	rsl   []Item
}{}

// benchCarDB50K lazily builds the CarDB-50K dataset plus a product-anchored
// query whose monochromatic reverse skyline is large enough for safe-region
// work to dominate, mirroring the paper's timing figures.
func benchCarDB50K(b *testing.B) ([]Item, Point, []Item) {
	b.Helper()
	carDB50K.Do(func() {
		items := datagen.Generate(datagen.CarDB, 50_000, 2, benchSeed)
		db := rskyline.NewDB(2, items, rtree.Config{})
		rng := rand.New(rand.NewSource(benchSeed + 1))
		for tries := 0; tries < 500; tries++ {
			p := items[rng.Intn(len(items))]
			q := append(Point{}, p.Point...)
			for j := range q {
				q[j] *= 1.01
			}
			if rsl := must(db.ReverseSkylineBBRSCtx(context.Background(), q)); len(rsl) >= 16 {
				carDB50K.items, carDB50K.q, carDB50K.rsl = items, q, rsl[:16]
				return
			}
		}
	})
	if carDB50K.items == nil {
		b.Fatal("no suitable CarDB-50K query found")
	}
	return carDB50K.items, carDB50K.q, carDB50K.rsl
}

func BenchmarkReverseSkylineParallel(b *testing.B) {
	items, q, _ := benchCarDB50K(b)
	cts := items[:5000]
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			db := NewDBWithOptions(2, items, DBOptions{Parallelism: w})
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				db.ReverseSkyline(cts, q)
			}
		})
	}
}

func BenchmarkSafeRegionParallel(b *testing.B) {
	items, q, rsl := benchCarDB50K(b)
	for _, cfg := range []struct {
		name string
		opts DBOptions
	}{
		{"sequential", DBOptions{}},
		{"workers=4", DBOptions{Parallelism: 4}},
		{"workers=4+cache", DBOptions{Parallelism: 4, CacheSize: 4096}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db := NewDBWithOptions(2, items, cfg.opts)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				db.SafeRegion(q, rsl)
			}
		})
	}
}

func BenchmarkApproxStoreBuild(b *testing.B) {
	items := benchItems(2000)
	db := rskyline.NewDB(2, items, rtree.Config{})
	e := whynot.NewEngine(db)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.BuildApproxStoreCtx(context.Background(), items[:200], 10, 0)
	}
}
