package whynot

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/region"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// TestConcurrentSafeRegionDuringMutation races cached safe-region
// construction (anti-DDR cache plus DSL cache, parallel and sequential
// paths) against Insert/Delete churn on the underlying index. Run under
// -race this witnesses the lock discipline; the generation quiescence check
// witnesses that no stale cached region is ever served.
func TestConcurrentSafeRegionDuringMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	products := randProducts(150, 500)
	db := rskyline.NewDB(2, products, rtree.Config{})
	db.EnableDSLCache(64)
	e := NewEngine(db)
	e.EnableAntiDDRCache(64)

	// A query with a small reverse skyline, found deterministically.
	var q geom.Point
	var rsl []Item
	for trial := 0; trial < 50; trial++ {
		cand := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if r := must(db.ReverseSkylineCtx(context.Background(), products, cand)); len(r) >= 2 && len(r) <= 8 {
			q, rsl = cand, r
			break
		}
	}
	if rsl == nil {
		t.Fatal("no suitable query sampled")
	}

	var mutator sync.WaitGroup
	stop := make(chan struct{})
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			it := Item{ID: 9700, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)}
			if round%2 == 0 {
				db.Insert(it)
			} else {
				db.Delete(it)
				e.InvalidateCaches()
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				g1 := db.Generation()
				width := 1 + 2*(i%2) // alternate the inline and fanned-out loops
				got, err := e.SafeRegionCtx(exec.WithWorkers(context.Background(), width), q, rsl)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				// Quiescence witness: with no overlapping mutation, the cached
				// answer must match an engine without the anti-DDR cache (the
				// shared DSL cache is generation-validated and witnessed
				// separately in the rskyline concurrency suite).
				fresh := must(NewEngine(db).SafeRegionCtx(context.Background(), q, rsl))
				if db.Generation() != g1 {
					continue
				}
				if !region.Equivalent(got, fresh) {
					t.Errorf("reader %d: cached safe region differs from fresh at generation %d", r, g1)
					return
				}
			}
		}(r)
	}

	readers.Wait()
	close(stop)
	mutator.Wait()

	// Post-quiescence: the caches warmed under churn must now agree with a
	// cache-free engine, and the caches must have actually been exercised.
	got := must(e.SafeRegionCtx(context.Background(), q, rsl))
	fresh := must(NewEngine(db).SafeRegionCtx(context.Background(), q, rsl))
	if !region.Equivalent(got, fresh) {
		t.Fatal("post-quiescence: cached safe region differs from fresh construction")
	}
	st := e.AntiDDRCacheStats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("anti-DDR cache was never exercised")
	}
}
