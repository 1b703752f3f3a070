package rskyline

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// Concurrency witnesses for the memoised DSL cache: reader goroutines serve
// dynamic skylines through the cache while a mutator churns Insert/Delete on
// the same index. Run under -race these catch unsynchronised access; the
// generation checks catch stale cache entries the race detector cannot see.

// TestConcurrentMutationNeverServesStaleDSL races cached reads against
// Insert/Delete churn. Each reader takes a quiescence witness: when the
// database generation is identical before the cached read and after an
// uncached recomputation, no mutation overlapped either, so the two answers
// must agree — a cached answer from an older generation is a bug.
func TestConcurrentMutationNeverServesStaleDSL(t *testing.T) {
	base := make([]Item, 0, 120)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 120; i++ {
		base = append(base, Item{ID: i + 1, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)})
	}
	db := NewDB(2, base, rtree.Config{})
	db.EnableDSLCache(64)

	churn := make([]Item, 8)
	for i := range churn {
		churn[i] = Item{ID: 9000 + i, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)}
	}

	var readers, mutator sync.WaitGroup
	stop := make(chan struct{})

	// Mutator: insert and delete the churn items in a loop.
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			it := churn[round%len(churn)]
			if round%2 == 0 {
				db.Insert(it)
			} else {
				db.Delete(it)
			}
		}
	}()

	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := 0; i < 300; i++ {
				c := base[rng.Intn(len(base))]
				g1 := db.Generation()
				got, err := db.DynamicSkylineOfChecked(nil, c, NoExclude)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				want := db.DynamicSkylineExcluding(c.Point, NoExclude)
				if db.Generation() != g1 {
					continue // a mutation overlapped; no stable answer to compare
				}
				if !sameIDSet(got, want) {
					t.Errorf("reader %d: cached DSL(%v) = %v, uncached = %v at generation %d",
						r, c.Point, ids(got), ids(want), g1)
					return
				}
			}
		}(r)
	}

	readers.Wait()
	close(stop)
	mutator.Wait()

	// Quiescent post-condition: every cached entry left behind must match a
	// fresh computation exactly.
	for _, c := range base[:30] {
		got, _ := db.DynamicSkylineOfChecked(nil, c, NoExclude)
		want := db.DynamicSkylineExcluding(c.Point, NoExclude)
		if !sameIDSet(got, want) {
			t.Fatalf("post-quiescence: cached DSL(%v) = %v, uncached = %v", c.Point, ids(got), ids(want))
		}
	}
}

// TestConcurrentParallelQueriesDuringMutation races the worker-pool query
// paths themselves (parallel reverse skylines, parallel BBRS) against
// Insert/Delete churn — the tree read-lock discipline under -race.
func TestConcurrentParallelQueriesDuringMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := make([]Item, 0, 80)
	for i := 0; i < 80; i++ {
		base = append(base, Item{ID: i + 1, Point: geom.NewPoint(rng.Float64()*100, rng.Float64()*100)})
	}
	db := NewDB(2, base, rtree.Config{})
	db.EnableDSLCache(32)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			it := Item{ID: 9500, Point: geom.NewPoint(50, 50)}
			if round%2 == 0 {
				db.Insert(it)
			} else {
				db.Delete(it)
			}
		}
	}()

	ctx := exec.WithWorkers(context.Background(), 4)
	for i := 0; i < 20; i++ {
		q := geom.NewPoint(rng.Float64()*100, rng.Float64()*100)
		if _, err := db.ReverseSkylineCtx(ctx, base, q); err != nil {
			t.Fatalf("parallel RSL: %v", err)
		}
		if _, err := db.ReverseSkylineBBRSCtx(ctx, q); err != nil {
			t.Fatalf("parallel BBRS: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func sameIDSet(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]bool, len(a))
	for _, it := range a {
		m[it.ID] = true
	}
	for _, it := range b {
		if !m[it.ID] {
			return false
		}
	}
	return true
}
