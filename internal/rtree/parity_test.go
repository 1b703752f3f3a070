package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestEntryRectsAreExactMBRs checks that every internal entry rect equals
// its child's MBR (not merely covers it) after bulk load, after insert-only
// builds, and throughout random insert/delete sequences. Traversals prune on
// the stored rect in place of the child's MBR, so equality is what keeps
// their cost counters unchanged. STR-packed trees may have underfull nodes,
// so they are held to checkRects; insert-built ones to every invariant.
func TestEntryRectsAreExactMBRs(t *testing.T) {
	for _, dims := range []int{2, 3, 4} {
		for seed := int64(0); seed < 2; seed++ {
			items := randItems(1500, dims, seed)
			bulk := BulkLoad(dims, items, Config{})
			inserted := New(dims, Config{})
			for _, it := range items {
				inserted.Insert(it)
			}
			for name, tr := range map[string]*Tree{"bulk": bulk, "insert": inserted} {
				check := tr.checkInvariants
				if name == "bulk" {
					check = tr.checkRects
				}
				if err := check(); err != nil {
					t.Fatalf("d=%d seed=%d %s: %v", dims, seed, name, err)
				}
				rng := rand.New(rand.NewSource(seed + 50))
				live := append([]Item(nil), items...)
				nextID := len(items)
				for op := 0; op < 1000; op++ {
					if rng.Intn(2) == 0 && len(live) > 1 {
						k := rng.Intn(len(live))
						if !tr.Delete(live[k]) {
							t.Fatalf("d=%d seed=%d %s: delete of a live item failed", dims, seed, name)
						}
						live[k] = live[len(live)-1]
						live = live[:len(live)-1]
					} else {
						p := make(geom.Point, dims)
						for d := range p {
							p[d] = rng.Float64() * 1000
						}
						it := Item{ID: nextID, Point: p}
						nextID++
						tr.Insert(it)
						live = append(live, it)
					}
					if op%100 == 99 {
						if err := check(); err != nil {
							t.Fatalf("d=%d seed=%d %s after %d ops: %v", dims, seed, name, op+1, err)
						}
					}
				}
			}
		}
	}
}

// TestBulkLoadAllocations bounds the allocations of a 20K-item bulk load.
// The STR sorts run O(n log n) comparisons; a sort key that allocates (as
// taking Rect.Center() once did) costs about a million allocations here.
func TestBulkLoadAllocations(t *testing.T) {
	items := randItems(20_000, 2, 7)
	allocs := testing.AllocsPerRun(3, func() { BulkLoad(2, items, Config{}) })
	if allocs > 60_000 {
		t.Fatalf("BulkLoad of 20K items made %.0f allocations, want <= 60000", allocs)
	}
}
