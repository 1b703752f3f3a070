package repro

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/obs"
)

// widthFixture is a CarDB-2K query with a handful of reverse-skyline members
// and a few why-not customers: big enough that every per-customer loop has
// more than one job, small enough for exact safe regions.
func widthFixture(t *testing.T) (items []Item, q Point, rsl, cts []Item) {
	t.Helper()
	items, err := GenerateDataset("CarDB", 2000, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(2, items)
	for i := 0; i < len(items); i += 7 {
		q = append(Point{}, items[i].Point...)
		for j := range q {
			q[j] *= 1.01
		}
		if rsl = db.ReverseSkyline(items, q); len(rsl) >= 3 && len(rsl) <= 8 {
			break
		}
	}
	if len(rsl) < 3 || len(rsl) > 8 {
		t.Fatal("no CarDB-2K query with 3..8 reverse-skyline members")
	}
	for _, c := range items {
		if !db.IsReverseSkyline(c, q) {
			cts = append(cts, c)
		}
		if len(cts) == 3 {
			break
		}
	}
	return items, q, rsl, cts
}

// TestWidthFansOutAndKeepsCounters pins the one worker-count convention: at
// Parallelism 4 every per-customer loop behind these operations fans out
// through exec.ForEach, at Parallelism 1 every one runs inline, and the
// answer and the cost-counter delta (pruned entries included) are the same
// at both widths. The degradation ladder never fans out, whatever width its
// context carries. A pre-cancelled context fails every operation at width 4
// before any index node is touched.
func TestWidthFansOutAndKeepsCounters(t *testing.T) {
	items, q, rsl, cts := widthFixture(t)
	ops := []struct {
		name string
		run  func(ctx context.Context, db *DB) (any, error)
	}{
		{"ReverseSkylineContext", func(ctx context.Context, db *DB) (any, error) {
			return db.ReverseSkylineContext(ctx, items, q)
		}},
		{"ReverseSkylineBBRSContext", func(ctx context.Context, db *DB) (any, error) {
			return db.ReverseSkylineBBRSContext(ctx, q)
		}},
		{"SafeRegionContext", func(ctx context.Context, db *DB) (any, error) {
			return db.SafeRegionContext(ctx, q, rsl)
		}},
		{"MWQExactContext", func(ctx context.Context, db *DB) (any, error) {
			return db.MWQExactContext(ctx, cts[0], q, rsl, Options{})
		}},
		{"MWQBatchContext", func(ctx context.Context, db *DB) (any, error) {
			return db.MWQBatchContext(ctx, cts, q, rsl, Options{})
		}},
		{"BuildApproxStoreContext", func(ctx context.Context, db *DB) (any, error) {
			return db.BuildApproxStoreContext(ctx, rsl, 5)
		}},
		{"engine.Runner.MWQ", func(ctx context.Context, db *DB) (any, error) {
			runner := engine.NewRunner(db.Engine(), engine.Config{})
			ans, err := runner.MWQ(exec.WithWorkers(ctx, db.Workers()), cts[0], q, rsl)
			return ans.Result, err
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			type outcome struct {
				answer          any
				cost            Cost
				fanouts, inline uint64
			}
			run := func(par int) outcome {
				db := NewDBWithOptions(2, items, DBOptions{Parallelism: par})
				m := obs.NewExecMetrics(obs.NewRegistry())
				before := db.Cost()
				answer, err := op.run(WithExecMetrics(context.Background(), m), db)
				if err != nil {
					t.Fatalf("Parallelism %d: %v", par, err)
				}
				return outcome{answer, db.Cost().Sub(before), m.Fanouts.Value(), m.InlineRuns.Value()}
			}
			seq, wide := run(1), run(4)
			if seq.fanouts != 0 || seq.inline == 0 {
				t.Errorf("Parallelism 1: fanouts=%d inline=%d, want only inline runs", seq.fanouts, seq.inline)
			}
			ladder := op.name == "engine.Runner.MWQ"
			if ladder && (wide.fanouts != 0 || wide.inline == 0) {
				t.Errorf("Parallelism 4: fanouts=%d inline=%d, the ladder must stay on the caller's goroutine", wide.fanouts, wide.inline)
			}
			if !ladder && (wide.fanouts == 0 || wide.inline != 0) {
				t.Errorf("Parallelism 4: fanouts=%d inline=%d, want every loop fanned out", wide.fanouts, wide.inline)
			}
			if seq.cost != wide.cost {
				t.Errorf("cost delta differs by width:\n  Parallelism 1: %+v\n  Parallelism 4: %+v", seq.cost, wide.cost)
			}
			if !reflect.DeepEqual(seq.answer, wide.answer) {
				t.Errorf("answer differs by width:\n  Parallelism 1: %v\n  Parallelism 4: %v", seq.answer, wide.answer)
			}

			db := NewDBWithOptions(2, items, DBOptions{Parallelism: 4})
			ctx, cancelCtx := context.WithCancel(context.Background())
			cancelCtx()
			before := db.Cost()
			if _, err := op.run(ctx, db); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-cancelled at Parallelism 4: err = %v, want context.Canceled", err)
			}
			if acc := db.Cost().Sub(before).NodeAccesses; acc != 0 {
				t.Errorf("pre-cancelled at Parallelism 4: %d node accesses, want 0", acc)
			}
		})
	}
}
