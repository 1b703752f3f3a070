package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cancel"
	"repro/internal/engine/faultinject"
)

// claimCases are the widths and job counts the claim tests cover: inline,
// the 2-worker serving width, a wide pool, and pools wider than the job
// count (which must spawn only n workers).
var claimCases = []struct{ width, n int }{
	{1, 257}, {2, 257}, {8, 257}, {8, 3}, {4, 1}, {16, 7},
}

func TestForEachClaimsEveryIndexOnce(t *testing.T) {
	for _, c := range claimCases {
		runs := make([]atomic.Int32, c.n)
		err := ForEach(WithWorkers(context.Background(), c.width), c.n, "test.site", func(_ *cancel.Checker, i int) error {
			runs[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("width %d n %d: %v", c.width, c.n, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("width %d n %d: job %d ran %d times, want 1", c.width, c.n, i, got)
			}
		}
	}
}

// TestForEachStopsClaimsAfterFirstError pins the stop rule: once a job has
// failed, each other worker may finish at most the one job it had already
// claimed, the failing worker claims nothing more, and the error returned is
// the first one, not one a later job returned.
func TestForEachStopsClaimsAfterFirstError(t *testing.T) {
	for _, c := range claimCases {
		workers := min(c.width, c.n)
		boom := errors.New("boom")
		k := c.n / 2
		var failed atomic.Bool
		var startedAfter atomic.Int64
		err := ForEach(WithWorkers(context.Background(), c.width), c.n, "test.site", func(_ *cancel.Checker, i int) error {
			if failed.Load() {
				startedAfter.Add(1)
				return errors.New("late error")
			}
			if i == k {
				failed.Store(true)
				return boom
			}
			if i > k {
				// k is already claimed: stay in flight until it fails, so
				// workers are mid-job when the failure lands.
				for !failed.Load() {
					runtime.Gosched()
				}
			}
			return nil
		})
		if err != boom {
			t.Fatalf("width %d n %d: err = %v, want the first error", c.width, c.n, err)
		}
		if got := startedAfter.Load(); got > int64(workers-1) {
			t.Fatalf("width %d n %d: %d jobs started after the failure, want <= %d", c.width, c.n, got, workers-1)
		}
	}
}

// TestForEachPanicAfterAllWorkersExit checks that a job panic reaches the
// caller only once no job is still running, with jobs deliberately in flight
// on other workers when it happens.
func TestForEachPanicAfterAllWorkersExit(t *testing.T) {
	for _, c := range claimCases {
		k := c.n / 2
		var running atomic.Int64
		var panicked atomic.Bool
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width %d n %d: panic not re-raised", c.width, c.n)
				}
				if got := running.Load(); got != 0 {
					t.Fatalf("width %d n %d: panic re-raised with %d jobs still running", c.width, c.n, got)
				}
			}()
			_ = ForEach(WithWorkers(context.Background(), c.width), c.n, "test.site", func(_ *cancel.Checker, i int) error {
				running.Add(1)
				defer running.Add(-1)
				if i == k {
					panicked.Store(true)
					panic("kaboom")
				}
				if i > k {
					for !panicked.Load() {
						runtime.Gosched()
					}
				}
				return nil
			})
		}()
	}
}

// TestForEachFaultRuleFiresOncePerJob checks that a fault-injection rule on
// the fan-out's site fires exactly once per job at every width.
func TestForEachFaultRuleFiresOncePerJob(t *testing.T) {
	for _, c := range claimCases {
		var fired atomic.Int64
		inj := faultinject.New(faultinject.Rule{Site: "test.site", Do: func() { fired.Add(1) }})
		ctx := cancel.WithHook(WithWorkers(context.Background(), c.width), inj)
		if err := ForEach(ctx, c.n, "test.site", func(*cancel.Checker, int) error { return nil }); err != nil {
			t.Fatalf("width %d n %d: %v", c.width, c.n, err)
		}
		if got := fired.Load(); got != int64(c.n) {
			t.Fatalf("width %d n %d: rule fired %d times, want %d", c.width, c.n, got, c.n)
		}
		if got := inj.Visits("test.site"); got != uint64(c.n) {
			t.Fatalf("width %d n %d: injector saw %d visits, want %d", c.width, c.n, got, c.n)
		}
	}
}

// BenchmarkForEachDispatch prices the fan-out itself: 20K trivial jobs at
// width 2, the reverse-skyline filter's shape on a 20K-customer dataset.
func BenchmarkForEachDispatch(b *testing.B) {
	const n = 20_000
	ctx := WithWorkers(context.Background(), 2)
	out := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		if err := ForEach(ctx, n, "bench.site", func(_ *cancel.Checker, i int) error {
			out[i] = i
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
