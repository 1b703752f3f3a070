package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cancel"
	"repro/internal/obs"
)

func TestForEachRunsEveryJob(t *testing.T) {
	for _, workers := range []int{1, 2, 4, -1} {
		n := 100
		out := make([]int, n)
		err := ForEach(WithWorkers(context.Background(), workers), n, "test.site", func(_ *cancel.Checker, i int) error {
			out[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d: job %d not run (got %d)", workers, i, v)
			}
		}
	}
}

func TestForEachZeroJobs(t *testing.T) {
	called := false
	if err := ForEach(WithWorkers(context.Background(), 4), 0, "s", func(_ *cancel.Checker, _ int) error {
		called = true
		return nil
	}); err != nil || called {
		t.Fatalf("err=%v called=%v, want nil/false", err, called)
	}
}

func TestForEachFirstErrorWinsAndStops(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(WithWorkers(context.Background(), workers), 1000, "s", func(_ *cancel.Checker, i int) error {
			ran.Add(1)
			if i == 3 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// After the failure, remaining jobs drain without running. With
		// workers in flight some overshoot is expected, but nowhere near all.
		if workers > 1 && ran.Load() == 1000 {
			t.Fatalf("workers=%d: pool did not stop after first error", workers)
		}
	}
}

func TestForEachPanicReRaisedOnCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not re-raised", workers)
				}
				if !strings.Contains(r.(string), "kaboom") {
					t.Fatalf("workers=%d: recovered %v, want wrapped kaboom", workers, r)
				}
			}()
			_ = ForEach(WithWorkers(context.Background(), workers), 50, "s", func(_ *cancel.Checker, i int) error {
				if i == 7 {
					panic("kaboom")
				}
				return nil
			})
		}()
	}
}

func TestForEachObservesContextCancellation(t *testing.T) {
	ctx, cancelCtx := context.WithCancel(context.Background())
	ctx = cancel.WithStride(ctx, 1)
	cancelCtx()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(WithWorkers(ctx, workers), 100, "s", func(_ *cancel.Checker, _ int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d jobs ran after cancellation", workers, ran.Load())
		}
	}
}

// countingHook counts checkpoint visits per site; safe for concurrent use as
// the cancel.Hook contract requires.
type countingHook struct{ n atomic.Uint64 }

func (h *countingHook) Visit(string, uint64) { h.n.Add(1) }

func TestForEachFiresCheckpointPerJob(t *testing.T) {
	h := &countingHook{}
	ctx := cancel.WithHook(context.Background(), h)
	if err := ForEach(WithWorkers(ctx, 4), 64, "s", func(*cancel.Checker, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := h.n.Load(); got < 64 {
		t.Fatalf("hook saw %d visits, want >= 64 (one per job)", got)
	}
}

func TestWidthConvention(t *testing.T) {
	for _, c := range []struct{ in, want int }{{0, 1}, {1, 1}, {4, 4}, {-1, runtime.GOMAXPROCS(0)}} {
		if got := Width(c.in); got != c.want {
			t.Errorf("Width(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := Workers(context.Background()); got != 1 {
		t.Fatalf("Workers(no width) = %d, want 1 (inline)", got)
	}
	if got := Workers(WithWorkers(context.Background(), -1)); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(WithWorkers(-1)) = %d, want GOMAXPROCS", got)
	}
}

// TestForEachWidthFromContext pins that the context's width alone decides
// between the inline path and a fan-out, and that the fan-out never spawns
// more workers than jobs.
func TestForEachWidthFromContext(t *testing.T) {
	nop := func(*cancel.Checker, int) error { return nil }
	for _, c := range []struct{ width, n, fanouts, inline, spawned int }{
		{1, 10, 0, 1, 0}, {4, 10, 1, 0, 4}, {4, 2, 1, 0, 2}, {4, 1, 0, 1, 0},
	} {
		m := obs.NewExecMetrics(obs.NewRegistry())
		ctx := obs.WithExecMetrics(WithWorkers(context.Background(), c.width), m)
		if err := ForEach(ctx, c.n, "s", nop); err != nil {
			t.Fatal(err)
		}
		got := [3]uint64{m.Fanouts.Value(), m.InlineRuns.Value(), m.WorkersSpawned.Value()}
		if want := [3]uint64{uint64(c.fanouts), uint64(c.inline), uint64(c.spawned)}; got != want {
			t.Errorf("width %d, n %d: fanouts/inline/spawned = %v, want %v", c.width, c.n, got, want)
		}
	}
}

func TestCacheBasicsAndLRU(t *testing.T) {
	c := NewCache[int, string](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	c.Put(3, "c") // evicts 2: 1 was touched more recently
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("recently used entry evicted: %q,%v", v, ok)
	}
	c.Put(1, "a2") // update keeps size
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v, _ := c.Get(1); v != "a2" {
		t.Fatalf("update lost: %q", v)
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want nonzero hits and misses", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (Put(3) evicted 2)", st.Evictions)
	}
	if st.Len != 2 || st.Capacity != 2 {
		t.Fatalf("len/cap = %d/%d, want 2/2", st.Len, st.Capacity)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate = %v, want in (0,1)", hr)
	}
	c.MarkStale()
	if s2 := c.Stats(); s2.Stale != 1 {
		t.Fatalf("stale = %d, want 1", s2.Stale)
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after purge = %d", c.Len())
	}
	if s3 := c.Stats(); s3.Hits != st.Hits || s3.Misses != st.Misses {
		// counters survive Purge
		t.Fatalf("stats after purge: %+v, want hits/misses preserved from %+v", s3, st)
	}
}

func TestCacheStatsZeroLookups(t *testing.T) {
	// The hit rate must be 0, not NaN, before any lookup — on the nil cache
	// and on a fresh one alike.
	var nilCache *Cache[int, int]
	if hr := nilCache.Stats().HitRate(); hr != 0 {
		t.Fatalf("nil cache hit rate = %v, want 0", hr)
	}
	fresh := NewCache[int, int](4)
	if hr := fresh.Stats().HitRate(); hr != 0 {
		t.Fatalf("fresh cache hit rate = %v, want 0", hr)
	}
	nilCache.MarkStale() // must not panic
}

func TestCacheNilIsAlwaysMiss(t *testing.T) {
	var c *Cache[int, int]
	c.Put(1, 1)
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache hit")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
	if NewCache[int, int](0) != nil {
		t.Fatal("capacity 0 must return the nil always-miss cache")
	}
}

// TestCacheConcurrentReadersAndPurge is the -race witness for the cache: many
// readers, writers and purgers at once must be data-race free.
func TestCacheConcurrentReadersAndPurge(t *testing.T) {
	c := NewCache[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (g*31 + i) % 97
				switch i % 4 {
				case 0:
					c.Put(k, i)
				case 3:
					if i%256 == 3 {
						c.Purge()
					}
				default:
					if v, ok := c.Get(k); ok && v < 0 {
						t.Error("corrupt value")
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
