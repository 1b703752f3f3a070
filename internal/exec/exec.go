// Package exec is the shared parallel-execution substrate of the query
// engine: a context-aware worker pool for the per-customer loops that
// dominate reverse-skyline and why-not workloads, plus a concurrency-safe
// memoisation cache (cache.go) for the per-customer structures those loops
// recompute.
//
// Every per-customer loop in the repository — reverse-skyline verification,
// safe-region anti-DDR construction, batch why-not answering,
// approximate-store precomputation — is one body run through ForEach, so the
// cancellation, first-error and panic-propagation semantics are identical
// everywhere and at every width:
//
//   - the width travels on the query context (WithWorkers), the same way
//     fault-injection hooks and pool metrics do, so no operation takes a
//     worker-count parameter; a context without one runs inline;
//   - each worker goroutine builds its own cancel.Checker from the shared
//     context (Checkers are deliberately single-goroutine), so deadlines and
//     fault-injection hooks keep working inside parallel sections;
//   - workers claim job indices from a shared atomic counter, so a fan-out
//     costs one atomic add per job and no channel handoff;
//   - the first error wins and stops further work: no job is claimed after
//     a worker observes it;
//   - a panic in any worker is re-raised on the calling goroutine after all
//     workers have exited, so recovery middleware above the pool still sees
//     it and no goroutine leaks;
//   - width 1 runs the same body inline on the calling goroutine, in index
//     order, which is exactly the single-threaded reference behaviour.
package exec

import (
	"context"
	"runtime"
	"runtime/pprof"

	"repro/internal/cancel"
	"repro/internal/obs"
)

// Width resolves a parallelism knob in the repository's one convention:
// 0 or 1 runs sequentially, n > 1 uses n workers, and a negative value means
// GOMAXPROCS. Every user-facing knob (DBOptions.Parallelism, the -workers
// flags, the server's Workers) follows it.
func Width(parallelism int) int {
	switch {
	case parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case parallelism == 0:
		return 1
	}
	return parallelism
}

type workersKey struct{}

// WithWorkers returns a context whose ForEach fan-outs use
// Width(parallelism) workers.
func WithWorkers(ctx context.Context, parallelism int) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, workersKey{}, Width(parallelism))
}

// Workers returns the fan-out width carried by ctx: 1 (inline) when the
// context carries none.
func Workers(ctx context.Context) int {
	if ctx == nil {
		return 1
	}
	if w, ok := ctx.Value(workersKey{}).(int); ok {
		return w
	}
	return 1
}

// ForEach runs fn(chk, i) for every i in [0, n), fanned out over
// Workers(ctx) goroutines (never more than n). Before each job the
// per-worker checker fires a checkpoint at site, so deadlines and
// fault-injection rules behave the same at every width. The first error
// returned by any fn stops the pool and is returned; a panic in any fn is
// re-raised on the calling goroutine once every worker has drained.
//
// fn must be safe to call concurrently for distinct i; writes to shared
// output should go to per-index slots (out[i] = ...), which needs no locking.
func ForEach(ctx context.Context, n int, site string, fn func(chk *cancel.Checker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		// pprof.Do (unlike the cancel/obs lookups) requires a real context.
		ctx = context.Background()
	}
	m := obs.ExecFrom(ctx)
	workers := min(Workers(ctx), n)
	if workers <= 1 {
		chk := cancel.FromContext(ctx)
		if m != nil {
			m.InlineRuns.Inc()
			m.Jobs.Add(uint64(n))
			// Checkpoint counting must survive early error returns.
			before := chk.Visits()
			defer func() { m.Checkpoints.Add(chk.Visits() - before) }()
		}
		for i := 0; i < n; i++ {
			if err := chk.Point(site); err != nil {
				return err
			}
			if err := fn(chk, i); err != nil {
				return err
			}
		}
		return nil
	}

	// Workers claim job indices from the pool's counter; there is no
	// dispatcher goroutine and no per-job handoff. A job's queue wait is its
	// claim time minus the fan-out start.
	var began int64
	if m != nil {
		m.Fanouts.Inc()
		m.Jobs.Add(uint64(n))
		m.WorkersSpawned.Add(uint64(workers))
		began = obs.Now()
	}
	var pool pool
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			// pprof goroutine labels do not cross `go`: re-apply the parent's
			// label set (op/rung from the engine ladder) plus this fan-out's
			// site as the phase, so worker CPU shows up attributed in profiles
			// rather than as anonymous pool goroutines.
			pprof.Do(ctx, pprof.Labels("phase", site), func(ctx context.Context) {
				// One checker per goroutine: Checker has no atomics on its hot
				// path and must not be shared.
				chk := cancel.FromContext(ctx)
				if m != nil {
					before := chk.Visits()
					defer func() { m.Checkpoints.Add(chk.Visits() - before) }()
				}
				for {
					i, ok := pool.claim(n)
					if !ok {
						return
					}
					if m == nil {
						pool.run(chk, i, site, fn)
						continue
					}
					start := obs.Now()
					m.QueueWait.Observe(float64(start-began) / 1e9)
					pool.run(chk, i, site, fn)
					m.JobDuration.ObserveSince(start)
				}
			})
		}()
	}
	pool.wg.Wait()
	return pool.finish()
}
