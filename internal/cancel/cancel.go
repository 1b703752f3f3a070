// Package cancel provides the cooperative-cancellation checkpoints threaded
// through the whole query stack (R-tree traversals, skyline loops, safe-region
// construction, the why-not algorithms).
//
// The design goal is that deadline overruns cost microseconds while the happy
// path costs almost nothing: a Checker polls the underlying context only once
// every stride checkpoint hits (a counter increment and a branch otherwise),
// and checkpoints sit at node-visit / candidate-expansion granularity, never
// per point. A nil *Checker is valid everywhere and reduces every checkpoint
// to a nil check, so the legacy context-free entry points pay nothing.
//
// Checkpoints also consult an optional fault-injection Hook carried by the
// context (see internal/engine/faultinject): tests use it to trigger
// slowdowns, panics and cancellations deterministically at named sites inside
// each algorithm. When a hook is installed the context is polled at every
// checkpoint so a hook-triggered cancellation is observed immediately.
package cancel

import "context"

// DefaultStride is how many checkpoint hits pass between context polls when
// the context does not override it via WithStride.
const DefaultStride = 64

// Checkpoint site names. Fault-injection rules match on these, so each
// algorithmically distinct location gets its own stable name.
const (
	// SiteRTreeNode fires once per R-tree node visited by any traversal
	// (window search, existence probe, best-first, guided search).
	SiteRTreeNode = "rtree.node"
	// SiteCustomer fires once per customer in the reverse-skyline membership
	// loop (every RSL variant, lost customers, the MQP total cost).
	SiteCustomer = "rskyline.customer"
	// SiteSafeRegion fires once per reverse-skyline member whose anti-DDR is
	// intersected into the exact safe region (Algorithm 3's outer loop) and
	// throughout the rectangle-set algebra each member triggers (staircase
	// grid enumeration, pairwise intersection, pruning) — a single member's
	// region work can dwarf the whole outer loop, so those inner loops poll
	// the same site.
	SiteSafeRegion = "saferegion.customer"
	// SiteApproxSafeRegion is SiteSafeRegion's counterpart in the
	// approximate (store-backed) safe-region assembly of §VI.B.1, with the
	// same inner-loop coverage.
	SiteApproxSafeRegion = "saferegion.approx"
	// SiteMWQCorner fires once per safe-region corner evaluated by
	// Algorithm 4's case-C2 loop (each evaluation runs a full MWP).
	SiteMWQCorner = "mwq.corner"
	// SiteAntiDDR fires throughout the rectangle-set construction of a
	// single anti-dominance region computed outside safe-region assembly
	// (Algorithm 4's anti-DDR of the why-not customer). It is distinct from
	// the safe-region sites because every rung of the degradation ladder
	// runs it: a fault rule targeting one rung's construction must not fire
	// here.
	SiteAntiDDR = "mwq.antiddr"
	// SiteBatchItem fires once per why-not question in batch mode.
	SiteBatchItem = "batch.item"
	// SiteStoreBuild fires once per customer during approximate-store
	// precomputation.
	SiteStoreBuild = "store.customer"
)

// Hook observes every checkpoint hit. Implementations may sleep (injected
// slowdown), panic (injected crash) or cancel the query's context; n is the
// checker's monotone hit count, 1-based. Hooks must be safe for concurrent
// use: parallel batch workers share one hook instance.
type Hook interface {
	Visit(site string, n uint64)
}

type ctxKey int

const (
	hookKey ctxKey = iota
	strideKey
)

// WithHook returns a context carrying a fault-injection hook; every Checker
// built from the returned context consults it at each checkpoint.
func WithHook(ctx context.Context, h Hook) context.Context {
	return context.WithValue(ctx, hookKey, h)
}

// HookFrom extracts the hook installed by WithHook, or nil.
func HookFrom(ctx context.Context) Hook {
	h, _ := ctx.Value(hookKey).(Hook)
	return h
}

// WithStride overrides the checkpoint-to-context-poll ratio for checkers
// built from the returned context. n < 1 is treated as 1 (poll every hit);
// tests use small strides for tight cancellation bounds.
func WithStride(ctx context.Context, n uint64) context.Context {
	if n < 1 {
		n = 1
	}
	return context.WithValue(ctx, strideKey, n)
}

func strideFrom(ctx context.Context) uint64 {
	if n, ok := ctx.Value(strideKey).(uint64); ok {
		return n
	}
	return DefaultStride
}

// Checker is the per-query cancellation probe. It is deliberately not safe
// for concurrent use — build one per goroutine with FromContext; the
// underlying context and hook may be shared freely.
type Checker struct {
	ctx    context.Context
	done   <-chan struct{}
	hook   Hook
	stride uint64
	n      uint64
	err    error
}

// FromContext builds a Checker for one query (or one worker goroutine of a
// parallel query). It returns nil — the zero-overhead checker — when the
// context can never be cancelled and carries no hook, so plumbing a
// context.Background() query through the checked paths costs nothing.
func FromContext(ctx context.Context) *Checker {
	if ctx == nil {
		return nil
	}
	hook := HookFrom(ctx)
	done := ctx.Done()
	if done == nil && hook == nil {
		return nil
	}
	return &Checker{ctx: ctx, done: done, hook: hook, stride: strideFrom(ctx)}
}

// Point is the checkpoint. It returns the context's error once cancellation
// has been observed (sticky thereafter) and nil before that. Site names the
// checkpoint location for fault injection.
func (c *Checker) Point(site string) error {
	if c == nil {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	c.n++
	if c.hook != nil {
		// The hook may sleep, panic, or cancel the context; poll immediately
		// afterwards so injected cancellations are observed deterministically.
		c.hook.Visit(site, c.n)
		return c.poll()
	}
	if c.n%c.stride == 0 {
		return c.poll()
	}
	return nil
}

func (c *Checker) poll() error {
	if c.done == nil {
		return nil
	}
	select {
	case <-c.done:
		c.err = c.ctx.Err()
	default:
	}
	return c.err
}

// Err returns the cancellation error observed by an earlier Point, or nil.
// It never polls the context itself, so a traversal that aborted because a
// callback returned false is distinguishable from one that was cancelled.
func (c *Checker) Err() error {
	if c == nil {
		return nil
	}
	return c.err
}

// Visits returns the number of checkpoint hits so far (test instrumentation).
func (c *Checker) Visits() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}
