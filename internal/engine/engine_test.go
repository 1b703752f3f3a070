package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/datagen"
	"repro/internal/engine/faultinject"
	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
	"repro/internal/whynot"
)

// fixture is a shared query workload: an anti-correlated catalogue, a query
// point with a non-trivial reverse skyline, a why-not customer outside it,
// and a prebuilt approximate store for the degraded rung.
type fixture struct {
	e     *whynot.Engine
	q     geom.Point
	ct    whynot.Item
	rsl   []whynot.Item
	store *whynot.ApproxStore
}

// must unwraps an unchecked query: with a background context no query can
// fail, so an error here is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	products := datagen.Generate(datagen.AntiCorrelated, 400, 2, 7)
	e := whynot.NewEngine(rskyline.NewDB(2, products, rtree.Config{}))
	q := products[13].Point.Clone()
	q[0] *= 1.02
	rsl := must(e.DB.ReverseSkylineFilteredCtx(context.Background(), products, q))
	if len(rsl) < 3 {
		t.Fatalf("fixture too small: |RSL| = %d", len(rsl))
	}
	var ct whynot.Item
	found := false
	for _, p := range products {
		if !must(e.DB.IsReverseSkylineChecked(nil, p, q)) {
			ct, found = p, true
			break
		}
	}
	if !found {
		t.Fatal("no why-not customer in fixture")
	}
	return &fixture{
		e:     e,
		q:     q,
		ct:    ct,
		rsl:   rsl,
		store: must(e.BuildApproxStoreCtx(context.Background(), rsl, 5, 0)),
	}
}

// replayAnswer re-checks a ladder answer against the live index: the chosen
// moves must genuinely admit the why-not customer, and a pure query-point
// move (case C1) must not lose any original reverse-skyline customer.
func replayAnswer(t *testing.T, f *fixture, ans Answer) {
	t.Helper()
	const eps = 1e-7
	if ans.Result.AlreadyMember {
		t.Fatal("fixture customer unexpectedly already a member")
	}
	switch ans.Result.Case {
	case whynot.CaseOverlap:
		if !must(f.e.ValidateQueryMoveCtx(context.Background(), f.ct, ans.Result.QStar, eps)) {
			t.Fatalf("C1 answer q*=%v does not admit the customer", ans.Result.QStar)
		}
		if lost := must(f.e.LostCustomersCtx(context.Background(), ans.Result.QStar, f.rsl)); len(lost) != 0 {
			t.Fatalf("C1 answer loses %d customers", len(lost))
		}
	case whynot.CaseDisjoint:
		if !must(f.e.ValidateWhyNotMoveCtx(context.Background(), f.ct, ans.Result.QStar, ans.Result.CtStar, eps)) {
			t.Fatalf("C2 answer q*=%v ct*=%v is invalid", ans.Result.QStar, ans.Result.CtStar)
		}
	default:
		t.Fatalf("answer has no case: %+v", ans.Result)
	}
}

func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutine leak: %d before, %d after", before, g)
	}
}

// TestExactRungCleanRun: with no faults and a generous budget the ladder
// stays on the exact rung and matches the plain algorithm.
func TestExactRungCleanRun(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.e, Config{Timeout: 30 * time.Second, Degrade: true, Store: f.store})
	ans, err := r.MWQ(context.Background(), f.ct, f.q, f.rsl)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Degraded || ans.Rung != RungExact {
		t.Fatalf("clean run degraded: rung=%v degraded=%v", ans.Rung, ans.Degraded)
	}
	want := must(f.e.MWQExactCtx(context.Background(), f.ct, f.q, f.rsl, whynot.Options{}))
	if ans.Result.Cost != want.Cost {
		t.Fatalf("runner cost %v != direct cost %v", ans.Result.Cost, want.Cost)
	}
	replayAnswer(t, f, ans)
}

// TestDegradeUnderDeadline is the headline robustness property: a why-not
// question whose exact safe region is artificially slow, run under a 50ms
// per-rung deadline, must return within about twice the deadline — either a
// deadline error or a degraded answer — leak no goroutines, and any degraded
// answer must replay as valid on the live index.
func TestDegradeUnderDeadline(t *testing.T) {
	f := newFixture(t)
	const deadline = 50 * time.Millisecond
	// Slowing only the exact safe-region site leaves the approximate rung at
	// full speed, so the ladder must land on it.
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Delay: 10 * time.Millisecond})
	ctx := cancel.WithHook(context.Background(), inj)

	r := NewRunner(f.e, Config{Timeout: deadline, Degrade: true, Store: f.store})
	before := runtime.NumGoroutine()
	start := time.Now()
	ans, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	elapsed := time.Since(start)
	settleGoroutines(t, before)

	if elapsed > 2*deadline+50*time.Millisecond {
		t.Fatalf("ladder took %v, want ≲ 2×%v", elapsed, deadline)
	}
	if err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("ladder error is not a deadline: %v", err)
		}
		return
	}
	if !ans.Degraded {
		t.Fatalf("slow exact rung answered undegraded (rung=%v)", ans.Rung)
	}
	if ans.Rung != RungApprox {
		t.Fatalf("expected the approximate rung, got %v", ans.Rung)
	}
	if inj.Visits(cancel.SiteApproxSafeRegion) == 0 {
		t.Fatal("approximate rung never ran")
	}
	replayAnswer(t, f, ans)
}

// TestDeadlineWithoutDegradation: same slow exact rung, but with Degrade off
// the caller gets the deadline error itself, wrapped as a QueryError.
func TestDeadlineWithoutDegradation(t *testing.T) {
	f := newFixture(t)
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Delay: 10 * time.Millisecond})
	ctx := cancel.WithHook(context.Background(), inj)
	r := NewRunner(f.e, Config{Timeout: 30 * time.Millisecond})
	_, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Op != "exact MWQ" {
		t.Fatalf("want QueryError for the exact rung, got %#v", err)
	}
}

// TestMWPFallback: without a store the ladder skips the approximate rung and
// degrades straight to MWP, whose answer moves only the why-not point.
func TestMWPFallback(t *testing.T) {
	f := newFixture(t)
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Delay: 10 * time.Millisecond})
	ctx := cancel.WithHook(context.Background(), inj)
	r := NewRunner(f.e, Config{Timeout: 50 * time.Millisecond, Degrade: true})
	ans, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded || ans.Rung != RungMWP {
		t.Fatalf("want degraded MWP answer, got rung=%v degraded=%v", ans.Rung, ans.Degraded)
	}
	if !ans.Result.QStar.Equal(f.q) {
		t.Fatalf("MWP fallback moved the query point: %v", ans.Result.QStar)
	}
	replayAnswer(t, f, ans)
}

// TestPanicBecomesQueryError: an injected panic deep inside safe-region
// construction must surface as a structured *QueryError with the recovered
// value and a stack, not crash the caller.
func TestPanicBecomesQueryError(t *testing.T) {
	f := newFixture(t)
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, OnVisit: 2, Panic: "injected: corrupt node"})
	ctx := cancel.WithHook(context.Background(), inj)
	r := NewRunner(f.e, Config{Timeout: time.Second})
	_, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("want *QueryError, got %T: %v", err, err)
	}
	if qe.Panic != "injected: corrupt node" || len(qe.Stack) == 0 || qe.Op != "exact MWQ" {
		t.Fatalf("incomplete panic report: %+v", qe)
	}
}

// TestPanicThenDegrade: with Degrade on, even a panicking exact rung falls
// through to a healthy cheaper rung.
func TestPanicThenDegrade(t *testing.T) {
	f := newFixture(t)
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Panic: "injected"})
	ctx := cancel.WithHook(context.Background(), inj)
	r := NewRunner(f.e, Config{Timeout: time.Second, Degrade: true, Store: f.store})
	ans, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Degraded || ans.Rung != RungApprox {
		t.Fatalf("want approximate answer after panic, got rung=%v", ans.Rung)
	}
	replayAnswer(t, f, ans)
}

// TestCancelledParentStopsLadder: once the caller's own context is dead no
// further rung runs.
func TestCancelledParentStopsLadder(t *testing.T) {
	f := newFixture(t)
	inj := faultinject.New() // counts visits only
	ctx, cancelCtx := context.WithCancel(cancel.WithHook(context.Background(), inj))
	cancelCtx()
	r := NewRunner(f.e, Config{Timeout: time.Second, Degrade: true, Store: f.store})
	_, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if inj.Visits(cancel.SiteApproxSafeRegion) != 0 || inj.Visits(cancel.SiteMWQCorner) != 0 {
		t.Fatal("ladder kept running after parent cancellation")
	}
}

// TestInjectedCancellation: a hook-triggered context cancellation mid-query
// is observed at the very checkpoint that fired it.
func TestInjectedCancellation(t *testing.T) {
	f := newFixture(t)
	ctx, cancelCtx := context.WithCancel(context.Background())
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, OnVisit: 1, Do: cancelCtx})
	_, err := f.e.SafeRegionCtx(cancel.WithHook(ctx, inj), f.q, f.rsl)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if got := inj.Visits(cancel.SiteSafeRegion); got != 1 {
		t.Fatalf("construction continued past the cancelling checkpoint: %d visits", got)
	}
}

// TestRunGenericGuard: Runner.Run applies budget and recovery to arbitrary
// query functions.
func TestRunGenericGuard(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.e, Config{Timeout: time.Second})
	err := r.Run(context.Background(), "custom op", func(context.Context) error {
		panic("boom")
	})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Panic != "boom" || qe.Op != "custom op" {
		t.Fatalf("generic guard missed the panic: %v", err)
	}
	if err := r.Run(context.Background(), "ok op", func(context.Context) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
