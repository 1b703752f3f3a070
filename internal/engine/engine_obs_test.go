package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/engine/faultinject"
	"repro/internal/obs"
	"repro/internal/obs/explain"
)

// TestObservedDegradation pins the observable shape of one fault-injected
// ladder run: a slow exact rung under a tight per-rung deadline must produce
// exactly one exact-rung failure, one degradation with reason "deadline", a
// successful approximate rung — and the query's recorder must carry a
// rung.<name> node per attempted rung plus the degrade event. Run under
// -race this also proves the recording paths are data-race free against the
// pool workers.
func TestObservedDegradation(t *testing.T) {
	f := newFixture(t)
	const deadline = 50 * time.Millisecond
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, Delay: 10 * time.Millisecond})

	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	eb := explain.NewBuilder("mwq-faulted", 2, nil, nil)
	ctx := explain.With(cancel.WithHook(context.Background(), inj), eb)

	costBefore := obs.Cost()
	r := NewRunner(f.e, Config{Timeout: deadline, Degrade: true, Store: f.store, Metrics: m})
	ans, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if err != nil {
		// The whole ladder can time out on a slow host; the counters must
		// then show a failure per attempted rung and no success.
		t.Skipf("ladder exhausted on this host: %v", err)
	}
	if !ans.Degraded || ans.Rung != RungApprox {
		t.Fatalf("expected a degraded approx answer, got rung=%v degraded=%v", ans.Rung, ans.Degraded)
	}

	if got := m.RungAttempts.With("exact").Value(); got != 1 {
		t.Errorf("exact attempts = %d, want 1", got)
	}
	if got := m.RungFailures.With("exact").Value(); got != 1 {
		t.Errorf("exact failures = %d, want 1", got)
	}
	if got := m.RungAttempts.With("approx").Value(); got != 1 {
		t.Errorf("approx attempts = %d, want 1", got)
	}
	if got := m.RungFailures.With("approx").Value(); got != 0 {
		t.Errorf("approx failures = %d, want 0", got)
	}
	if got := m.Degradations.With("deadline").Value(); got != 1 {
		t.Errorf("deadline degradations = %d, want 1", got)
	}
	if got := m.RungDuration.Count(); got != 2 {
		t.Errorf("rung duration observations = %d, want 2", got)
	}
	if d := obs.Cost().Sub(costBefore); d.Degradations != 1 {
		t.Errorf("global degradation delta = %d, want 1", d.Degradations)
	}

	rungs := map[string][]explain.Phase{}
	for _, p := range eb.Phases() {
		rungs[p.Name] = append(rungs[p.Name], p)
	}
	exact := rungs["rung.exact"]
	if len(exact) != 1 {
		t.Fatalf("rung.exact nodes = %d, want 1", len(exact))
	}
	if exact[0].End <= exact[0].Start {
		t.Errorf("rung.exact node has no duration: %+v", exact[0])
	}
	if got := len(rungs["rung.approx"]); got != 1 {
		t.Errorf("rung.approx nodes = %d, want 1", got)
	}
	degrades := 0
	for _, e := range eb.Events() {
		if e.Name == "degrade" {
			degrades++
		}
	}
	if degrades != 1 {
		t.Fatalf("degrade events = %d, want 1", degrades)
	}
	// The rung nodes nest the phases they ran: the plan shape shows the
	// ladder that answered.
	plan := eb.Finish(RungApprox.String())
	if len(plan.Root.Children) != 2 || plan.Root.Children[1].Name != "rung.approx" ||
		len(plan.Root.Children[1].Children) == 0 || plan.Root.Children[1].Children[0].Name != "saferegion.approx" {
		t.Errorf("plan does not nest the approx rung's phases:\n%s", plan.StableString())
	}
}

// TestObservedPanicReason: an injected panic in the exact rung must be
// recovered, classified as reason "panic", and still produce a degraded
// answer on a healthy fallback rung.
func TestObservedPanicReason(t *testing.T) {
	f := newFixture(t)
	inj := faultinject.New(faultinject.Rule{Site: cancel.SiteSafeRegion, OnVisit: 2, Panic: "injected: corrupt node"})
	m := NewMetrics(nil)
	ctx := cancel.WithHook(context.Background(), inj)
	r := NewRunner(f.e, Config{Degrade: true, Store: f.store, Metrics: m})
	ans, err := r.MWQ(ctx, f.ct, f.q, f.rsl)
	if err != nil {
		t.Fatalf("healthy fallback rung failed: %v", err)
	}
	if !ans.Degraded {
		t.Fatal("panicking exact rung answered undegraded")
	}
	if got := m.Degradations.With("panic").Value(); got != 1 {
		t.Errorf("panic degradations = %d, want 1", got)
	}
	if got := m.RungFailures.With("exact").Value(); got != 1 {
		t.Errorf("exact failures = %d, want 1", got)
	}
}

// TestRunnerNilMetrics: the zero Config records nothing and must not panic
// anywhere on the recording paths.
func TestRunnerNilMetrics(t *testing.T) {
	f := newFixture(t)
	r := NewRunner(f.e, Config{Timeout: 30 * time.Second, Degrade: true, Store: f.store})
	if _, err := r.MWQ(context.Background(), f.ct, f.q, f.rsl); err != nil {
		t.Fatal(err)
	}
}
