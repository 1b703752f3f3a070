package obs_test

// Tests of the per-query trace: the flat phase/event view of the query's
// explain.Builder that the flight recorder, the server's "trace" response
// and the CLI -trace output read, and the trace_*_dropped_total counters.
// They exercise only the builder and live in this package solely to keep
// their test IDs from when the trace was obs.Trace; they do not hard-code
// the per-query budget, so they cannot go stale when it changes.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/explain"
)

func TestNilTraceIsNoOp(t *testing.T) {
	var b *explain.Builder
	b.Start("x", explain.RuleNone).End() // must not panic
	b.Event("e", "d")
	b.Eventf("e", "%d", 1)
	if b.Phases() != nil || b.Events() != nil {
		t.Fatal("nil builder must report nothing")
	}
	if dn, de := b.Dropped(); dn != 0 || de != 0 || b.Truncated() {
		t.Fatal("nil builder must report no drops")
	}
	var sb strings.Builder
	b.Format(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil builder must format to nothing")
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		b.Start("x", explain.RuleNone).End()
		b.Event("e", "d")
		_, _ = b.Phases(), b.Events()
		_ = b.Truncated()
	}); allocs != 0 {
		t.Fatalf("nil builder allocates %v per op, want 0", allocs)
	}
}

func TestTraceSpansAndEvents(t *testing.T) {
	var fake int64
	restore := obs.SetClockForTest(func() int64 { fake += 100; return fake })
	defer restore()

	b := explain.NewBuilder("mwq", 2, nil, nil)
	sr := b.Start("saferegion.exact", explain.RuleSafeRegion)
	b.Event("degraded", "rung exact: deadline")
	inner := b.Start("mwq", explain.RuleNone)
	if got := b.Phases(); len(got) != 0 {
		t.Fatalf("open nodes published early: %+v", got)
	}
	inner.End()
	sr.End()
	b.Start("mwq.corners", explain.RuleMidpoint).End()
	b.Event("mwq.case", "C2")

	// Start order, whatever order the nodes ended in.
	phases := b.Phases()
	var names []string
	for _, p := range phases {
		names = append(names, p.Name)
		if p.Duration() <= 0 {
			t.Fatalf("phase %s has no duration: %+v", p.Name, p)
		}
	}
	if got := strings.Join(names, ","); got != "saferegion.exact,mwq,mwq.corners" {
		t.Fatalf("phases = %s, want start order saferegion.exact,mwq,mwq.corners", got)
	}
	if phases[0].End <= phases[1].End {
		t.Fatalf("outer phase must end after the inner one: %+v", phases)
	}
	evs := b.Events()
	if len(evs) != 2 || evs[0].Name != "degraded" || evs[0].Detail != "rung exact: deadline" || evs[1].At <= evs[0].At {
		t.Fatalf("events = %+v, want degraded then mwq.case in time order", evs)
	}

	var sb strings.Builder
	b.Format(&sb)
	out := sb.String()
	for _, want := range []string{"trace mwq:", "saferegion.exact", "mwq.corners", "degraded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	// The timeline merges phases and events by time: the degrade event
	// fired after saferegion.exact opened and before mwq.corners did.
	if i, j, k := strings.Index(out, "saferegion.exact"), strings.Index(out, "degraded"), strings.Index(out, "mwq.corners"); i >= j || j >= k {
		t.Fatalf("Format out of time order:\n%s", out)
	}
}

func TestTraceOverflowCountsDrops(t *testing.T) {
	reg := obs.NewRegistry()
	explain.RegisterTraceHealth(reg)
	dropped := func() (uint64, uint64) {
		v := reg.JSONValue()
		return v["trace_spans_dropped_total"].(uint64), v["trace_events_dropped_total"].(uint64)
	}
	spansBefore, eventsBefore := dropped()

	const n = 1000 // well past the per-query budget for nodes and events
	b := explain.NewBuilder("overflow", 2, nil, nil)
	for i := 0; i < n; i++ {
		b.Start("s", explain.RuleNone).End()
		b.Event("e", "")
	}
	kept, keptEvents := len(b.Phases()), len(b.Events())
	dn, de := b.Dropped()
	if dn == 0 || de == 0 || !b.Truncated() {
		t.Fatalf("dropped = (%d, %d) truncated=%v, want the budget enforced", dn, de, b.Truncated())
	}
	if uint64(kept)+dn != n || uint64(keptEvents)+de != n {
		t.Fatalf("kept+dropped = (%d+%d, %d+%d), want %d each", kept, dn, keptEvents, de, n)
	}
	// The process-wide counters move by at least this builder's drops
	// (other tests in the process may overflow too).
	if spans, events := dropped(); spans-spansBefore < dn || events-eventsBefore < de {
		t.Fatalf("process-wide drops moved by (%d, %d), want at least (%d, %d)", spans-spansBefore, events-eventsBefore, dn, de)
	}
	var sb strings.Builder
	b.Format(&sb)
	if want := fmt.Sprintf("dropped %d spans, %d events", dn, de); !strings.Contains(sb.String(), want) {
		t.Fatalf("Format must note drops (%q):\n%.200s", want, sb.String())
	}
	// The plan keeps the nodes that fit.
	if plan := b.Finish(""); len(plan.Root.Children) != kept {
		t.Fatalf("plan children = %d, want %d", len(plan.Root.Children), kept)
	}
}

// TestTraceConcurrentRecording reads the flat view while workers record
// nodes and events (the in-flight inspector's path); the explain package's
// TestBuilderConcurrentSpans covers the plan tree under concurrent starts.
func TestTraceConcurrentRecording(t *testing.T) {
	b := explain.NewBuilder("conc", 2, nil, nil)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Start("s", explain.RuleNone).End()
				b.Event("e", "x")
			}
		}()
	}
	// Read while writers are active: must be race-free and never return
	// half-written phases.
	for i := 0; i < 100; i++ {
		for _, p := range b.Phases() {
			if p.Name != "s" || p.End < p.Start {
				t.Fatalf("torn phase read: %+v", p)
			}
		}
	}
	wg.Wait()
	phases, events := b.Phases(), b.Events()
	dn, de := b.Dropped()
	if uint64(len(phases))+dn != workers*50 {
		t.Fatalf("phases recorded+dropped = %d+%d, want %d", len(phases), dn, workers*50)
	}
	if uint64(len(events))+de != workers*50 {
		t.Fatalf("events recorded+dropped = %d+%d, want %d", len(events), de, workers*50)
	}
}

func TestTraceContextRoundtrip(t *testing.T) {
	if explain.From(context.Background()) != nil {
		t.Fatal("plain context must carry no builder")
	}
	if explain.From(nil) != nil {
		t.Fatal("nil context must carry no builder")
	}
	b := explain.NewBuilder("op", 2, nil, nil)
	ctx := explain.With(context.Background(), b)
	if explain.From(ctx) != b {
		t.Fatal("builder must round-trip through context")
	}
	// nil builder attaches nothing.
	if explain.From(explain.With(context.Background(), nil)) != nil {
		t.Fatal("nil builder must not be attached")
	}
}
