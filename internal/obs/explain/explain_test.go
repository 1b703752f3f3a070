package explain

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

type fakeTree struct {
	acc, leaf, pruned int
	levels            []int64
}

func (f *fakeTree) Accesses() int          { return f.acc }
func (f *fakeTree) LeafScans() int         { return f.leaf }
func (f *fakeTree) LevelAccesses() []int64 { return append([]int64(nil), f.levels...) }
func (f *fakeTree) Pruned() int            { return f.pruned }

func TestBuilderTreeAndDeltas(t *testing.T) {
	ft := &fakeTree{levels: []int64{0, 0}}
	b := NewBuilder("mwq", 2, NewModel(), ft)
	ctx := With(context.Background(), b)
	if From(ctx) != b {
		t.Fatal("From did not round-trip the builder")
	}

	sp := From(ctx).Start("saferegion", RuleSafeRegion)
	sp.SetIn(10)
	obs.AddDominanceTests(7)
	ft.acc, ft.leaf, ft.pruned = 5, 3, 2
	ft.levels = []int64{3, 2}
	sp.SetOut(4)
	sp.End()

	child := b.Start("corners", RuleMidpoint)
	child.SetIn(8)
	child.SetOut(2)
	child.End()

	plan := b.Finish("exact")
	if plan == nil || plan.Root == nil {
		t.Fatal("nil plan")
	}
	if got := b.Finish("other"); got != plan {
		t.Fatal("Finish not idempotent")
	}
	if plan.Rung != "exact" {
		t.Fatalf("rung = %q", plan.Rung)
	}
	if len(plan.Root.Children) != 2 {
		t.Fatalf("children = %d, want 2 (second Start after first End attaches to root)", len(plan.Root.Children))
	}
	sr := plan.Root.Children[0]
	if sr.Name != "saferegion" || sr.Rule != RuleSafeRegion {
		t.Fatalf("node 0 = %s[%s]", sr.Name, sr.Rule)
	}
	if sr.Cost.DominanceTests != 7 {
		t.Fatalf("dominance delta = %d, want 7", sr.Cost.DominanceTests)
	}
	if sr.NodeAccesses != 5 || sr.LeafScans != 3 || sr.TreePruned != 2 {
		t.Fatalf("tree deltas = %d/%d/%d", sr.NodeAccesses, sr.LeafScans, sr.TreePruned)
	}
	if len(sr.LevelAccesses) != 2 || sr.LevelAccesses[0] != 3 || sr.LevelAccesses[1] != 2 {
		t.Fatalf("level deltas = %v", sr.LevelAccesses)
	}
	if r, ok := sr.PruneRatio(); !ok || r != 0.6 {
		t.Fatalf("prune ratio = %v/%v", r, ok)
	}
	if plan.Shape != "mwq(saferegion[safe-region],corners[midpoint])" {
		t.Fatalf("shape = %q", plan.Shape)
	}
	if len(plan.Fingerprint) != 16 {
		t.Fatalf("fingerprint = %q", plan.Fingerprint)
	}
	// Same inputs → same fingerprint; different rung → different.
	if fingerprintOf("mwq", 2, "exact", plan.Shape) != plan.Fingerprint {
		t.Fatal("fingerprint not deterministic")
	}
	if fingerprintOf("mwq", 2, "approx", plan.Shape) == plan.Fingerprint {
		t.Fatal("fingerprint ignores rung")
	}

	out := plan.StableString()
	for _, want := range []string{"plan mwq dims=2 rung=exact", "prune=60.0%", "acc=5 leaf=3", "rule=midpoint in=8 out=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "est=") {
		t.Fatalf("stable render leaks timings:\n%s", out)
	}
	if !strings.Contains(plan.String(), "est=") {
		t.Fatal("timed render missing estimates")
	}
}

func TestDisabledPathIsNilAndAllocFree(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil || From(nil) != nil {
		t.Fatal("From on plain ctx must be nil")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b := From(ctx)
		sp := b.Start("phase", RuleDSLWindow)
		sp.SetIn(3)
		sp.SetOut(1)
		sp.End()
		_ = b.Finish("exact")
	})
	if allocs != 0 {
		t.Fatalf("disabled explain hook path allocates: %v allocs/op", allocs)
	}
}

func TestModelCalibration(t *testing.T) {
	m := NewModel()
	before := m.Estimate(RuleDSLWindow, 10)
	// Feed consistently cheaper observations; the EWMA must pull the
	// estimate down.
	for i := 0; i < 100; i++ {
		m.Observe(RuleDSLWindow, 10, 1000) // 100 ns/unit
	}
	after := m.Estimate(RuleDSLWindow, 10)
	if after >= before {
		t.Fatalf("calibration did not converge down: before=%d after=%d", before, after)
	}
	if after < 900 || after > 3000 {
		t.Fatalf("calibrated estimate out of range: %d", after)
	}
	var nilModel *Model
	if nilModel.Estimate(RuleDSLWindow, 10) != 0 {
		t.Fatal("nil model must estimate 0")
	}
	nilModel.Observe(RuleDSLWindow, 1, 1) // must not panic
}

// TestLadderAndWaitNodesAreUnpriced: a ladder rung and an admission wait get
// no estimate and feed no calibration, and the wait's time is left out of
// its parent's calibration sample and of the store's latency.
func TestLadderAndWaitNodesAreUnpriced(t *testing.T) {
	var now int64
	restore := obs.SetClockForTest(func() int64 { return now })
	defer restore()

	m := NewModel()
	b := NewBuilder("whynot", 2, m, nil)
	wait := b.Start("admission", RuleWait)
	now = 1000
	wait.End()
	rung := b.Start("rung.exact", RuleLadder)
	now = 1010
	rung.End()
	now = 2000
	plan := b.Finish("exact")

	for _, n := range plan.Root.Children {
		if n.EstNS != 0 {
			t.Errorf("%s est = %d, want unpriced", n.Name, n.EstNS)
		}
	}
	// Only the root calibrated the default slot, with its 1000ns of work:
	// 7/8·500 + 1/8·1000.
	if got := m.Calibration()["default"]; got != 562.5 {
		t.Errorf("default calibration = %v, want 562.5", got)
	}
	s := NewStore(0)
	s.Observe(plan)
	if got := s.Snapshot()[0].LatencyP50MS; got != 0.001 {
		t.Errorf("store latency = %vms, want the 1000ns of work", got)
	}
}

func TestStoreDriftDetection(t *testing.T) {
	s := NewStore(4)
	mkPlan := func(ns int64) *Plan {
		b := NewBuilder("mwq", 2, nil, nil)
		sp := b.Start("saferegion", RuleSafeRegion)
		sp.SetIn(4)
		sp.SetOut(2)
		sp.End()
		p := b.Finish("exact")
		p.TotalNS = ns
		return p
	}
	// Baseline: 1ms-ish latencies.
	for i := 0; i < baselineN; i++ {
		if s.Observe(mkPlan(1e6)) {
			t.Fatal("drift during baseline")
		}
	}
	// Regression: 5ms. Needs driftMinRecent fresh samples before tripping.
	tripped := false
	for i := 0; i < ringSize; i++ {
		if s.Observe(mkPlan(5e6)) {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("5x latency regression did not trip drift")
	}
	if s.Drifting() != 1 {
		t.Fatalf("Drifting() = %d, want 1", s.Drifting())
	}
	// Recovery: back to baseline clears the latch.
	for i := 0; i < ringSize; i++ {
		s.Observe(mkPlan(1e6))
	}
	if s.Drifting() != 0 {
		t.Fatalf("Drifting() after recovery = %d, want 0", s.Drifting())
	}
	snaps := s.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("classes = %d, want 1", len(snaps))
	}
	if snaps[0].Count != baselineN+2*ringSize {
		t.Fatalf("count = %d", snaps[0].Count)
	}
	if snaps[0].PruneRatioP50 != 0.5 {
		t.Fatalf("prune ratio p50 = %v", snaps[0].PruneRatioP50)
	}
}

func TestStoreBounded(t *testing.T) {
	s := NewStore(2)
	for i := 0; i < 5; i++ {
		b := NewBuilder("op", i, nil, nil) // dims varies → distinct fingerprints
		s.Observe(b.Finish("exact"))
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded)", s.Len())
	}
	if s.Overflow() != 3 {
		t.Fatalf("Overflow = %d, want 3", s.Overflow())
	}
}

func TestBuilderConcurrentSpans(t *testing.T) {
	b := NewBuilder("mwq", 2, NewModel(), nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := b.Start("worker", RuleDSLWindow)
				sp.SetIn(1)
				sp.SetOut(1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	plan := b.Finish("exact")
	total := 0
	plan.Root.Walk(func(*Node) { total++ })
	// Every Start either lands in the tree or is counted against the
	// per-query node budget.
	dropped, _ := b.Dropped()
	if total != 1+maxNodes || uint64(total-1)+dropped != 8*50 {
		t.Fatalf("nodes = %d (+%d dropped), want %d kept of %d", total, dropped, 1+maxNodes, 8*50)
	}
}
