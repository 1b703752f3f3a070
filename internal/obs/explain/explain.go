// Package explain is the per-query recorder: it builds the plan tree of one
// query — which phases ran, how many candidates entered and survived each
// one, which pruning rule did the work, how many R-tree pages each phase
// read per level, and what each phase cost against a calibrated estimate —
// and keeps the query's annotated events (degradations, breaker vetoes,
// sheds). The same nodes, read flat in start order, are the query's span
// timeline: the flight recorder, the server's "trace" response and the CLI
// -trace output all read them, so every phase is recorded once.
//
// The package follows the internal/obs design rules: a nil *Builder
// (recording disabled) reduces every hook to a nil check with zero
// allocations; timestamps come from obs.Now (the vet-obs lint bans raw
// time.Now here); per-node counter attribution uses snapshot deltas of the
// process-global cost counters and the per-tree access counters — exact for
// a serial query, an aggregate under concurrency (same contract as the
// flight recorder's cost deltas).
package explain

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Recording budget per query: at most maxNodes plan nodes below the root and
// maxEvents events. Overruns are counted, not grown — a query that needs
// more is telling you to look at the counters instead.
const (
	maxNodes  = 64
	maxEvents = 128
)

// nodesDropped / eventsDropped accumulate overflow across every builder in
// the process, so silent loss stays visible on /metrics after the individual
// queries are gone; per-query counts stay on the Builder (Dropped/Truncated)
// for flight-record attribution.
var (
	nodesDropped  atomic.Uint64
	eventsDropped atomic.Uint64
)

// RegisterTraceHealth exposes the process-wide overflow counters on a
// registry.
func RegisterTraceHealth(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("trace_spans_dropped_total",
		"plan nodes lost to the fixed per-query capacity (record marked truncated)",
		nodesDropped.Load)
	r.CounterFunc("trace_events_dropped_total",
		"events lost to the fixed per-query capacity (record marked truncated)",
		eventsDropped.Load)
}

// TreeStats is the slice of the R-tree's access accounting a Builder
// snapshots around each plan node (implemented by *rtree.Tree). Defined here
// so the package depends only on internal/obs.
type TreeStats interface {
	LevelAccesses() []int64
	Pruned() int
}

// Pruning rules a plan node can attribute its work to — the paper's four
// candidate-elimination mechanisms, a catch-all, and two rules for time
// that is not pruning work.
const (
	// RuleGlobalDominance: a globally dominated customer can never include q
	// in its dynamic skyline, so it is discarded before any window query
	// (Lemma: global skyline filtering in the BBRS pipeline).
	RuleGlobalDominance = "global-dominance"
	// RuleDSLWindow: the dynamic-skyline window/frontier query — the
	// transformed-box dominance prune inside the guided R-tree descent.
	RuleDSLWindow = "dsl-window"
	// RuleMidpoint: midpoint/binding-constraint candidate generation in MWP
	// (Algorithm 1) — frontier points in, canonical candidates out.
	RuleMidpoint = "midpoint"
	// RuleSafeRegion: safe-region containment (Algorithm 3/4) — anti-DDR
	// intersection folding and corner enumeration.
	RuleSafeRegion = "safe-region"
	// RuleMindist: BBRS best-first mindist ordering with dominance pruning
	// of heap entries.
	RuleMindist = "bbrs-mindist"
	// RuleNone marks a structural node with no pruning of its own.
	RuleNone = ""
	// RuleLadder marks a degradation-ladder rung: a wrapper whose time its
	// nested phases already account for.
	RuleLadder = "ladder"
	// RuleWait marks time spent queued rather than working (admission). Its
	// time is left out of the enclosing nodes' calibration and of the
	// latency the fingerprint store compares, so load is not read as a
	// slower query shape.
	RuleWait = "wait"
)

// Node is one profiled phase in a plan tree. Candidate counts are recorded
// explicitly by the instrumented layer (SetIn/SetOut); everything else is a
// snapshot delta taken between Start and End.
type Node struct {
	Name string `json:"name"`
	Rule string `json:"rule,omitempty"`
	// In/Out are candidates entering and surviving this phase; -1 = not
	// recorded (structural node).
	In  int `json:"in"`
	Out int `json:"out"`
	// ActualNS is the measured wall time, EstNS the cost-model estimate made
	// from the node's inputs (rule + In) before this node's own timing fed
	// back into calibration.
	ActualNS int64 `json:"actual_ns"`
	EstNS    int64 `json:"est_ns"`
	// Cost is the delta of the process-global cost counters across the node.
	Cost obs.CostSnapshot `json:"cost"`
	// NodeAccesses/LeafScans/LevelAccesses/TreePruned are deltas of the
	// R-tree access accounting (LevelAccesses index 0 = leaves).
	NodeAccesses  int     `json:"node_accesses"`
	LeafScans     int     `json:"leaf_scans"`
	LevelAccesses []int64 `json:"level_accesses,omitempty"`
	TreePruned    int     `json:"tree_pruned"`
	Children      []*Node `json:"children,omitempty"`
}

// PruneRatio returns the fraction of inbound candidates this phase
// eliminated, and false when candidate counts were not recorded.
func (n *Node) PruneRatio() (float64, bool) {
	if n == nil || n.In <= 0 || n.Out < 0 || n.Out > n.In {
		return 0, false
	}
	return float64(n.In-n.Out) / float64(n.In), true
}

// Walk visits the node and its descendants preorder.
func (n *Node) Walk(fn func(*Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Plan is a finished profile for one query.
type Plan struct {
	Op   string `json:"op"`
	Dims int    `json:"dims"`
	Rung string `json:"rung,omitempty"`
	// Shape is the preorder rendering of the tree's names and rules;
	// Fingerprint hashes (Op, Dims, Rung, Shape) — the workload-class key of
	// the fingerprint store.
	Shape       string `json:"shape"`
	Fingerprint string `json:"fingerprint"`
	TotalNS     int64  `json:"total_ns"`
	Root        *Node  `json:"root"`
}

// Span is an open plan node: End closes it and computes its deltas. A nil
// Span (from a nil Builder) no-ops everywhere.
type Span struct {
	b    *Builder
	n    *Node
	done bool

	startNS     int64
	startCost   obs.CostSnapshot
	startPruned int
	startLevels []int64
}

// Phase is one ended plan node on the query's timeline. Start/End are
// obs.Now timestamps (nanoseconds since process start).
type Phase struct {
	Name  string
	Start int64
	End   int64
}

// Duration returns the phase length.
func (p Phase) Duration() time.Duration { return time.Duration(p.End - p.Start) }

// Event is one annotated instant (e.g. a degradation with its reason).
type Event struct {
	At     int64
	Name   string
	Detail string
}

// Builder records one query: its plan tree and its events. Every method is
// safe for concurrent use — parallel phase workers may record, and the
// in-flight inspector may read, while the query runs (a mutex, not atomics:
// contention is bounded by the worker pool).
type Builder struct {
	op    string
	dims  int
	tree  TreeStats
	model *Model

	mu     sync.Mutex
	root   *Span
	stack  []*Span // open nodes, innermost last
	spans  []*Span // every node below the root, in start order
	events []Event
	plan   *Plan

	droppedNodes  uint64
	droppedEvents uint64
}

// NewBuilder opens a plan for one query. model may be nil (estimates then
// stay zero); tree may be nil (no access attribution).
func NewBuilder(op string, dims int, model *Model, tree TreeStats) *Builder {
	b := &Builder{op: op, dims: dims, tree: tree, model: model}
	b.root = b.open(op, RuleNone)
	return b
}

// open creates a span with its start snapshots; callers append/push under mu
// (NewBuilder runs before the builder is shared, so no lock there).
func (b *Builder) open(name, rule string) *Span {
	sp := &Span{
		b:         b,
		n:         &Node{Name: name, Rule: rule, In: -1, Out: -1},
		startNS:   obs.Now(),
		startCost: obs.Cost(),
	}
	if b.tree != nil {
		sp.startPruned = b.tree.Pruned()
		sp.startLevels = b.tree.LevelAccesses()
	}
	return sp
}

// Start opens a child plan node under the innermost open node. Returns nil on
// a nil Builder — every Span method tolerates that, so call sites need no
// enabled-check — and past the node budget, which marks the record
// truncated.
func (b *Builder) Start(name, rule string) *Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.plan != nil { // finished: late spans from stragglers are dropped
		return nil
	}
	if len(b.spans) >= maxNodes {
		b.droppedNodes++
		nodesDropped.Add(1)
		return nil
	}
	sp := b.open(name, rule)
	parent := b.root
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
	}
	parent.n.Children = append(parent.n.Children, sp.n)
	b.stack = append(b.stack, sp)
	b.spans = append(b.spans, sp)
	return sp
}

// StartPhase opens the plan node name on ctx's builder and labels the
// calling goroutine with the pprof "phase" label, so CPU profiles taken
// through the DebugMux segment by the same names the plans and the flight
// recorder use. The returned func closes the node and restores the previous
// label set —
// call it on the same goroutine, typically deferred. The label is set even
// with no builder on ctx.
func StartPhase(ctx context.Context, name, rule string) (*Span, func()) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp := From(ctx).Start(name, rule)
	pprof.SetGoroutineLabels(pprof.WithLabels(ctx, pprof.Labels("phase", name)))
	return sp, func() {
		pprof.SetGoroutineLabels(ctx)
		sp.End()
	}
}

// SetIn records the candidates entering the phase.
func (sp *Span) SetIn(n int) {
	if sp == nil {
		return
	}
	sp.n.In = n
}

// SetOut records the candidates surviving the phase.
func (sp *Span) SetOut(n int) {
	if sp == nil {
		return
	}
	sp.n.Out = n
}

// End closes the span: actual time, counter deltas, cost estimate, and model
// calibration. Idempotent; typically deferred.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.b.mu.Lock()
	defer sp.b.mu.Unlock()
	sp.endLocked()
}

// endLocked closes the span under the builder lock and unlinks it from the
// open stack (wherever it sits — parallel workers may end out of order).
func (sp *Span) endLocked() {
	if sp.done {
		return
	}
	sp.done = true
	b := sp.b
	n := sp.n
	n.ActualNS = obs.Now() - sp.startNS
	n.Cost = obs.Cost().Sub(sp.startCost)
	if b.tree != nil {
		n.TreePruned = b.tree.Pruned() - sp.startPruned
		// One read of the level vector gives all three access figures: the
		// node total is the sum of the level deltas, the leaf scans level 0.
		levels := b.tree.LevelAccesses()
		for i, v := range levels {
			var prev int64
			if i < len(sp.startLevels) {
				prev = sp.startLevels[i]
			}
			if d := v - prev; d != 0 {
				if n.LevelAccesses == nil {
					n.LevelAccesses = make([]int64, len(levels))
				}
				n.LevelAccesses[i] = d
				n.NodeAccesses += int(d)
				if i == 0 {
					n.LeafScans = int(d)
				}
			}
		}
	}
	units := estUnits(n)
	n.EstNS = b.model.Estimate(n.Rule, units)
	b.model.Observe(n.Rule, units, workNS(n))
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i] == sp {
			b.stack = append(b.stack[:i], b.stack[i+1:]...)
			break
		}
	}
}

// workNS is the node's time less the wait nodes below it.
func workNS(n *Node) int64 { return n.ActualNS - waitNS(n) }

// waitNS sums the time of the wait nodes below n.
func waitNS(n *Node) int64 {
	var ns int64
	for _, c := range n.Children {
		if c.Rule == RuleWait {
			ns += c.ActualNS
		} else {
			ns += waitNS(c)
		}
	}
	return ns
}

// estUnits maps a node to the cost model's work units: the inbound candidate
// count, the paper's cost driver for every phase (window queries per
// surviving customer, one MWP per corner, one dominance test per global-
// skyline pair). Structural nodes without counts charge one unit.
func estUnits(n *Node) int64 {
	if n.In > 0 {
		return int64(n.In)
	}
	return 1
}

// Event records an annotated instant. Events stay recordable after Finish:
// the fingerprint-drift verdict is known only once the plan is.
func (b *Builder) Event(name, detail string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.events) >= maxEvents {
		b.droppedEvents++
		eventsDropped.Add(1)
		return
	}
	b.events = append(b.events, Event{At: obs.Now(), Name: name, Detail: detail})
}

// Eventf is Event with a formatted detail. The formatting cost is only paid
// on a live builder, never on the nil (disabled) one.
func (b *Builder) Eventf(name, format string, args ...any) {
	if b == nil {
		return
	}
	b.Event(name, fmt.Sprintf(format, args...))
}

// Phases returns the ended nodes below the root in start order. A node is
// published when it ends, so a phase still running is not listed.
func (b *Builder) Phases() []Phase {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Phase, 0, len(b.spans))
	for _, sp := range b.spans {
		if sp.done {
			out = append(out, Phase{Name: sp.n.Name, Start: sp.startNS, End: sp.startNS + sp.n.ActualNS})
		}
	}
	return out
}

// Events returns the recorded events in time order.
func (b *Builder) Events() []Event {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Event(nil), b.events...)
}

// Dropped returns how many nodes and events exceeded the fixed budget.
func (b *Builder) Dropped() (nodes, events uint64) {
	if b == nil {
		return 0, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.droppedNodes, b.droppedEvents
}

// Truncated reports whether this query lost any nodes or events to the fixed
// budget; flight records carry the flag so a sampled slow query whose
// record overflowed is not mistaken for a complete picture.
func (b *Builder) Truncated() bool {
	nodes, events := b.Dropped()
	return nodes > 0 || events > 0
}

// Format writes the timeline: one line per ended phase (offset from the
// query's start, duration) and per event, merged in time order.
func (b *Builder) Format(w io.Writer) {
	if b == nil {
		return
	}
	fmt.Fprintf(w, "trace %s:\n", b.op)
	start := b.root.startNS
	phases, events := b.Phases(), b.Events()
	for len(phases) > 0 || len(events) > 0 {
		if len(events) == 0 || (len(phases) > 0 && phases[0].Start <= events[0].At) {
			p := phases[0]
			phases = phases[1:]
			fmt.Fprintf(w, "  span  +%-12s %-24s %s\n", time.Duration(p.Start-start).Round(time.Microsecond),
				p.Name, p.Duration().Round(time.Microsecond))
			continue
		}
		e := events[0]
		events = events[1:]
		fmt.Fprintf(w, "  event +%-12s %-24s %s\n", time.Duration(e.At-start).Round(time.Microsecond), e.Name, e.Detail)
	}
	if dn, de := b.Dropped(); dn > 0 || de > 0 {
		fmt.Fprintf(w, "  (dropped %d spans, %d events over capacity)\n", dn, de)
	}
}

// Finish closes any still-open spans and the root, derives the fingerprint,
// and returns the immutable plan. Idempotent: later calls return the same
// plan; rung from the first call wins. Nil-safe.
func (b *Builder) Finish(rung string) *Plan {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.plan == nil {
		b.plan = b.root.planLocked(rung)
	}
	return b.plan
}

// Plan closes the span, and any node opened after it that is still open, and
// returns the plan rooted at its node: the profile of one query recorded
// inside a longer-lived builder, whose op is the span's name. The builder
// keeps recording. Nil-safe.
func (sp *Span) Plan(rung string) *Plan {
	if sp == nil {
		return nil
	}
	sp.b.mu.Lock()
	defer sp.b.mu.Unlock()
	return sp.planLocked(rung)
}

func (sp *Span) planLocked(rung string) *Plan {
	b := sp.b
	if !sp.done {
		// Nodes opened after sp and still open are stragglers inside its
		// window (for the root, which is never on the stack: every one).
		for i := len(b.stack) - 1; i >= 0 && b.stack[i] != sp; i-- {
			b.stack[i].endLocked()
		}
		sp.endLocked()
	}
	n := sp.n
	shape := shapeOf(n)
	return &Plan{
		Op:          n.Name,
		Dims:        b.dims,
		Rung:        rung,
		Shape:       shape,
		Fingerprint: fingerprintOf(n.Name, b.dims, rung, shape),
		TotalNS:     n.ActualNS,
		Root:        n,
	}
}

type ctxKey struct{}

// With returns a context carrying the builder; instrumented layers pick it up
// with From.
func With(ctx context.Context, b *Builder) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if b == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, b)
}

// From extracts the builder carried by ctx, or nil (explain disabled). The
// nil path allocates nothing — the disabled-overhead budget test pins that.
func From(ctx context.Context) *Builder {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(ctxKey{}).(*Builder)
	return b
}
