package explain

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// Query fingerprints group queries into workload classes by what the planner
// did, not by their literal parameters: the hash covers op kind,
// dimensionality, degrade rung and the plan-tree shape (phase names + pruning
// rules, preorder). Two MWQ calls with different query points but the same
// plan shape share a fingerprint; an MWQ that degraded to the approx rung, or
// whose safe region collapsed to the corner-enumeration case, lands in a
// different class. Per-class percentiles then catch a regressing workload
// class that a global p99 would average away.

// shapeOf renders the tree's names and rules preorder:
// "mwq(saferegion[safe-region],corners[midpoint](...))".
func shapeOf(root *Node) string {
	var sb strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		sb.WriteString(n.Name)
		if n.Rule != "" {
			sb.WriteByte('[')
			sb.WriteString(n.Rule)
			sb.WriteByte(']')
		}
		if len(n.Children) > 0 {
			sb.WriteByte('(')
			for i, c := range n.Children {
				if i > 0 {
					sb.WriteByte(',')
				}
				walk(c)
			}
			sb.WriteByte(')')
		}
	}
	if root != nil {
		walk(root)
	}
	return sb.String()
}

// fingerprintOf hashes the workload-class key to 16 hex digits (FNV-1a 64,
// the same digest family the flight recorder uses for query parameters).
func fingerprintOf(op string, dims int, rung, shape string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%s", op, dims, rung, shape)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Store aggregation bounds. ringSize recent samples give a usable p95;
// baselineN samples freeze the reference percentile the drift test compares
// against; a class begins drift-testing once the recent ring holds
// driftMinRecent fresh samples beyond the baseline.
const (
	ringSize       = 64
	baselineN      = 32
	driftMinRecent = 32
	// driftFactor trips the detector (recent p95 > factor × baseline p95);
	// clearFactor re-arms it lower so a class flapping around the threshold
	// does not strobe the gauge. driftMinDeltaNS absorbs microsecond-scale
	// noise on very fast classes.
	driftFactor     = 1.5
	clearFactor     = 1.25
	driftMinDeltaNS = 200e3
)

// class accumulates one fingerprint's samples.
type class struct {
	op    string
	dims  int
	rung  string
	shape string

	count uint64

	latRing   [ringSize]float64 // ns
	costRing  [ringSize]float64 // work units (dominance tests + node accesses)
	pruneRing [ringSize]float64 // whole-plan prune ratio
	ringN     int               // filled slots
	ringI     int               // next write

	baseline    []float64 // first baselineN latencies, then frozen
	baselineP95 float64   // valid once len(baseline) == baselineN
	sinceBase   int       // samples observed after the baseline froze
	drifting    bool
}

// ClassSnapshot is one fingerprint's aggregate, as served by
// /v1/debug/fingerprints.
type ClassSnapshot struct {
	Fingerprint string `json:"fingerprint"`
	Op          string `json:"op"`
	Dims        int    `json:"dims"`
	Rung        string `json:"rung,omitempty"`
	Shape       string `json:"shape"`
	Count       uint64 `json:"count"`

	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	BaselineP95MS float64 `json:"baseline_p95_ms,omitempty"`
	CostP50       float64 `json:"cost_p50"`
	CostP95       float64 `json:"cost_p95"`
	PruneRatioP50 float64 `json:"prune_ratio_p50"`
	Drifting      bool    `json:"drifting"`
}

// Store is the bounded query-fingerprint aggregator. One per serving surface
// (the server keeps its own so it survives snapshot hot-swaps; an embedded DB
// keeps one for the CLI).
type Store struct {
	mu       sync.Mutex
	classes  map[string]*class
	max      int
	overflow uint64 // queries whose new class did not fit
}

// NewStore returns a store bounded to max classes (≤0 = 256). Eviction is
// rejection: once full, queries of unseen shapes count into Overflow instead
// of displacing established baselines — a regression store that recycles its
// baselines under churn cannot detect drift.
func NewStore(max int) *Store {
	if max <= 0 {
		max = 256
	}
	return &Store{classes: make(map[string]*class), max: max}
}

// Observe folds a finished plan into its class and reports whether this
// sample tripped (or re-confirmed) the class's drift detector. The caller
// surfaces a true return as a flight-recorder event and on the
// fingerprint_drift gauge.
func (s *Store) Observe(p *Plan) (drifting bool) {
	if s == nil || p == nil || p.Root == nil {
		return false
	}
	// The root's deltas already aggregate the whole query (children are
	// sub-intervals of the root's snapshot window), so the per-query cost
	// scalar reads the root once: dominance tests + node accesses, the two
	// axes §VII measures.
	cost := float64(p.Root.Cost.DominanceTests) + float64(p.Root.NodeAccesses)
	prune, _ := wholePlanPruneRatio(p.Root)

	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.classes[p.Fingerprint]
	if c == nil {
		if len(s.classes) >= s.max {
			s.overflow++
			return false
		}
		c = &class{op: p.Op, dims: p.Dims, rung: p.Rung, shape: p.Shape}
		s.classes[p.Fingerprint] = c
	}
	c.count++
	// Queueing for admission is load, not the query shape: a baseline
	// frozen at low load would otherwise read later queueing as drift.
	lat := float64(p.TotalNS - waitNS(p.Root))
	c.latRing[c.ringI] = lat
	c.costRing[c.ringI] = cost
	c.pruneRing[c.ringI] = prune
	c.ringI = (c.ringI + 1) % ringSize
	if c.ringN < ringSize {
		c.ringN++
	}
	if len(c.baseline) < baselineN {
		c.baseline = append(c.baseline, lat)
		if len(c.baseline) == baselineN {
			c.baselineP95 = percentile(append([]float64(nil), c.baseline...), 95)
		}
		return false
	}
	c.sinceBase++
	if c.sinceBase < driftMinRecent {
		return c.drifting
	}
	recent := percentile(ringCopy(&c.latRing, c.ringN), 95)
	switch {
	case !c.drifting && recent > c.baselineP95*driftFactor && recent-c.baselineP95 > driftMinDeltaNS:
		c.drifting = true
	case c.drifting && recent <= c.baselineP95*clearFactor:
		c.drifting = false
	}
	return c.drifting
}

// wholePlanPruneRatio aggregates candidates in/out over every node that
// recorded counts: total eliminated / total entering.
func wholePlanPruneRatio(root *Node) (float64, bool) {
	var in, cut int
	root.Walk(func(n *Node) {
		if _, ok := n.PruneRatio(); ok {
			in += n.In
			cut += n.In - n.Out
		}
	})
	if in == 0 {
		return 0, false
	}
	return float64(cut) / float64(in), true
}

// Drifting returns how many classes currently trip the drift detector — the
// fingerprint_drift gauge reads it on scrape.
func (s *Store) Drifting() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.classes {
		if c.drifting {
			n++
		}
	}
	return n
}

// Overflow returns how many observations were discarded because the class
// table was full.
func (s *Store) Overflow() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overflow
}

// Len returns the number of tracked classes.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.classes)
}

// Snapshot returns every class's aggregate, busiest first (count desc,
// fingerprint asc for determinism).
func (s *Store) Snapshot() []ClassSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ClassSnapshot, 0, len(s.classes))
	for fp, c := range s.classes {
		lat := ringCopy(&c.latRing, c.ringN)
		cost := ringCopy(&c.costRing, c.ringN)
		pr := ringCopy(&c.pruneRing, c.ringN)
		out = append(out, ClassSnapshot{
			Fingerprint:   fp,
			Op:            c.op,
			Dims:          c.dims,
			Rung:          c.rung,
			Shape:         c.shape,
			Count:         c.count,
			LatencyP50MS:  percentile(lat, 50) / 1e6,
			LatencyP95MS:  percentile(lat, 95) / 1e6,
			BaselineP95MS: c.baselineP95 / 1e6,
			CostP50:       percentile(cost, 50),
			CostP95:       percentile(cost, 95),
			PruneRatioP50: percentile(pr, 50),
			Drifting:      c.drifting,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Fingerprint < out[b].Fingerprint
	})
	return out
}

func ringCopy(ring *[ringSize]float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, ring[:n])
	return out
}

// percentile sorts its (owned) input and reads the nearest-rank percentile.
func percentile(vals []float64, p int) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := len(vals) * p / 100
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}
