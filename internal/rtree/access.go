package rtree

// Node-access accounting: in a disk-resident R-tree every visited node is a
// page read, so "nodes accessed" is the standard I/O cost metric of the
// skyline literature (BBS is I/O-optimal in it). The counter covers every
// traversal (SearchChecked, ExistsChecked, BestFirstChecked,
// GuidedSearchChecked) and the operations built on them. It is atomic, so
// concurrent read-only queries stay race-free; per-query attribution is
// meaningful only for single-threaded measurements.

// maxTrackedLevels bounds the per-level access breakdown. An R*-tree with
// fanout ≥ 8 holds >10^14 items at 16 levels, so the fold-into-top-slot case
// is theoretical.
const maxTrackedLevels = 16

// recordAccess counts one node visit at the given level (0 = leaf). All
// traversal engines funnel through it. The per-level slots are the only
// access counters — the total and the leaf count are read off them — so a
// visit costs one atomic add on state shared by every concurrent query, and
// the three views cannot drift apart.
func (t *Tree) recordAccess(level int) {
	if level >= maxTrackedLevels {
		level = maxTrackedLevels - 1
	}
	t.levelAccesses[level].Add(1)
}

// Accesses returns the number of nodes visited since the last reset: the sum
// over every tracked level, including levels above the current height that
// a since-shrunk tree once had.
func (t *Tree) Accesses() int {
	var n int64
	for i := range t.levelAccesses {
		n += t.levelAccesses[i].Load()
	}
	return int(n)
}

// LeafScans returns how many of the visited nodes were leaves — the fraction
// of the I/O that read data pages rather than directory pages. A traversal
// with a high leaf share is doing little pruning.
func (t *Tree) LeafScans() int { return int(t.levelAccesses[0].Load()) }

// LevelAccesses returns the node-access counts split by tree level, index 0 =
// leaves, trimmed to the tree's height. The profile distinguishes a traversal
// that prunes high (directory-heavy) from one that descends everywhere
// (leaf-heavy).
func (t *Tree) LevelAccesses() []int64 {
	n := t.height
	if n > maxTrackedLevels {
		n = maxTrackedLevels
	}
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = t.levelAccesses[i].Load()
	}
	return out
}

// Pruned returns how many subtrees or entries were skipped by a traversal
// prune hook since the last reset — each one a page read (or candidate test)
// the branch-and-bound avoided.
func (t *Tree) Pruned() int { return int(t.pruned.Load()) }

// ResetAccesses zeroes the node-access and prune counters.
func (t *Tree) ResetAccesses() {
	for i := range t.levelAccesses {
		t.levelAccesses[i].Store(0)
	}
	t.pruned.Store(0)
}
