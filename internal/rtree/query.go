package rtree

import (
	"container/heap"
	"sort"

	"repro/internal/cancel"
	"repro/internal/geom"
)

// SearchChecked invokes fn for every item whose point lies in the closed
// query rectangle; traversal stops early if fn returns false. The checker
// (nil for none) is consulted once per visited node and the traversal aborts
// as soon as it reports cancellation, which is then returned.
func (t *Tree) SearchChecked(chk *cancel.Checker, query geom.Rect, fn func(Item) bool) error {
	if err := chk.Err(); err != nil {
		return err
	}
	t.search(t.root, query, fn, chk)
	return chk.Err()
}

func (t *Tree) search(n *node, query geom.Rect, fn func(Item) bool, chk *cancel.Checker) bool {
	if chk.Point(cancel.SiteRTreeNode) != nil {
		return false
	}
	t.recordAccess(n.level)
	for _, e := range n.entries {
		if !query.Intersects(e.rect) {
			continue
		}
		if n.leaf {
			if !fn(e.item) {
				return false
			}
		} else if !t.search(e.child, query, fn, chk) {
			return false
		}
	}
	return true
}

// ExistsChecked reports whether any item inside the closed query rectangle
// satisfies pred, short-circuiting the traversal at the first hit. A nil pred
// matches every item. This is the existence-only window query used to verify
// reverse-skyline membership. When the traversal is cancelled before a
// witness is found, found is false and the context's error is returned.
func (t *Tree) ExistsChecked(chk *cancel.Checker, query geom.Rect, pred func(Item) bool) (bool, error) {
	found := false
	err := t.SearchChecked(chk, query, func(it Item) bool {
		if pred == nil || pred(it) {
			found = true
			return false
		}
		return true
	})
	return found, err
}

// All invokes fn for every stored item.
func (t *Tree) All(fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	t.search(t.root, t.root.mbr(), fn, nil)
}

// Items returns all stored items.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	t.All(func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// ---- best-first (branch-and-bound) traversal -------------------------------

// pqEntry is a heap element: either an internal node or a concrete item.
// rect is the entry's rectangle as stored in its parent (the node's MBR, or
// the item's point rect), so the pop-time prune needs no recomputation.
type pqEntry struct {
	key  float64
	rect geom.Rect
	node *node
	item Item
	leaf bool
}

type pq []pqEntry

func (h pq) Len() int            { return len(h) }
func (h pq) Less(i, j int) bool  { return h[i].key < h[j].key }
func (h pq) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pq) Push(x interface{}) { *h = append(*h, x.(pqEntry)) }
func (h *pq) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// BestFirstChecked yields items in non-decreasing order of key, where
// itemKey scores a point and rectKey must lower-bound itemKey over every
// point inside the rectangle. prune, when non-nil, is consulted before
// expanding a node or emitting an item; returning true skips the
// subtree/item (the BBS dominance pruning hook). Iteration stops when fn
// returns false. The checker (nil for none) is consulted once per heap pop
// (node or item expansion) and the traversal aborts, returning the context's
// error, as soon as it fires.
func (t *Tree) BestFirstChecked(
	chk *cancel.Checker,
	itemKey func(geom.Point) float64,
	rectKey func(geom.Rect) float64,
	prune func(rect geom.Rect) bool,
	fn func(Item, float64) bool,
) error {
	if err := chk.Err(); err != nil {
		return err
	}
	if t.size == 0 {
		return nil
	}
	h := &pq{}
	root := t.root.mbr()
	heap.Push(h, pqEntry{key: rectKey(root), rect: root, node: t.root})
	for h.Len() > 0 {
		if err := chk.Point(cancel.SiteRTreeNode); err != nil {
			return err
		}
		e := heap.Pop(h).(pqEntry)
		if e.node != nil {
			t.recordAccess(e.node.level)
		}
		if prune != nil && prune(e.rect) {
			t.pruned.Add(1)
			continue
		}
		if e.leaf {
			if !fn(e.item, e.key) {
				return chk.Err()
			}
			continue
		}
		prunedHere := int64(0)
		for _, ne := range e.node.entries {
			if prune != nil && prune(ne.rect) {
				prunedHere++
				continue
			}
			if e.node.leaf {
				heap.Push(h, pqEntry{key: itemKey(ne.item.Point), rect: ne.rect, item: ne.item, leaf: true})
			} else {
				heap.Push(h, pqEntry{key: rectKey(ne.rect), rect: ne.rect, node: ne.child})
			}
		}
		if prunedHere > 0 {
			t.pruned.Add(prunedHere)
		}
	}
	return chk.Err()
}

// GuidedSearchChecked is a depth-first traversal restricted to subtrees
// intersecting query, visiting children in ascending order(rect) and
// consulting prune before each descent (prune sees the child MBR; returning
// true skips it). Unlike BestFirstChecked it keeps no global heap — the
// ordering is only per-node — which makes it the cheap engine for
// window-local branch-and-bound where any collected witness prunes soundly
// regardless of global visit order. Traversal stops when fn returns false.
// The checker (nil for none) fires at node-visit granularity.
func (t *Tree) GuidedSearchChecked(
	chk *cancel.Checker,
	query geom.Rect,
	order func(geom.Rect) float64,
	prune func(geom.Rect) bool,
	fn func(Item) bool,
) error {
	if err := chk.Err(); err != nil {
		return err
	}
	if t.size > 0 {
		t.guidedSearch(t.root, query, order, prune, fn, chk)
	}
	return chk.Err()
}

func (t *Tree) guidedSearch(
	n *node,
	query geom.Rect,
	order func(geom.Rect) float64,
	prune func(geom.Rect) bool,
	fn func(Item) bool,
	chk *cancel.Checker,
) bool {
	if chk.Point(cancel.SiteRTreeNode) != nil {
		return false
	}
	t.recordAccess(n.level)
	if n.leaf {
		for _, e := range n.entries {
			if !query.Intersects(e.rect) {
				continue
			}
			if !fn(e.item) {
				return false
			}
		}
		return true
	}
	type childRef struct {
		key float64
		idx int
	}
	refs := make([]childRef, 0, len(n.entries))
	for i, e := range n.entries {
		if !query.Intersects(e.rect) {
			continue
		}
		refs = append(refs, childRef{key: order(e.rect), idx: i})
	}
	sort.Slice(refs, func(a, b int) bool { return refs[a].key < refs[b].key })
	prunedHere := int64(0)
	for _, r := range refs {
		e := n.entries[r.idx]
		if prune != nil && prune(e.rect) {
			prunedHere++
			continue
		}
		if !t.guidedSearch(e.child, query, order, prune, fn, chk) {
			if prunedHere > 0 {
				t.pruned.Add(prunedHere)
			}
			return false
		}
	}
	if prunedHere > 0 {
		t.pruned.Add(prunedHere)
	}
	return true
}
