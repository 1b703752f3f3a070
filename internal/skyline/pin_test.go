package skyline

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// costPin is one traversal's deterministic cost on a fixed CarDB case: the
// node accesses, the prune-hook prunes, and the result.
type costPin struct {
	accesses, pruned int
	ids              []int
}

func (p costPin) String() string {
	return fmt.Sprintf("{accesses: %d, pruned: %d, ids: %v}", p.accesses, p.pruned, p.ids)
}

func pinOf(t *rtree.Tree, out []Item) costPin {
	ids := make([]int, len(out))
	for i, it := range out {
		ids[i] = it.ID
	}
	sort.Ints(ids)
	return costPin{accesses: t.Accesses(), pruned: t.Pruned(), ids: ids}
}

// TestBranchAndBoundCostPins pins the node accesses, prunes and results of
// the DSL and global-skyline traversals on a fixed CarDB-20K case. The
// numbers are the ones the traversals produced when they recomputed each
// popped node's MBR; carrying the parent's entry rect instead must not move
// any of them.
func TestBranchAndBoundCostPins(t *testing.T) {
	items := datagen.Generate(datagen.CarDB, 20_000, 2, 1)
	tree := rtree.BulkLoad(2, items, rtree.Config{})
	wantDSL := map[int]costPin{
		17:     {accesses: 85, pruned: 1846, ids: []int{767, 3732, 3930, 4561, 7161, 9135, 16135, 16387, 16388, 19526, 19616, 19682}},
		4242:   {accesses: 86, pruned: 1963, ids: []int{1374, 2424, 2426, 2582, 4327, 5034, 5287, 7031, 7626, 10177, 13625}},
		19_999: {accesses: 119, pruned: 2032, ids: []int{3055, 5461, 6804, 9035, 11759, 13231, 16031, 16175, 16938, 17859, 18902}},
	}
	for _, k := range []int{17, 4242, 19_999} {
		c := items[k]
		tree.ResetAccesses()
		out, err := DynamicBBSExcludingChecked(nil, tree, c.Point, c.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pinOf(tree, out).String(), wantDSL[k].String(); got != want {
			t.Errorf("DSL of item %d: %s, want %s", k, got, want)
		}
	}
	wantGSL := map[int]costPin{
		17:     {accesses: 87, pruned: 1900, ids: []int{17, 824, 1692, 2472, 3474, 3732, 4391, 4561, 5048, 5114, 5853, 6384, 6704, 7161, 7304, 7827, 7883, 8482, 8890, 9650, 10930, 11787, 12489, 12532, 12746, 12884, 13268, 14773, 16387, 16388, 18187, 19526, 19626}},
		4242:   {accesses: 87, pruned: 1981, ids: []int{2151, 2162, 2424, 2426, 2839, 2980, 3881, 4242, 5034, 5214, 5681, 6150, 6855, 7684, 8144, 8446, 9522, 10177, 11067, 11678, 11750, 11862, 13081, 13625, 15573, 16347, 17969, 18445, 18578, 19607, 19893}},
		19_999: {accesses: 118, pruned: 1975, ids: []int{1609, 1807, 1887, 2486, 4284, 4338, 4763, 5550, 6198, 7755, 8123, 8279, 8513, 9676, 9922, 10095, 10490, 12137, 13915, 14239, 14354, 15272, 16031, 16428, 16715, 16938, 18407, 18892, 19243, 19578, 19722, 19999}},
	}
	for _, k := range []int{17, 4242, 19_999} {
		p := items[k].Point
		q := geom.NewPoint(p[0]*1.004, p[1]*0.996)
		tree.ResetAccesses()
		out, err := GlobalSkylineBBSChecked(nil, tree, q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pinOf(tree, out).String(), wantGSL[k].String(); got != want {
			t.Errorf("global skyline near item %d: %s, want %s", k, got, want)
		}
	}
}
