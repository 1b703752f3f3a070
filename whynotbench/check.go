package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro"
	"repro/internal/oracle"
)

// checkResult is the outcome of a run's output checks.
type checkResult struct {
	checked, oracleChecked, mismatches int
	problems                           []string
	dslSizes                           []float64
	distinctRSL, distinctRSLRequests   int
	itemsChecked                       bool
}

func (c *checkResult) fail(format string, args ...any) {
	c.mismatches++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c checkResult) meanDSL() float64 { return mean(c.dslSizes) }

func (c checkResult) report() map[string]any {
	return map[string]any{
		"answers_recomputed": c.checked, "oracle_checked": c.oracleChecked,
		"item_set_checked": c.itemsChecked, "mismatches": c.mismatches, "problems": c.problems,
	}
}

// costEqual compares objective values up to float rounding.
func costEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a))
}

// check verifies the run's outputs:
//   - a seeded sample of why-not answers is recomputed on a fresh,
//     sequential, uncached DB over the item set the answer was served from;
//     exact-rung answers must match in case and cost, MWP-rung answers in the
//     MWP cost, already-member answers in membership;
//   - on workloads with an oracle sample, a few of them also against the
//     brute-force oracle (RSL membership and the customer's status);
//   - on mutating workloads, the served item IDs must equal the boot set
//     plus acknowledged inserts minus acknowledged deletes.
func (b *bench) check(ops []outcome) (checkResult, error) {
	var c checkResult
	ctx := context.Background()
	var sample []outcome
	for _, o := range ops {
		if o.op.kind == opWhyNot && ok(o) {
			sample = append(sample, o)
		}
	}
	rng := rand.New(rand.NewSource(b.seed ^ 0xc4ec))
	rng.Shuffle(len(sample), func(i, j int) { sample[i], sample[j] = sample[j], sample[i] })
	sample = sample[:min(len(sample), checkSample)]

	dbs := map[uint64]*repro.DB{}
	itemsAt := map[uint64][]repro.Item{}
	fresh := func(seq uint64) ([]repro.Item, *repro.DB) {
		if db, ok := dbs[seq]; ok {
			return itemsAt[seq], db
		}
		items := b.muts.itemsAt(b.items, seq)
		db := repro.NewDB(b.w.dims, items)
		dbs[seq], itemsAt[seq] = db, items
		return items, db
	}
	byID := map[int]repro.Item{}
	for _, it := range b.items {
		byID[it.ID] = it
	}
	for k, o := range sample {
		items, db := fresh(o.reply.SnapshotSeq)
		ct := byID[o.op.customer]
		q := o.op.q
		member, err := db.IsReverseSkylineContext(ctx, ct, q)
		if err != nil {
			return c, err
		}
		c.checked++
		if member != o.reply.AlreadyMember {
			c.fail("request %d: already_member %v, fresh DB says %v", o.op.i, o.reply.AlreadyMember, member)
			continue
		}
		var rsl []repro.Item
		if !member {
			if rsl, err = db.ReverseSkylineContext(ctx, items, q); err != nil {
				return c, err
			}
			if len(rsl) != o.reply.RSLSize {
				c.fail("request %d: rsl_size %d, fresh DB says %d", o.op.i, o.reply.RSLSize, len(rsl))
				continue
			}
			for _, m := range rsl {
				c.dslSizes = append(c.dslSizes, float64(len(db.Engine().DB.DynamicSkylineExcluding(m.Point, m.ID))))
			}
			if err := b.checkAnswer(ctx, &c, db, o, ct, rsl); err != nil {
				return c, err
			}
		}
		if k < b.w.oracle {
			c.oracleChecked++
			if oracle.IsReverseSkyline(items, ct, q) != member {
				c.fail("request %d: oracle disagrees on membership", o.op.i)
			}
			if !member && !sameIDs(oracle.ReverseSkyline(items, items, q), rsl) {
				c.fail("request %d: oracle RSL differs from the fresh DB's", o.op.i)
			}
		}
	}
	if b.w.mutate > 0 {
		c.itemsChecked = true
		b.checkItemSet(&c)
	}
	if err := b.countDistinctRSL(ctx, &c, ops, fresh); err != nil {
		return c, err
	}
	return c, nil
}

func (b *bench) checkAnswer(ctx context.Context, c *checkResult, db *repro.DB, o outcome, ct repro.Item, rsl []repro.Item) error {
	switch o.reply.Rung {
	case "exact":
		// A bound well above the rung timeout: the recomputation runs
		// sequentially without caches.
		rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		defer cancel()
		want, err := db.MWQExactContext(rctx, ct, o.op.q, rsl, repro.Options{})
		if err != nil {
			return fmt.Errorf("recompute exact answer of request %d: %w", o.op.i, err)
		}
		if int(want.Case) != o.reply.Case || !costEqual(want.Cost, o.reply.Cost) {
			c.fail("request %d: exact answer case %d cost %g, fresh DB says case %d cost %g",
				o.op.i, o.reply.Case, o.reply.Cost, want.Case, want.Cost)
		}
	case "mwp":
		want, err := db.MWPContext(ctx, ct, o.op.q, repro.Options{})
		if err != nil {
			return fmt.Errorf("recompute MWP answer of request %d: %w", o.op.i, err)
		}
		if !costEqual(want.Best().Cost, o.reply.Cost) {
			c.fail("request %d: MWP cost %g, fresh DB says %g", o.op.i, o.reply.Cost, want.Best().Cost)
		}
	default:
		c.fail("request %d: unexpected rung %q", o.op.i, o.reply.Rung)
	}
	return nil
}

// checkItemSet compares the served item IDs with the acknowledged history.
func (b *bench) checkItemSet(c *checkResult) {
	want := map[int]bool{}
	for _, it := range b.items {
		want[it.ID] = true
	}
	b.muts.mu.Lock()
	for _, a := range b.muts.acked {
		want[a.item.ID] = a.insert
	}
	b.muts.mu.Unlock()
	n := 0
	for _, v := range want {
		if v {
			n++
		}
	}
	served := b.srv.Snapshot().Items
	if len(served) != n {
		c.fail("served %d items, want %d (boot set + acknowledged inserts - deletes)", len(served), n)
		return
	}
	for _, it := range served {
		if !want[it.ID] {
			c.fail("served item %d that the acknowledged history does not contain", it.ID)
			return
		}
	}
}

// countDistinctRSL counts the distinct reverse-skyline customers over the
// first why-not requests of the window (on the boot item set): the working
// set the DSL and anti-DDR caches would have to hold.
func (b *bench) countDistinctRSL(ctx context.Context, c *checkResult, ops []outcome, fresh func(uint64) ([]repro.Item, *repro.DB)) error {
	items, db := fresh(1)
	seen := map[int]bool{}
	done := map[string]bool{}
	for _, o := range ops {
		if c.distinctRSLRequests == 128 {
			break
		}
		if o.op.kind != opWhyNot {
			continue
		}
		c.distinctRSLRequests++
		key := fmt.Sprint([]float64(o.op.q))
		if done[key] {
			continue
		}
		done[key] = true
		rsl, err := db.ReverseSkylineContext(ctx, items, o.op.q)
		if err != nil {
			return err
		}
		for _, m := range rsl {
			seen[m.ID] = true
		}
	}
	c.distinctRSL = len(seen)
	return nil
}

func sameIDs(a, b []repro.Item) bool {
	if len(a) != len(b) {
		return false
	}
	ids := func(xs []repro.Item) []int {
		out := make([]int, len(xs))
		for i, x := range xs {
			out[i] = x.ID
		}
		sort.Ints(out)
		return out
	}
	x, y := ids(a), ids(b)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
