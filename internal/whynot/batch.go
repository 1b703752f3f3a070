package whynot

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/exec"
	"repro/internal/geom"
)

// MWQBatchCtx answers one why-not question per customer against the same
// query point, computing the safe region once — the reuse the paper
// highlights in §VI.B ("we do not need to recompute it to answer another
// why-not question for the same query point"). Results are positionally
// aligned with cts. Both the safe-region construction and the per-question
// loop fan out over exec.Workers(ctx) goroutines; each question only reads
// the index and the shared safe region, so results are identical at every
// width. The first error wins and the batch returns nil.
func (e *Engine) MWQBatchCtx(ctx context.Context, cts []Item, q geom.Point, rsl []Item, opt Options) ([]MWQResult, error) {
	chk, err := entry(ctx)
	if err != nil {
		return nil, err
	}
	sr, err := e.exactSafeRegion(ctx, chk, q, rsl)
	if err != nil {
		return nil, err
	}
	out := make([]MWQResult, len(cts))
	// The per-question Algorithm 4 runs record nothing: one plan subtree
	// per question would make the plan shape depend on the batch size.
	err = exec.ForEach(ctx, len(cts), cancel.SiteBatchItem, func(chk *cancel.Checker, i int) error {
		var err error
		out[i], err = e.mwq(chk, nil, cts[i], q, sr, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
