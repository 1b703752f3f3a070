package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/region"
	"repro/internal/rtree"
	"repro/internal/server"
	"repro/internal/skyline"
	"repro/internal/wal"
)

// span is one timed call of the traced run. Spans of one replayed request
// share Req; Parent is -1 for a root.
type span struct {
	Pass   string `json:"pass"`
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// The replay is single-goroutine, so children of a span never overlap.
type tracer struct {
	epoch time.Time
	pass  string
	spans []span
}

func (t *tracer) start(name string, parent, req int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Pass: t.pass, Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(time.Since(t.epoch))})
	return id
}

func (t *tracer) stop(id int) {
	t.spans[id].End = int64(time.Since(t.epoch))
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// durations lists the durations of the spans called name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// perRequest sums the durations of the spans called name per request, in ms.
func (t *tracer) perRequest(name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Req]; !ok {
			order = append(order, s.Req)
		}
		sums[s.Req] += ms(s.dur())
	}
	out := make([]float64, 0, len(order))
	for _, r := range order {
		out = append(out, sums[r])
	}
	return out
}

// counts are the deterministic work counters of one replayed request: the
// membership probe, the reverse skyline and the DSL replay (never the cached
// or deadline-bounded calls). SRRects is -1 when the fold did not run or
// did not finish.
type counts struct {
	WindowQueries  uint64 `json:"window_queries"`
	DominanceTests uint64 `json:"dominance_tests"`
	NodeAccesses   uint64 `json:"node_accesses"`
	LeafScans      uint64 `json:"leaf_scans"`
	SRRects        int    `json:"sr_rects"`
}

var errStepDeadline = errors.New("step budget exhausted")

// replayed is what the chain pass learned about one request.
type replayed struct {
	op     op
	ct     repro.Item
	member bool
	rsl    []repro.Item
}

// traceRun is the state of the traced replay over one snapshot.
type traceRun struct {
	b      *bench
	snap   *server.Snapshot
	gate   engine.RungGate
	model  *explain.Model
	engm   *engine.Metrics
	chain  *tracer
	steps  *tracer
	reqs   []replayed
	dslLen []float64
	rungs  map[string]int
}

// chainPass replays each request through the calls the /v1/whynot handler
// makes, in its order, with the server's ladder configuration and breakers.
func (r *traceRun) chainPass() error {
	db := r.snap.DB
	for k := range r.reqs {
		rq := &r.reqs[k]
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		root := r.chain.start("chain", -1, k)
		eb := explain.NewBuilder("whynot", db.Dims(), r.model, db.Engine().DB.Tree())
		ctx = explain.With(ctx, eb)
		s := r.chain.start("rskyline.member", root, k)
		member, err := db.IsReverseSkylineContext(ctx, rq.ct, rq.op.q)
		r.chain.stop(s)
		if err == nil && !member {
			s = r.chain.start("rskyline.rsl", root, k)
			rq.rsl, err = db.ReverseSkylineContext(ctx, r.snap.Items, rq.op.q)
			r.chain.stop(s)
		}
		if err == nil && !member {
			runner := engine.NewRunner(db.Engine(), engine.Config{
				Timeout: rungTimeout, Degrade: true, Store: r.snap.Store,
				Workers: db.Workers(), Metrics: r.engm, Gate: r.gate,
			})
			s = r.chain.start("engine.ladder", root, k)
			var ans engine.Answer
			ans, err = runner.MWQ(ctx, rq.ct, rq.op.q, rq.rsl)
			r.chain.stop(s)
			if err == nil {
				r.rungs[ans.Rung.String()]++
				eb.Finish(ans.Rung.String())
			}
		}
		r.chain.stop(root)
		cancel()
		if err != nil {
			return fmt.Errorf("chain replay of request %d: %w", rq.op.i, err)
		}
		rq.member = member
	}
	return nil
}

// stepsPass replays the exact rung's steps through the lower layers for the
// first decompose requests (DSL per RSL member, anti-DDR per member, the
// intersection fold), then times the engine calls the rung makes: the safe
// region, MWQ with it, and the MWP fallback. It returns the per-request
// counts; withSpans false reruns only the counted work.
func (r *traceRun) stepsPass(tr *tracer, withSpans bool) ([]counts, error) {
	db := r.snap.DB
	eng := db.Engine()
	tree := eng.DB.Tree()
	universe, _ := eng.DB.Universe()
	out := make([]counts, len(r.reqs))
	for k, rq := range r.reqs {
		ctx := context.Background()
		before := db.Cost()
		if _, err := db.IsReverseSkylineContext(ctx, rq.ct, rq.op.q); err != nil {
			return nil, err
		}
		if !rq.member {
			if _, err := db.ReverseSkylineContext(ctx, r.snap.Items, rq.op.q); err != nil {
				return nil, err
			}
		}
		c := counts{SRRects: -1}
		decompose := !rq.member && k < r.b.w.decompose
		var dsls [][]geom.Point
		if decompose {
			root := tr.start("sr.steps", -1, k)
			for _, m := range rq.rsl {
				s := tr.start("skyline.dsl", root, k)
				dsl := skyline.DynamicBBSExcluding(tree, m.Point, m.ID)
				tr.stop(s)
				pts := make([]geom.Point, len(dsl))
				for j, it := range dsl {
					pts[j] = it.Point
				}
				dsls = append(dsls, pts)
				if withSpans {
					r.dslLen = append(r.dslLen, float64(len(dsl)))
				}
			}
			after := db.Cost().Sub(before)
			c.WindowQueries, c.DominanceTests = after.WindowQueries, after.DominanceTests
			c.NodeAccesses, c.LeafScans = after.NodeAccesses, after.LeafScans

			// One rung budget for the anti-DDRs and the fold together.
			deadline := time.Now().Add(rungTimeout)
			poll := func() error {
				if time.Now().After(deadline) {
					return errStepDeadline
				}
				return nil
			}
			adds := make([]region.Set, 0, len(dsls))
			var err error
			for j, m := range rq.rsl {
				s := tr.start("region.antiddr", root, k)
				var add region.Set
				add, err = region.AntiDDRChecked(m.Point, dsls[j], universe, poll)
				tr.stop(s)
				if err != nil {
					break
				}
				adds = append(adds, add)
			}
			if err == nil {
				s := tr.start("region.intersect", root, k)
				var sr region.Set
				for j, add := range adds {
					if j == 0 {
						sr = append(region.Set{}, add...)
						continue
					}
					if sr, err = sr.IntersectSetChecked(add, poll); err != nil {
						break
					}
				}
				tr.stop(s)
				if err == nil {
					c.SRRects = len(sr)
				}
			}
			if err != nil && !errors.Is(err, errStepDeadline) {
				return nil, err
			}
			tr.stop(root)
		} else {
			after := db.Cost().Sub(before)
			c.WindowQueries, c.DominanceTests = after.WindowQueries, after.DominanceTests
			c.NodeAccesses, c.LeafScans = after.NodeAccesses, after.LeafScans
		}
		out[k] = c
		if !withSpans || rq.member {
			continue
		}
		if decompose {
			rctx, cancel := context.WithTimeout(ctx, rungTimeout)
			s := tr.start("whynot.safe_region", -1, k)
			sr, err := eng.SafeRegionCtx(rctx, rq.op.q, rq.rsl)
			tr.stop(s)
			if err == nil {
				s = tr.start("whynot.mwq", -1, k)
				_, err = eng.MWQCtx(rctx, rq.ct, rq.op.q, sr, repro.Options{})
				tr.stop(s)
			}
			cancel()
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
		}
		s := tr.start("whynot.mwp", -1, k)
		_, err := eng.MWPCtx(ctx, rq.ct, rq.op.q, repro.Options{})
		tr.stop(s)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// restoreBootItems deletes every insert still served, so the snapshot holds
// the boot item list again, in boot order: the replay then runs on the same
// index whatever the window's mutations were.
func (b *bench) restoreBootItems() error {
	for {
		it, ok := b.muts.take(0)
		if !ok {
			break
		}
		var reply mutationReply
		status, _, err := b.post("/v1/admin/delete", map[string]any{"id": it.ID}, &reply)
		if err != nil || status != 200 {
			return fmt.Errorf("restore: delete %d: status %d: %v", it.ID, status, err)
		}
	}
	served := b.srv.Snapshot().Items
	if !reflect.DeepEqual(served, b.items) {
		return fmt.Errorf("restore: served items differ from the boot list (%d vs %d)", len(served), len(b.items))
	}
	return nil
}

// runTraced is the traced run: the per-layer metrics.
func (b *bench) runTraced() (result, error) {
	if _, err := b.setup(1, 0); err != nil {
		return result{}, err
	}
	defer b.shutdown()
	// The end-to-end window gives the cache accounting and brings the
	// breakers to their steady state.
	s, cache := b.measure()
	chk, err := b.check(s.ops)
	if err != nil {
		return result{}, err
	}
	if err := b.reportWindow(s, chk, cache); err != nil {
		return result{}, err
	}
	failed := s.failed + chk.mismatches
	if b.w.mutate > 0 {
		if err := b.restoreBootItems(); err != nil {
			return result{}, err
		}
	}

	snap := b.srv.Snapshot()
	epoch := time.Now()
	r := &traceRun{
		b: b, snap: snap, gate: b.srv.Breakers(), model: explain.NewModel(),
		engm:  engine.NewMetrics(obs.NewRegistry()),
		chain: &tracer{epoch: epoch, pass: "chain"}, steps: &tracer{epoch: epoch, pass: "steps"},
		rungs: map[string]int{},
	}
	for _, o := range b.st.reads(b.w.replay) {
		ct, _ := snap.Customer(o.customer)
		r.reqs = append(r.reqs, replayed{op: o, ct: ct})
	}
	// Each pass starts from empty caches, so the passes see the same cache
	// trajectory as each other and as the HTTP replay below.
	snap.DB.InvalidateCaches()
	if err := r.chainPass(); err != nil {
		return result{}, err
	}
	snap.DB.InvalidateCaches()
	cnt, err := r.stepsPass(r.steps, true)
	if err != nil {
		return result{}, err
	}
	snap.DB.InvalidateCaches()
	recount, err := r.stepsPass(&tracer{epoch: epoch}, false)
	if err != nil {
		return result{}, err
	}
	snap.DB.InvalidateCaches()
	var httpLat []float64
	for _, rq := range r.reqs {
		o := b.whyNot(rq.op)
		if !ok(o) {
			return result{}, fmt.Errorf("HTTP replay of request %d: status %d: %v", rq.op.i, o.status, o.err)
		}
		httpLat = append(httpLat, ms(o.lat))
	}
	countProblems := compareCounts(cnt, recount)
	countProblems = append(countProblems, b.compareCountsAcrossRuns(cnt)...)

	m := b.layerMetrics(r, cnt, cache, httpLat)
	if err := b.writeSpans(r); err != nil {
		return result{}, err
	}
	b.report["trace"] = map[string]any{
		"replayed": len(r.reqs), "decomposed": min(b.w.decompose, len(r.reqs)),
		"rungs": r.rungs, "spans": spanSummary(r.chain, r.steps),
		"count_selfcheck_problems": countProblems,
		"cache_delta":              cache,
	}
	// Tails follow the host's steal more than its share: measured in the
	// window above, reported here without a bound (see README "Noise").
	m["whynot_p99_ms"] = metric{s.p99, "ms"}
	m["mutation_p90_ms"] = metric{percentile(s.mutLat, 0.90), "ms"}
	for _, name := range perLayerMetrics {
		if _, ok := m[name]; !ok {
			return result{}, fmt.Errorf("traced run is missing per-layer metric %s", name)
		}
	}
	attempted := s.attempted() + len(r.reqs)
	return result{
		Correct:   chk.mismatches == 0 && len(countProblems) == 0,
		Attempted: attempted,
		Failed:    failed + len(countProblems),
		Metrics:   m,
	}, nil
}

// perLayerMetrics is every metric a traced run must print.
var perLayerMetrics = []string{
	"whynot_p99_ms", "mutation_p90_ms",
	"server.overhead_ms",
	"rskyline.member_ms", "rskyline.rsl_ms", "rskyline.window_queries", "rskyline.rsl_size",
	"engine.ladder_ms", "engine.fallback_share",
	"whynot.safe_region_ms", "whynot.mwq_ms", "whynot.mwp_ms",
	"skyline.dsl_ms", "skyline.dsl_size", "skyline.dominance_tests",
	"region.antiddr_ms", "region.intersect_ms", "region.sr_rects",
	"rtree.node_accesses", "rtree.leaf_scans", "rtree.bulk_load_ms", "repro.db_build_ms",
	"exec.dsl_cache_hit_rate", "exec.dsl_cache_lookups",
	"exec.antiddr_cache_hit_rate", "exec.antiddr_cache_lookups",
	"wal.append_ms",
	"trace.unattributed_share",
}

func (b *bench) layerMetrics(r *traceRun, cnt []counts, cache repro.CacheStats, httpLat []float64) map[string]metric {
	var wq, dt, na, ls, rects, rsl []float64
	for k, c := range cnt {
		wq = append(wq, float64(c.WindowQueries))
		dt = append(dt, float64(c.DominanceTests))
		na = append(na, float64(c.NodeAccesses))
		ls = append(ls, float64(c.LeafScans))
		if c.SRRects >= 0 {
			rects = append(rects, float64(c.SRRects))
		}
		if !r.reqs[k].member {
			rsl = append(rsl, float64(len(r.reqs[k].rsl)))
		}
	}
	ladders := 0
	for _, n := range r.rungs {
		ladders += n
	}
	fallback := 0.0
	if ladders > 0 {
		fallback = float64(ladders-r.rungs["exact"]) / float64(ladders)
	}
	self := r.chain.selfTimes()
	var rootSelf, rootTotal time.Duration
	for i, s := range r.chain.spans {
		if s.Parent == -1 {
			rootSelf += self[i]
			rootTotal += s.dur()
		}
	}
	unattributed := 0.0
	if rootTotal > 0 {
		unattributed = float64(rootSelf) / float64(rootTotal)
	}
	// The chain and the HTTP replay ran the same requests from the same
	// cache state; the overhead is the median of their per-request gaps.
	chainMS := r.chain.durations("chain")
	gaps := make([]float64, len(chainMS))
	for k := range chainMS {
		gaps[k] = httpLat[k] - chainMS[k]
	}
	return map[string]metric{
		"server.overhead_ms":      {percentile(gaps, 0.5), "ms"},
		"rskyline.member_ms":      {percentile(r.chain.durations("rskyline.member"), 0.5), "ms"},
		"rskyline.rsl_ms":         {percentile(r.chain.durations("rskyline.rsl"), 0.5), "ms"},
		"rskyline.window_queries": {mean(wq), "count"},
		"rskyline.rsl_size":       {mean(rsl), "count"},
		"engine.ladder_ms":        {percentile(r.chain.durations("engine.ladder"), 0.5), "ms"},
		"engine.fallback_share":   {fallback, "share"},
		"whynot.safe_region_ms":   {percentile(r.steps.durations("whynot.safe_region"), 0.5), "ms"},
		"whynot.mwq_ms":           {percentile(r.steps.durations("whynot.mwq"), 0.5), "ms"},
		"whynot.mwp_ms":           {percentile(r.steps.durations("whynot.mwp"), 0.5), "ms"},
		"skyline.dsl_ms":          {percentile(r.steps.perRequest("skyline.dsl"), 0.5), "ms"},
		"skyline.dsl_size":        {mean(r.dslLen), "count"},
		"skyline.dominance_tests": {mean(dt), "count"},
		"region.antiddr_ms":       {percentile(r.steps.perRequest("region.antiddr"), 0.5), "ms"},
		"region.intersect_ms":     {percentile(r.steps.durations("region.intersect"), 0.5), "ms"},
		"region.sr_rects":         {mean(rects), "count"},
		"rtree.node_accesses":     {mean(na), "count"},
		"rtree.leaf_scans":        {mean(ls), "count"},
		"rtree.bulk_load_ms":      {b.timeMedian(5, func() { rtree.BulkLoad(b.w.dims, r.snap.Items, rtree.Config{}) }), "ms"},
		"repro.db_build_ms": {b.timeMedian(5, func() {
			repro.NewDBWithOptions(b.w.dims, r.snap.Items, repro.DBOptions{Parallelism: -1, CacheSize: cacheSize})
		}), "ms"},
		"exec.dsl_cache_hit_rate":     {cache.DSL.HitRate(), "share"},
		"exec.dsl_cache_lookups":      {float64(cache.DSL.Hits + cache.DSL.Misses), "count"},
		"exec.antiddr_cache_hit_rate": {cache.AntiDDR.HitRate(), "share"},
		"exec.antiddr_cache_lookups":  {float64(cache.AntiDDR.Hits + cache.AntiDDR.Misses), "count"},
		"wal.append_ms":               {b.walAppendMS(r.snap.Items), "ms"},
		"trace.unattributed_share":    {unattributed, "share"},
	}
}

func (b *bench) timeMedian(n int, f func()) float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		xs = append(xs, ms(time.Since(t0)))
	}
	return percentile(xs, 0.5)
}

// walAppendMS times appends of dataset-sized records to a fresh log with the
// policy write_mix serves with (fsync always).
func (b *bench) walAppendMS(items []repro.Item) float64 {
	dir := filepath.Join(b.out, fmt.Sprintf("walbench-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		fatal(fmt.Errorf("wal bench: %w", err))
	}
	var xs []float64
	for k := 0; k < 64; k++ {
		it := items[k%len(items)]
		it.ID = insertIDBase + k
		t0 := time.Now()
		if _, err := l.Append(wal.OpInsert, it); err != nil {
			fatal(fmt.Errorf("wal bench: %w", err))
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	if err := l.Close(); err != nil {
		fatal(fmt.Errorf("wal bench: %w", err))
	}
	return percentile(xs, 0.5)
}

// compareCounts is the in-run half of the traced-run self-check: the same
// requests replayed twice must do exactly the same counted work.
func compareCounts(a, b []counts) []string {
	var out []string
	for k := range a {
		x, y := a[k], b[k]
		if x.SRRects < 0 || y.SRRects < 0 {
			x.SRRects, y.SRRects = -1, -1 // a fold cut by its budget is not counted
		}
		if x != y {
			out = append(out, fmt.Sprintf("request %d: counts %+v then %+v", k, a[k], b[k]))
		}
	}
	return out
}

// compareCountsAcrossRuns is the cross-run half: the first traced run of a
// workload and seed by one build stores its counts, later ones must
// reproduce them.
func (b *bench) compareCountsAcrossRuns(cnt []counts) []string {
	// Keyed by the benchmark binary too: another build of the program may
	// legitimately do other work.
	bin, err := os.Executable()
	if err != nil {
		return []string{fmt.Sprintf("locating the binary: %v", err)}
	}
	exe, err := os.ReadFile(bin)
	if err != nil {
		return []string{fmt.Sprintf("reading the binary: %v", err)}
	}
	sum := sha256.Sum256(exe)
	path := filepath.Join(b.out, fmt.Sprintf("counts-%s-seed%d-%x.json", b.w.name, b.seed, sum[:8]))
	prev, err := os.ReadFile(path)
	if err != nil {
		data, err := json.Marshal(cnt)
		if err == nil {
			err = os.WriteFile(path, data, 0o644)
		}
		if err != nil {
			return []string{fmt.Sprintf("storing counts: %v", err)}
		}
		return nil
	}
	var old []counts
	if err := json.Unmarshal(prev, &old); err != nil || len(old) != len(cnt) {
		return []string{fmt.Sprintf("stored counts in %s are unreadable or of another length", path)}
	}
	probs := compareCounts(old, cnt)
	for i := range probs {
		probs[i] = "against the stored run: " + probs[i]
	}
	return probs
}

// spanSummary gives, per pass and span name, the count, total and self time.
func spanSummary(trs ...*tracer) map[string]any {
	out := map[string]any{}
	for _, t := range trs {
		self := t.selfTimes()
		type agg struct {
			Count   int     `json:"count"`
			TotalMS float64 `json:"total_ms"`
			SelfMS  float64 `json:"self_ms"`
		}
		byName := map[string]*agg{}
		for i, s := range t.spans {
			a := byName[s.Name]
			if a == nil {
				a = &agg{}
				byName[s.Name] = a
			}
			a.Count++
			a.TotalMS += ms(s.dur())
			a.SelfMS += ms(self[i])
		}
		out[t.pass] = byName
	}
	return out
}

// writeSpans writes every span, one JSON object a line.
func (b *bench) writeSpans(r *traceRun) error {
	path := filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.w.name, b.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	all := append(append([]span(nil), r.chain.spans...), r.steps.spans...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
