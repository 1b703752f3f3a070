package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/wal"
)

// bench holds one run's state.
type bench struct {
	w      workload
	seed   int64
	window time.Duration
	out    string

	srv    *server.Server
	served chan error
	walDir string
	base   string // http://host:port
	hc     *http.Client

	from  time.Time    // start of the measured window
	items []repro.Item // boot item set
	st    *stream
	muts  *mutationLog

	report  map[string]any
	bootCPU []float64
	// steal is the host's steal share over each slice of the window.
	steal []float64
}

// stream derives every operation of a run from the seed: operation i is the
// same whichever client sends it and however many operations the window
// holds.
type stream struct {
	w     workload
	seed  int64
	items []repro.Item
	span  []float64
	hot   []repro.Point
}

type opKind int

const (
	opWhyNot opKind = iota
	opMutate
)

// op is one generated operation.
type op struct {
	i        int
	kind     opKind
	q        repro.Point
	customer int
	// For mutations: insert a new item at point, or delete an earlier
	// insert (pickDelete selects which, among those acknowledged).
	insert     bool
	point      repro.Point
	pickDelete int
}

// insertIDBase keeps the benchmark's own inserts clear of dataset IDs.
const insertIDBase = 10_000_000

func newStream(w workload, seed int64, items []repro.Item) *stream {
	s := &stream{w: w, seed: seed, items: items}
	lo := items[0].Point.Clone()
	hi := items[0].Point.Clone()
	for _, it := range items {
		for j, x := range it.Point {
			lo[j] = min(lo[j], x)
			hi[j] = max(hi[j], x)
		}
	}
	s.span = make([]float64, len(hi))
	for j := range hi {
		s.span[j] = hi[j] - lo[j]
	}
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < w.hot; j++ {
		s.hot = append(s.hot, s.near(rng))
	}
	return s
}

// near is a random product perturbed by at most 1% of each dimension's span,
// the query-point distribution of dataset.FindQueries.
func (s *stream) near(rng *rand.Rand) repro.Point {
	base := s.items[rng.Intn(len(s.items))].Point
	q := make(repro.Point, len(base))
	for j := range q {
		q[j] = base[j] + (rng.Float64()-0.5)*0.02*s.span[j]
	}
	return q
}

func (s *stream) op(i int) op {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(i)))
	if s.w.mutate > 0 && rng.Float64() < s.w.mutate {
		return op{i: i, kind: opMutate, insert: rng.Intn(2) == 0, point: s.near(rng), pickDelete: rng.Int()}
	}
	o := op{i: i, kind: opWhyNot}
	if s.w.hot > 0 {
		o.q = s.hot[i%s.w.hot]
	} else {
		o.q = s.near(rng)
	}
	o.customer = s.items[rng.Intn(len(s.items))].ID
	return o
}

// reads returns the first n why-not operations of the stream.
func (s *stream) reads(n int) []op {
	var out []op
	for i := 0; len(out) < n; i++ {
		if o := s.op(i); o.kind == opWhyNot {
			out = append(out, o)
		}
	}
	return out
}

// mutationLog is the client-side record of acknowledged mutations, and the
// pool of acknowledged inserts that deletes draw from.
type mutationLog struct {
	mu    sync.Mutex
	pool  []repro.Item
	acked []ackedMutation
}

type ackedMutation struct {
	seq    uint64 // snapshot sequence number the mutation published
	insert bool
	item   repro.Item
}

// take removes and returns an acknowledged insert to delete, if any.
func (m *mutationLog) take(pick int) (repro.Item, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pool) == 0 {
		return repro.Item{}, false
	}
	k := pick % len(m.pool)
	it := m.pool[k]
	m.pool[k] = m.pool[len(m.pool)-1]
	m.pool = m.pool[:len(m.pool)-1]
	return it, true
}

func (m *mutationLog) ack(seq uint64, insert bool, it repro.Item) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acked = append(m.acked, ackedMutation{seq: seq, insert: insert, item: it})
	if insert {
		m.pool = append(m.pool, it)
	}
}

// giveBack returns a delete candidate whose delete was not acknowledged.
func (m *mutationLog) giveBack(it repro.Item) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pool = append(m.pool, it)
}

// itemsAt reconstructs the item list the server published at snapshot seq:
// the boot list with every acknowledged mutation of a lower or equal seq
// applied in seq order, the way the server builds it (inserts append,
// deletes filter).
func (m *mutationLog) itemsAt(base []repro.Item, seq uint64) []repro.Item {
	m.mu.Lock()
	acked := append([]ackedMutation(nil), m.acked...)
	m.mu.Unlock()
	sort.Slice(acked, func(a, b int) bool { return acked[a].seq < acked[b].seq })
	items := base
	for _, a := range acked {
		if a.seq > seq {
			break
		}
		if a.insert {
			items = append(append([]repro.Item(nil), items...), a.item)
			continue
		}
		next := make([]repro.Item, 0, len(items))
		for _, it := range items {
			if it.ID != a.item.ID {
				next = append(next, it)
			}
		}
		items = next
	}
	return items
}

// ---- server lifecycle ----

func (b *bench) serverConfig(walDir string) server.Config {
	cfg := server.Config{
		Dataset: server.DatasetSpec{Generate: &server.GenerateSpec{
			Kind: b.w.kind, N: b.w.n, Dims: b.w.dims, Seed: b.seed,
		}},
		Workers:        -1,
		CacheSize:      cacheSize,
		Breaker:        server.BreakerConfig{OpenFor: 2 * time.Second},
		RungTimeout:    rungTimeout,
		RequestTimeout: 10 * time.Second,
	}
	if walDir != "" {
		cfg.Durability = &wal.Options{
			Dir:          walDir,
			Policy:       wal.SyncAlways,
			Interval:     50 * time.Millisecond,
			SegmentBytes: 4 << 20,
		}
		cfg.ReopenProbeMin = 100 * time.Millisecond
		cfg.ReopenProbeMax = 5 * time.Second
	}
	return cfg
}

// boot starts a server and returns the wall time from the start of dataset
// generation to the first served request; it records the process CPU time
// of the same span in bootCPU.
func (b *bench) boot(k int) (time.Duration, error) {
	walDir := ""
	if b.w.durable {
		walDir = filepath.Join(b.out, fmt.Sprintf("wal-%d-%d", os.Getpid(), k))
		if err := os.RemoveAll(walDir); err != nil {
			return 0, err
		}
	}
	runtime.GC() // the previous boot's garbage is not this boot's cost
	began, cpu0 := time.Now(), cpuTime()
	srv, err := server.New(context.Background(), b.serverConfig(walDir))
	if err != nil {
		return 0, fmt.Errorf("boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b.srv, b.walDir = srv, walDir
	b.served = make(chan error, 1)
	go func() { b.served <- srv.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	if b.hc == nil {
		b.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1}}
	}
	resp, err := b.hc.Get(b.base + "/v1/readyz")
	if err != nil {
		return 0, fmt.Errorf("first request: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	took, cpu := time.Since(began), cpuTime()-cpu0
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	b.bootCPU = append(b.bootCPU, cpu.Seconds())
	return took, nil
}

// shutdown stops the server, waits for Serve to return and removes its WAL.
func (b *bench) shutdown() error {
	if b.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	err = errors.Join(err, <-b.served)
	b.hc.CloseIdleConnections()
	if b.walDir != "" {
		err = errors.Join(err, os.RemoveAll(b.walDir))
	}
	b.srv = nil
	return err
}

// setup boots the server at least repeats times and for at least minTime
// (keeping the last server) and returns the median process CPU time of a
// boot. CPU time, unlike wall time, does not grow with the CPU time the
// shared host steals, and it still shows work moved into set-up; the wall
// times are in the report.
func (b *bench) setup(repeats int, minTime time.Duration) (float64, error) {
	var times []float64
	began := time.Now()
	for k := 0; k < maxSetups && (k < repeats || time.Since(began) < minTime); k++ {
		if k > 0 {
			if err := b.shutdown(); err != nil {
				return 0, err
			}
		}
		d, err := b.boot(k)
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	snap := b.srv.Snapshot()
	b.items = snap.Items
	b.st = newStream(b.w, b.seed, b.items)
	b.muts = &mutationLog{}
	b.report = map[string]any{"setup_wall_s_samples": times, "setup_cpu_s_samples": b.bootCPU}
	return median(b.bootCPU), nil
}

// ---- HTTP operations ----

// whyNotReply is the part of a /v1/whynot answer the benchmark reads.
type whyNotReply struct {
	AlreadyMember bool    `json:"already_member"`
	Case          int     `json:"case"`
	Cost          float64 `json:"cost"`
	Rung          string  `json:"rung"`
	RSLSize       int     `json:"rsl_size"`
	SnapshotSeq   uint64  `json:"snapshot_seq"`
}

type mutationReply struct {
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Items       int    `json:"items"`
}

// outcome is one completed operation.
type outcome struct {
	op     op
	start  time.Time
	lat    time.Duration
	status int
	err    error
	reply  whyNotReply
}

func (b *bench) post(path string, body any, out any) (int, time.Duration, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := b.hc.Post(b.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, time.Since(t0), err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err == nil && resp.StatusCode == http.StatusOK && out != nil {
		err = json.Unmarshal(raw, out)
	}
	return resp.StatusCode, lat, err
}

func (b *bench) whyNot(o op) outcome {
	res := outcome{op: o, start: time.Now()}
	res.status, res.lat, res.err = b.post("/v1/whynot",
		map[string]any{"q": []float64(o.q), "customer_id": o.customer}, &res.reply)
	return res
}

// mutate sends an insert, or a delete of an earlier acknowledged insert (an
// insert when there is none yet), and logs it when acknowledged.
func (b *bench) mutate(o op) outcome {
	res := outcome{op: o, start: time.Now()}
	var reply mutationReply
	if !o.insert {
		if it, ok := b.muts.take(o.pickDelete); ok {
			res.status, res.lat, res.err = b.post("/v1/admin/delete",
				map[string]any{"id": it.ID, "point": []float64(it.Point)}, &reply)
			if res.status == http.StatusOK && res.err == nil {
				b.muts.ack(reply.SnapshotSeq, false, it)
			} else {
				b.muts.giveBack(it)
			}
			return res
		}
	}
	it := repro.Item{ID: insertIDBase + o.i, Point: o.point}
	res.status, res.lat, res.err = b.post("/v1/admin/insert",
		map[string]any{"id": it.ID, "point": []float64(it.Point)}, &reply)
	if res.status == http.StatusOK && res.err == nil {
		b.muts.ack(reply.SnapshotSeq, true, it)
	}
	return res
}

func (b *bench) do(o op) outcome {
	if o.kind == opMutate {
		return b.mutate(o)
	}
	return b.whyNot(o)
}

// snapshotWatch remembers every serving snapshot the clients saw, so cache
// accounting can be summed over snapshots that mutations replaced.
type snapshotWatch struct {
	mu    sync.Mutex
	seen  map[uint64]*server.Snapshot
	start map[uint64]repro.CacheStats
}

func (s *snapshotWatch) observe(snap *server.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.seen[snap.Seq]; !ok {
		s.seen[snap.Seq] = snap
	}
}

// mark records every known snapshot's cache counters as the window's start.
func (s *snapshotWatch) mark() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for seq, snap := range s.seen {
		s.start[seq] = snap.DB.CacheStats()
	}
}

// delta sums the cache counters accumulated since mark over all snapshots.
func (s *snapshotWatch) delta() repro.CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var d repro.CacheStats
	for seq, snap := range s.seen {
		now, was := snap.DB.CacheStats(), s.start[seq]
		d.DSL.Hits += now.DSL.Hits - was.DSL.Hits
		d.DSL.Misses += now.DSL.Misses - was.DSL.Misses
		d.DSL.Stale += now.DSL.Stale - was.DSL.Stale
		d.DSL.Evictions += now.DSL.Evictions - was.DSL.Evictions
		d.AntiDDR.Hits += now.AntiDDR.Hits - was.AntiDDR.Hits
		d.AntiDDR.Misses += now.AntiDDR.Misses - was.AntiDDR.Misses
		d.AntiDDR.Stale += now.AntiDDR.Stale - was.AntiDDR.Stale
		d.AntiDDR.Evictions += now.AntiDDR.Evictions - was.AntiDDR.Evictions
	}
	return d
}

// drive runs the closed loop: clients goroutines each send the next
// operation of the stream as soon as their previous one completes. The
// first warmup is untimed; operations started inside the following window
// are returned. It returns once every client has stopped.
func (b *bench) drive(warmup, window time.Duration) ([]outcome, repro.CacheStats) {
	watch := &snapshotWatch{seen: map[uint64]*server.Snapshot{}, start: map[uint64]repro.CacheStats{}}
	watch.observe(b.srv.Snapshot())
	began := time.Now()
	from, until := began.Add(warmup), began.Add(warmup+window)
	b.from = from
	var next atomic.Int64
	var marked sync.Once
	var cpu0 time.Duration
	mark := func() {
		watch.mark()
		cpu0 = cpuTime()
	}
	n, width := b.slicing()
	shares := make(chan []float64, 1)
	go func() { shares <- sampleSteal(from, n, width) }()
	results := make([][]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(until) {
					return
				}
				if !now.Before(from) {
					marked.Do(mark)
				}
				res := b.do(b.st.op(int(next.Add(1) - 1)))
				watch.observe(b.srv.Snapshot())
				if !res.start.Before(from) {
					results[c] = append(results[c], res)
				}
			}
		}(c)
	}
	wg.Wait()
	marked.Do(mark)
	b.steal = <-shares
	// Process CPU time over the window per CPU: CPU time stolen from the
	// shared host shows as a drop (the closed loop keeps both CPUs busy).
	b.report["cpu_utilization"] = float64(cpuTime()-cpu0) / float64(time.Since(from)) / float64(runtime.GOMAXPROCS(0))
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].op.i < all[j].op.i })
	return all, watch.delta()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ok(o outcome) bool { return o.status == http.StatusOK && o.err == nil }

// windowStats summarises the closed-loop window and, on the read-only
// workloads, the mutation probe after it.
type windowStats struct {
	ops, probe []outcome
	lat        []float64 // why-not latencies, unscaled
	mutLat     []float64 // mutation latencies, scaled by their steal share
	probeSteal float64
	heap       float64
	failed     int // non-200 responses
	// attemptedBase counts the first failedBase operations and
	// failedInBase the non-200 responses among them.
	attemptedBase, failedInBase int
	whyNots                     int
	answers                     int // why-not answers that are not already-member
	exact                       int // exact-rung answers among the first exactBase answers
	members                     int
	rslSum                      int
	p50, p99, rps               float64 // scaled by the steal share
	slices                      [][4]float64
}

// measure drives the window; on read-only workloads it then prices
// mutations with a probe of insert/delete pairs with no reads running. The
// probe publishes snapshots past every answer of the window, so checking
// those answers afterwards is unaffected.
func (b *bench) measure() (windowStats, repro.CacheStats) {
	ops, cache := b.drive(b.w.warmup, b.window)
	s := windowStats{ops: ops, heap: heapMB()}
	if b.w.mutate == 0 {
		h := readHost()
		s.probe = b.mutationProbe()
		s.probeSteal = stealShare(h, readHost())
	}
	for _, o := range ops {
		if o.op.kind == opMutate {
			if k := b.slice(o); k >= 0 {
				s.mutLat = append(s.mutLat, ms(o.lat)*(1-b.steal[k]))
			}
		}
	}
	for _, o := range s.probe {
		s.mutLat = append(s.mutLat, ms(o.lat)*(1-s.probeSteal))
	}
	for _, o := range append(append([]outcome(nil), ops...), s.probe...) {
		if !ok(o) {
			s.failed++
		}
		if s.attemptedBase < failedBase {
			s.attemptedBase++
			if !ok(o) {
				s.failedInBase++
			}
		}
		if o.op.kind == opMutate {
			continue
		}
		s.whyNots++
		s.lat = append(s.lat, ms(o.lat))
		if !ok(o) {
			continue
		}
		if o.reply.AlreadyMember {
			s.members++
			continue
		}
		s.rslSum += o.reply.RSLSize
		if s.answers < exactBase && o.reply.Rung == "exact" {
			s.exact++
		}
		s.answers++
	}
	s.p50, s.p99, s.rps, s.slices = b.sliceStats(ops)
	return s, cache
}

func (s windowStats) attempted() int { return len(s.ops) + len(s.probe) }

// reportWindow records the window's sample counts, descriptors and checks.
func (b *bench) reportWindow(s windowStats, chk checkResult, cache repro.CacheStats) error {
	b.report["slices_n_p50_p99_steal"] = s.slices
	b.report["samples"] = map[string]any{
		"unscaled_window_p50_ms": percentile(s.lat, 0.50), "unscaled_window_p99_ms": percentile(s.lat, 0.99),
		"unscaled_rps": float64(s.whyNots) / b.window.Seconds(), "probe_steal": s.probeSteal,
		"slices": len(s.slices), "whynot": s.whyNots, "answers": s.answers,
		"exact_base": min(s.answers, exactBase), "exact_in_base": s.exact,
		"mutations": len(s.mutLat), "mutation_p50_ms": percentile(s.mutLat, 0.50),
		"mutation_p90_ms": percentile(s.mutLat, 0.90), "whynot_p99_ms": s.p99,
		"attempted": s.attempted(), "non_200": s.failed,
	}
	b.report["descriptors"] = b.descriptors(s, chk, cache)
	b.report["check"] = chk.report()
	return b.writeOps(append(append([]outcome(nil), s.ops...), s.probe...))
}

// runEndToEnd is the untraced run: the end-to-end metrics.
func (b *bench) runEndToEnd() (result, error) {
	setupS, err := b.setup(setupRepeats, 2*time.Second)
	if err != nil {
		return result{}, err
	}
	defer b.shutdown()
	s, cache := b.measure()
	chk, err := b.check(s.ops)
	if err != nil {
		return result{}, err
	}
	if err := b.reportWindow(s, chk, cache); err != nil {
		return result{}, err
	}
	failed := s.failed + chk.mismatches
	base := min(s.answers, exactBase)
	return result{
		Correct:   chk.mismatches == 0,
		Attempted: s.attempted(),
		Failed:    failed,
		Metrics: map[string]metric{
			"whynot_p50_ms":   {s.p50, "ms"},
			"whynot_rps":      {s.rps, "1/s"},
			"mutation_p50_ms": {percentile(s.mutLat, 0.50), "ms"},
			"exact_share":     {float64(s.exact+1) / float64(base+2), "share"},
			"failed_share":    {float64(s.failedInBase+chk.mismatches+1) / float64(s.attemptedBase+2), "share"},
			"setup_s":         {setupS, "s"},
			"heap_mb":         {s.heap, "MiB"},
		},
	}, nil
}

// writeOps writes one line per measured operation: its index, kind, start
// offset from the window's start, latency in ms, and HTTP status.
func (b *bench) writeOps(ops []outcome) error {
	var buf bytes.Buffer
	buf.WriteString("i,kind,start_ms,latency_ms,status\n")
	for _, o := range ops {
		fmt.Fprintf(&buf, "%d,%d,%.3f,%.4f,%d\n", o.op.i, o.op.kind, ms(o.start.Sub(b.from)), ms(o.lat), o.status)
	}
	return os.WriteFile(filepath.Join(b.out, fmt.Sprintf("ops-%s-seed%d.csv", b.w.name, b.seed)), buf.Bytes(), 0o644)
}

// slicing cuts the window into slices of one breaker probe cycle: every
// slice then holds the same mix of probe and non-probe time on degrade_3d,
// and a burst in one slice does not move a median over slices.
func (b *bench) slicing() (int, time.Duration) {
	n := max(int(b.window/sliceLen), 1)
	return n, b.window / time.Duration(n)
}

// slice returns the index of the slice o started in, or -1.
func (b *bench) slice(o outcome) int {
	n, width := b.slicing()
	k := int(o.start.Sub(b.from) / width)
	if o.start.Before(b.from) || k >= n {
		return -1
	}
	return k
}

// sliceStats returns the medians over slices of each slice's why-not p50 and
// p99 and the mean over slices of its request rate, all scaled by the
// slice's steal share, with per-slice count, p50, p99 and steal share.
func (b *bench) sliceStats(ops []outcome) (p50, p99, rps float64, slices [][4]float64) {
	n, width := b.slicing()
	lats := make([][]float64, n)
	for _, o := range ops {
		if k := b.slice(o); o.op.kind == opWhyNot && k >= 0 {
			lats[k] = append(lats[k], ms(o.lat)*(1-b.steal[k]))
		}
	}
	var p50s, p99s, rates []float64
	for k, l := range lats {
		rates = append(rates, float64(len(l))/width.Seconds()/(1-b.steal[k]))
		if len(l) > 0 {
			p50s = append(p50s, percentile(l, 0.50))
			p99s = append(p99s, percentile(l, 0.99))
			slices = append(slices, [4]float64{float64(len(l)), p50s[len(p50s)-1], p99s[len(p99s)-1], b.steal[k]})
		}
	}
	return median(p50s), median(p99s), mean(rates), slices
}

// mutationProbe sends insert-then-delete pairs sequentially: at least 16
// pairs and at least three seconds of them (at most 256 pairs).
func (b *bench) mutationProbe() []outcome {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5eed))
	var out []outcome
	began := time.Now()
	for k := 0; k < 256 && (k < 16 || time.Since(began) < 3*time.Second); k++ {
		o := op{i: 1<<30 + k, kind: opMutate, insert: true, point: b.st.near(rng)}
		out = append(out, b.mutate(o))
		out = append(out, b.mutate(op{i: o.i, kind: opMutate}))
	}
	return out
}

// descriptors are the workload properties a later optimisation may exploit.
func (b *bench) descriptors(s windowStats, chk checkResult, cache repro.CacheStats) map[string]any {
	mutations := 0
	for _, o := range s.ops {
		if o.op.kind == opMutate {
			mutations++
		}
	}
	reads := len(s.ops) - mutations
	return map[string]any{
		"n": b.w.n, "d": b.w.dims, "clients": clients,
		"mutation_share":          float64(mutations) / float64(max(len(s.ops), 1)),
		"already_member_share":    float64(s.members) / float64(max(reads, 1)),
		"mean_rsl":                float64(s.rslSum) / float64(max(s.answers, 1)),
		"mean_dsl":                chk.meanDSL(),
		"distinct_rsl_customers":  chk.distinctRSL,
		"distinct_rsl_requests":   chk.distinctRSLRequests,
		"cache_capacity":          cacheSize,
		"dsl_cache_evictions":     cache.DSL.Evictions,
		"antiddr_cache_evictions": cache.AntiDDR.Evictions,
		// The RSL working set outgrew the caches when they had to evict.
		"working_set_exceeds_cache": cache.DSL.Evictions+cache.AntiDDR.Evictions > 0,
	}
}
