package obs

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(1)
	h.ObserveSince(0)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must read 0")
	}
	var l *LabeledCounter
	l.With("x").Inc()
	if l.Values() != nil {
		t.Fatal("nil labeled counter must have no values")
	}

	var r *Registry
	if r.Counter("a", "") != nil || r.Gauge("b", "") != nil ||
		r.Histogram("c", "", nil) != nil || r.LabeledCounter("d", "", "l") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.CounterFunc("e", "", func() uint64 { return 1 })
	r.GaugeFunc("f", "", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry render: %q, %v", sb.String(), err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("widgets_total", "widgets")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	// Idempotent re-registration returns the same counter.
	if r.Counter("widgets_total", "widgets") != c {
		t.Fatal("re-registration must return the existing counter")
	}
	g := r.Gauge("level", "level")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // all in the first bucket
	}
	if got := h.Quantile(0.5); got < 0 || got > 1 {
		t.Fatalf("p50 = %v, want within first bucket [0,1]", got)
	}
	h2 := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h2.Observe(0.5)
	}
	for i := 0; i < 50; i++ {
		h2.Observe(3) // (2,4] bucket
	}
	p95 := h2.Quantile(0.95)
	if p95 < 2 || p95 > 4 {
		t.Fatalf("p95 = %v, want within (2,4]", p95)
	}
	if h2.Count() != 100 {
		t.Fatalf("count = %d, want 100", h2.Count())
	}
	if want := 50*0.5 + 50*3.0; h2.Sum() != want {
		t.Fatalf("sum = %v, want %v", h2.Sum(), want)
	}
	// Overflow saturates at the last bound.
	h3 := NewHistogram([]float64{1})
	h3.Observe(100)
	if got := h3.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want last bound 1", got)
	}
	// Empty histogram.
	if NewHistogram(DurationBuckets()).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

// TestHistogramQuantileBoundary pins the exact-rank case at a bucket's upper
// edge: with 7 of 100 observations in the first bucket, q=0.07 has its rank
// exactly at that bucket's boundary. The target 0.07×100 evaluates to
// 7.000000000000001 in IEEE754, which used to push the scan past the first
// bucket (7 >= 7.000000000000001 is false) and report ≈2.0 instead of 1.0.
func TestHistogramQuantileBoundary(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 7; i++ {
		h.Observe(1.0) // on the first bucket's upper edge (v <= 1)
	}
	for i := 0; i < 93; i++ {
		h.Observe(4.0)
	}
	if got := h.Quantile(0.07); got != 1.0 {
		t.Fatalf("Quantile(0.07) = %v, want exactly 1.0 (the first bucket's upper edge)", got)
	}
	// The neighbouring quantiles still land where they should.
	if got := h.Quantile(0.06); got < 0 || got > 1 {
		t.Fatalf("Quantile(0.06) = %v, want within the first bucket [0,1]", got)
	}
	if got := h.Quantile(0.5); got <= 2 || got > 4 {
		t.Fatalf("Quantile(0.5) = %v, want within (2,4]", got)
	}
}

func TestPrometheusRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("node_accesses_total", "nodes visited").Add(7)
	r.Gauge("workers", "worker count").Set(4)
	r.Histogram("latency_seconds", "query latency", []float64{0.1, 1}).Observe(0.05)
	r.LabeledCounter("degradations_total", "degradations by reason", "reason").With("deadline").Add(3)
	r.CounterFunc("fn_total", "read-through", func() uint64 { return 11 })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP node_accesses_total nodes visited",
		"# TYPE node_accesses_total counter",
		"node_accesses_total 7",
		"workers 4",
		"latency_seconds_bucket{le=\"0.1\"} 1",
		"latency_seconds_bucket{le=\"+Inf\"} 1",
		"latency_seconds_sum 0.05",
		"latency_seconds_count 1",
		"degradations_total{reason=\"deadline\"} 3",
		"fn_total 11",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONRendering(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.LabeledCounter("b_total", "", "k").With("v").Inc()
	r.Histogram("h_seconds", "", []float64{1}).Observe(0.5)

	v := r.JSONValue()
	if v["a_total"] != uint64(2) {
		t.Fatalf("a_total = %v", v["a_total"])
	}
	if m := v["b_total"].(map[string]uint64); m["v"] != 1 {
		t.Fatalf("b_total = %v", m)
	}
	if s := v["h_seconds"].(HistogramSnapshot); s.Count != 1 || s.Sum != 0.5 {
		t.Fatalf("h_seconds = %+v", s)
	}
}

func TestDebugMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("mux_probe_total", "probe").Add(9)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics"); !strings.Contains(out, "mux_probe_total 9") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/metrics.json"); !strings.Contains(out, "\"mux_probe_total\": 9") {
		t.Fatalf("/metrics.json missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Fatalf("/debug/vars not serving expvar:\n%.200s", out)
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Fatalf("/debug/pprof/ not serving index:\n%.200s", out)
	}
}

func TestConcurrentMetricUpdatesAndRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", nil)
	l := r.LabeledCounter("conc_labeled_total", "", "k")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%10) / 1000)
				l.With("a").Inc()
			}
		}(w)
	}
	// Render concurrently with the writers.
	for i := 0; i < 10; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if l.Values()["a"] != workers*per {
		t.Fatalf("labeled = %d, want %d", l.Values()["a"], workers*per)
	}
}

func TestCostSnapshotDeltas(t *testing.T) {
	before := Cost()
	AddDominanceTests(3)
	AddDSLComputations(1)
	AddWindowQueries(2)
	AddSafeRegionVertices(4)
	AddCandidateEvaluations(5)
	AddCacheStale(1)
	AddDegradations(1)
	AddCancellations(1)
	// Negative/zero increments are ignored.
	AddDominanceTests(0)
	AddDominanceTests(-7)
	d := Cost().Sub(before)
	want := CostSnapshot{
		DominanceTests: 3, DSLComputations: 1, WindowQueries: 2,
		SafeRegionVertices: 4, CandidateEvaluations: 5, CacheStale: 1,
		Degradations: 1, Cancellations: 1,
	}
	if d != want {
		t.Fatalf("delta = %+v, want %+v", d, want)
	}
}

func TestRegisterCost(t *testing.T) {
	r := NewRegistry()
	RegisterCost(r)
	base := Cost()
	AddDominanceTests(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "dominance_tests_total") {
		t.Fatalf("cost counters not registered:\n%s", sb.String())
	}
	if got := Cost().Sub(base).DominanceTests; got != 2 {
		t.Fatalf("dominance delta = %d, want 2", got)
	}
	RegisterCost(nil) // must not panic
}

func TestExecMetricsContextRoundtrip(t *testing.T) {
	if ExecFrom(context.Background()) != nil || ExecFrom(nil) != nil {
		t.Fatal("plain/nil context must carry no exec metrics")
	}
	m := NewExecMetrics(nil)
	ctx := WithExecMetrics(context.Background(), m)
	if ExecFrom(ctx) != m {
		t.Fatal("exec metrics must round-trip through context")
	}
	// Registry-less metrics are all nil but usable.
	m.Fanouts.Inc()
	m.QueueWait.Observe(0.1)
}

func TestClockMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Fatalf("clock went backwards: %d then %d", a, b)
	}
	if Since(a) < 0 || SecondsSince(a) < 0 {
		t.Fatal("Since must be non-negative")
	}
}
