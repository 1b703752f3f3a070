// Command whynotbench is the repository benchmark. It boots the why-not
// query service (internal/server) in-process with the cmd/serve defaults,
// drives POST /v1/whynot and the admin mutation endpoints over loopback from
// two closed-loop clients, checks a seeded sample of the answers against a
// fresh sequential database, and prints one JSON result line.
//
// With --trace 1 it reports per-layer numbers instead: the same seeded
// requests are replayed through the library calls the handler makes, with a
// span around each call, and the exact rung's steps are replayed once more
// through the lower layers' public functions.
//
// Run it from the repository root through the wrapper that builds it:
//
//	bash whynotbench/run.sh --workload cold_2d --seed 1 --seconds 16 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one traffic mix. Every field is fixed by the workload name;
// only the seed varies between runs.
type workload struct {
	name string
	kind string // dataset generator kind
	n    int
	dims int
	// hot > 0 cycles the queries over that many fixed query points; 0 draws
	// a fresh query point per request.
	hot int
	// mutate is the share of operations that are inserts or deletes.
	mutate float64
	// durable serves from a write-ahead log with fsync "always".
	durable bool
	// warmup runs the clients untimed before the window: caches fill and, on
	// degrade_3d, the exact rung's breaker reaches its steady open state.
	warmup time.Duration
	// replay is the traced run's request count; decompose is how many of
	// them also get the exact rung's steps replayed through the lower layers.
	replay, decompose int
	// oracle is how many checked answers are also checked against the
	// brute-force oracle.
	oracle int
}

var workloads = []workload{
	{name: "cold_2d", kind: "CarDB", n: 20_000, dims: 2, warmup: 2 * time.Second, replay: 48, decompose: 48, oracle: 2},
	{name: "hot_2d", kind: "CarDB", n: 20_000, dims: 2, hot: 16, warmup: 2 * time.Second, replay: 64, decompose: 64},
	{name: "write_mix", kind: "CarDB", n: 20_000, dims: 2, hot: 16, mutate: 0.1, durable: true, warmup: 2 * time.Second, replay: 64, decompose: 64},
	{name: "degrade_3d", kind: "UN", n: 2_000, dims: 3, warmup: 8 * time.Second, replay: 64, decompose: 3},
}

// The server configuration the benchmark pins: the cmd/serve defaults.
const (
	clients     = 2
	cacheSize   = 4096
	rungTimeout = 2 * time.Second
	// The untraced run sets up at least setupRepeats times and for at least
	// two seconds, at most maxSetups times, and reports the median.
	setupRepeats = 7
	maxSetups    = 40
	checkSample  = 16 // answers recomputed per run
	// exact_share and failed_share are taken over the first exactBase
	// answers and failedBase operations of the window, so that their base
	// does not grow with throughput.
	exactBase  = 256
	failedBase = 512
	// sliceLen is one probe cycle of a tripped breaker: its open period plus
	// the rung timeout the probe runs into.
	sliceLen = 4 * time.Second
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: cold_2d, hot_2d, write_mix or degrade_3d")
	seed := flag.Int64("seed", 1, "workload seed: dataset, queries and mutations derive from it")
	seconds := flag.Int("seconds", 16, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "whynotbench: need --workload cold_2d|hot_2d|write_mix|degrade_3d, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	out := filepath.Join(".bench_build", "whynotbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal(err)
	}
	b := &bench{w: *w, seed: *seed, window: time.Duration(*seconds) * time.Second, out: out}
	var res result
	var err error
	if *trace == 1 {
		res, err = b.runTraced()
	} else {
		res, err = b.runEndToEnd()
	}
	if err != nil {
		fatal(err)
	}
	b.report["config"] = serverConfigReport(b.w)
	rep, err := json.Marshal(map[string]any{"report": b.report})
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(out, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := os.WriteFile(path, rep, 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(string(rep))
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "whynotbench:", err)
	os.Exit(1)
}

// serverConfigReport records the server settings every run uses, so a change
// of a default reads as a configuration change rather than a speed change.
func serverConfigReport(w workload) map[string]any {
	fsync := "none (memory-only)"
	if w.durable {
		fsync = "always"
	}
	return map[string]any{
		"workers":         runtime.GOMAXPROCS(0),
		"cache_entries":   cacheSize,
		"rung_timeout_ms": rungTimeout.Milliseconds(),
		"fsync":           fsync,
		"clients":         clients,
		"approx_store":    false,
	}
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs; 0 when empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median averages the two middle values of an even-sized sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
