// Command serve runs the overload-safe why-not query service: the HTTP JSON
// API of internal/server with admission control, per-rung circuit breakers,
// hot-swappable datasets, and graceful drain on SIGTERM/SIGINT.
//
// Endpoints (see README "Serving" for curl examples):
//
//	POST /v1/whynot        — why-not question for one customer (MWQ ladder)
//	POST /v1/rskyline      — reverse skyline of a query point
//	GET  /v1/healthz       — liveness
//	GET  /v1/readyz        — readiness (flips not-ready while draining)
//	POST /v1/admin/reload  — atomically hot-swap the serving dataset
//	POST /v1/admin/insert  — add one item (WAL-committed when -wal-dir is set)
//	POST /v1/admin/delete  — remove one item (WAL-committed when -wal-dir is set)
//	GET  /v1/admin/status  — admission/breaker/snapshot/WAL/flight/SLO introspection
//	GET  /v1/debug/queries — in-flight inspector + recent flight records
//	GET  /metrics          — Prometheus text format (also /metrics.json)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs/flight"
	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		csv        = fs.String("csv", "", "CSV dataset path (id,dim0,dim1,...); empty generates a synthetic dataset")
		kind       = fs.String("kind", "UN", "synthetic dataset kind (UN, CO, AC, CarDB) when -csv is empty")
		n          = fs.Int("n", 10_000, "synthetic dataset size")
		dims       = fs.Int("dims", 2, "synthetic dataset dimensionality")
		seed       = fs.Int64("seed", 2013, "synthetic dataset seed")
		store      = fs.Bool("store", false, "precompute the approximate safe-region store (enables the approx rung)")
		storeK     = fs.Int("storek", 10, "approximate-store sampling constant")
		workers    = fs.Int("workers", -1, "per-query parallelism: 0 or 1 sequential, n > 1 fans per-customer loops out over n goroutines, < 0 GOMAXPROCS")
		cacheSize  = fs.Int("cache", 4096, "per-customer memoisation cache size (0 disables)")
		maxConc    = fs.Int("max-concurrent", 0, "admission tokens (0 = 2x GOMAXPROCS)")
		maxQueue   = fs.Int("max-queue", 0, "admission wait-queue bound (0 = 8x tokens)")
		rungTO     = fs.Duration("rung-timeout", 2*time.Second, "per-rung budget of the degradation ladder")
		reqTO      = fs.Duration("request-timeout", 10*time.Second, "end-to-end request deadline cap")
		drainTO    = fs.Duration("drain-timeout", 20*time.Second, "graceful-drain budget on SIGTERM before in-flight queries are cancelled")
		breakerFor = fs.Duration("breaker-open", 2*time.Second, "circuit-breaker open period before probing")
		walDir     = fs.String("wal-dir", "", "durability directory for the WAL and snapshots; empty serves memory-only")
		fsync      = fs.String("fsync", "always", "WAL fsync policy: always, interval, or never")
		fsyncEvery = fs.Duration("fsync-interval", 50*time.Millisecond, "max unsynced window under -fsync=interval")
		walSegment = fs.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
		probeMin   = fs.Duration("reopen-probe-min", 100*time.Millisecond, "initial backoff of the storage reopen probe after a disk fault")
		probeMax   = fs.Duration("reopen-probe-max", 5*time.Second, "backoff cap of the storage reopen probe (also the Retry-After on read-only refusals)")
		scrubEvery = fs.Duration("scrub-every", 0, "background WAL integrity-scrub period (0 disables)")
		scrubRate  = fs.Int64("scrub-rate", 8<<20, "scrubber read-rate limit in bytes/s (0 = unlimited)")
		flightSize = fs.Int("flight-size", 0, "flight-recorder ring size (0 = default 256, negative disables the ledger)")
		slowlog    = fs.String("slowlog", "", "slow-query log path: sampled flight records as JSON lines (empty disables)")
		slowlogMax = fs.Int64("slowlog-max-bytes", 0, "slow-query log rotation threshold (0 = default 8 MiB)")
		sloSpec    = fs.String("slo", "", "latency/error objectives as op:latency:target%, comma-separated (e.g. whynot:500ms:99%,*:2s:99.9%)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	slos, err := flight.ParseObjectives(*sloSpec)
	if err != nil {
		return err
	}

	cfg := server.Config{
		Workers:         *workers,
		CacheSize:       *cacheSize,
		Admission:       server.AdmissionConfig{MaxConcurrent: *maxConc, MaxQueue: *maxQueue},
		Breaker:         server.BreakerConfig{OpenFor: *breakerFor},
		RungTimeout:     *rungTO,
		RequestTimeout:  *reqTO,
		FlightSize:      *flightSize,
		SlowlogPath:     *slowlog,
		SlowlogMaxBytes: *slowlogMax,
		SLOs:            slos,
	}
	if *csv != "" {
		cfg.Dataset = server.DatasetSpec{Path: *csv, BuildStore: *store, K: *storeK}
	} else {
		cfg.Dataset = server.DatasetSpec{
			Generate:   &server.GenerateSpec{Kind: *kind, N: *n, Dims: *dims, Seed: *seed},
			BuildStore: *store,
			K:          *storeK,
		}
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		cfg.Durability = &wal.Options{
			Dir:          *walDir,
			Policy:       policy,
			Interval:     *fsyncEvery,
			SegmentBytes: *walSegment,
		}
		cfg.ReopenProbeMin = *probeMin
		cfg.ReopenProbeMax = *probeMax
		cfg.ScrubEvery = *scrubEvery
		cfg.ScrubBytesPerSec = *scrubRate
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	s, err := server.New(ctx, cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	snap := s.Snapshot()
	durability := "memory-only"
	if *walDir != "" {
		durability = fmt.Sprintf("wal=%s fsync=%s", *walDir, *fsync)
	}
	fmt.Fprintf(out, "serving %s (%d items, %d dims, store=%v, %s) on http://%s\n",
		snap.Name, len(snap.Items), snap.DB.Dims(), snap.Store != nil, durability, ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(out, "signal received; draining for up to %s\n", *drainTO)
	shutCtx, cancelShut := context.WithTimeout(context.Background(), *drainTO)
	defer cancelShut()
	if err := s.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(out, "drain deadline exceeded; remaining requests were cancelled\n")
	}
	return <-serveErr
}
