// Package flight is the always-on query flight recorder: a bounded,
// lock-cheap ledger that gives every request — HTTP handler, CLI command or
// embedded-DB call — one QueryRecord with the attribution the aggregate
// counters of internal/obs cannot provide: which rungs of the degradation
// ladder ran and why the ladder fell through, which paper cost counters this
// query paid (dominance tests, window queries, safe-region vertices, ...),
// how long it queued in admission, whether it hit the cache, and — when it
// mutated — which WAL sequence acknowledged it.
//
// The ledger is three structures:
//
//   - a fixed-size ring of finished QueryRecords (Recent), overwritten
//     oldest-first, so memory is bounded no matter the request rate;
//   - an in-flight table (InFlight) of currently-executing queries, with the
//     phase read live from the query's explain.Builder, the recorder its
//     plan is built on;
//   - a tail sampler that retains the full phase/event dump only
//     for the records worth keeping: slow (relative to the live p99 of the
//     serving latency histogram), errored, shed, degraded, or breaker-
//     skipped, plus a deterministic 1-in-N head sample for baselines.
//
// Sampled records can additionally be appended to a SlowLog (schema-
// versioned JSON lines, rotated by size), and an SLOTracker turns per-op
// latency/error objectives into multi-window (5m/1h) burn-rate gauges.
//
// Everything is nil-safe in the internal/obs tradition: a nil *Ledger
// returns a nil *Active whose every method is a no-op, so disabled
// configurations pay only a nil check per call site. This package never
// reads the wall clock (`make vet-obs` enforces it): timestamps come from
// obs.Now, and Config.Epoch maps them back to wall time for log output.
package flight

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/obs"
)

// SchemaVersion stamps every QueryRecord (and therefore every slow-log
// line). Bump it when a field changes meaning, not when fields are added.
const SchemaVersion = 1

// Outcome values of a finished record. The server maps HTTP statuses onto
// these; ClassifyErr maps plain errors.
const (
	OutcomeOK          = "ok"
	OutcomeError       = "error"
	OutcomeShed        = "shed"
	OutcomeDeadline    = "deadline"
	OutcomeCanceled    = "canceled"
	OutcomeUnavailable = "unavailable"
	// OutcomeReadOnly marks a mutation refused because storage is degraded:
	// distinguishable from overload sheds in the ledger, and it counts
	// against the mutation SLO (the service failed to accept a write).
	OutcomeReadOnly = "readonly"
)

// Sample reasons, in decision priority order: the first matching reason is
// recorded. "head" marks the deterministic 1-in-N baseline sample.
const (
	SampleError    = "error"
	SampleShed     = "shed"
	SampleDegraded = "degraded"
	SampleBreaker  = "breaker"
	SampleSlow     = "slow"
	SampleHead     = "head"
)

// RungAttempt is one execution of a degradation-ladder rung, reconstructed
// from the query trace's "rung.<name>" spans.
type RungAttempt struct {
	Rung       string  `json:"rung"`
	DurationMS float64 `json:"duration_ms"`
}

// TraceSpan is one retained span of a tail-sampled trace.
type TraceSpan struct {
	Name       string  `json:"name"`
	StartNS    int64   `json:"start_ns"`
	DurationMS float64 `json:"duration_ms"`
}

// TraceEvent is one retained event of a tail-sampled trace.
type TraceEvent struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	AtNS   int64  `json:"at_ns"`
}

// QueryRecord is the flight-recorder entry for one request. The same schema
// is produced by the HTTP server's ledger, the embedded DB's ledger and
// `cmd/whynot -stats`, so CLI and server debugging output are diffable.
//
// Params holds the raw request parameters (query point coordinates,
// customer IDs) and is redacted by default wherever records are rendered;
// ParamsDigest always survives, so identical queries can be correlated
// without exposing data points.
type QueryRecord struct {
	Schema       int    `json:"schema_version"`
	ID           uint64 `json:"id"`
	Source       string `json:"source"` // "http", "cli" or "db"
	Op           string `json:"op"`
	ParamsDigest string `json:"params_digest,omitempty"`
	Params       string `json:"params,omitempty"`
	TS           string `json:"ts,omitempty"` // wall time, only with Config.Epoch
	StartNS      int64  `json:"start_ns"`

	DurationMS  float64 `json:"duration_ms"`
	Outcome     string  `json:"outcome"`
	Error       string  `json:"error,omitempty"`
	Admission   string  `json:"admission"` // "admitted", "shed:<reason>", "none"
	QueueWaitMS float64 `json:"queue_wait_ms"`

	Rung           string        `json:"rung,omitempty"`
	Degraded       bool          `json:"degraded,omitempty"`
	DegradeReasons []string      `json:"degrade_reasons,omitempty"`
	Attempts       []RungAttempt `json:"rung_attempts,omitempty"`

	Cost        obs.CostSnapshot `json:"cost"`
	CacheHits   uint64           `json:"cache_hits"`
	CacheMisses uint64           `json:"cache_misses"`
	WALSeq      uint64           `json:"wal_seq,omitempty"`
	SnapshotSeq uint64           `json:"snapshot_seq,omitempty"`
	Workers     int              `json:"workers,omitempty"`

	Sampled      bool   `json:"trace_sampled"`
	SampleReason string `json:"sample_reason,omitempty"`
	// Truncated marks a record whose trace overflowed its span or event
	// budget: the retained dump is incomplete, and rung attempts or degrade
	// reasons reconstructed from it may be missing entries.
	Truncated bool         `json:"trace_truncated,omitempty"`
	Trace     []TraceSpan  `json:"trace,omitempty"`
	Events    []TraceEvent `json:"trace_events,omitempty"`
}

// Digest hashes a parameter string into a short stable token (FNV-1a 64,
// hex). It is what identifies "the same query" across records once the raw
// parameters are redacted.
func Digest(params string) string {
	if params == "" {
		return ""
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(params))
	return fmt.Sprintf("%016x", h.Sum64())
}

// ClassifyErr maps a plain query error onto an outcome value: nil is OK,
// context deadline/cancellation are their own outcomes, anything else is an
// error. Callers with richer information (HTTP status, shed decisions)
// should classify themselves and only fall back to this.
func ClassifyErr(err error) string {
	switch {
	case err == nil:
		return OutcomeOK
	case errors.Is(err, context.DeadlineExceeded):
		return OutcomeDeadline
	case errors.Is(err, context.Canceled):
		return OutcomeCanceled
	default:
		return OutcomeError
	}
}
