package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro"
	"repro/internal/obs/flight"
	"repro/internal/wal"
)

// Storage degraded mode: the serving-layer half of the WAL's fault story.
//
// When the disk misbehaves — an append EIO, a failed fsync, ENOSPC during
// rotation, scrubber-detected rot — the WAL parks itself with a typed
// StorageError and the server flips to read-only: mutation and reload
// requests answer 503 with an honest Retry-After while queries keep serving
// the last published snapshot. A supervised probe (capped exponential
// backoff) retries wal.Reopen until the disk recovers, then republishes any
// mutation that was durably logged but never made it into a snapshot — the
// same pending-publish state that used to permanently poison the mutation
// path — and the server returns to writable with no operator action.

// errStorageDegraded marks a mutation/admin request refused because the WAL
// is degraded. finishRecord maps it to the "readonly" flight outcome.
var errStorageDegraded = errors.New("storage degraded")

// errWALClosed marks a mutation refused because the log is already closed
// (shutdown path).
var errWALClosed = errors.New("write-ahead log is closed")

// pendingPublish holds a durably-logged mutation whose snapshot failed to
// build: serving state lags the WAL by exactly this item set. The probe
// retries the publish; until it succeeds further mutations are refused so
// WAL order and publish order cannot diverge.
type pendingPublish struct {
	items []repro.Item
	seq   uint64 // WAL seq of the logged-but-unpublished mutation
	name  string // dataset name for the rebuilt snapshot
}

// storageState is the lock-free health summary readyz/status read.
type storageState struct {
	Degraded bool
	Reason   string // "io", "corruption" or "publish"
	Detail   string
}

func (st storageState) String() string {
	if !st.Degraded {
		return "ok"
	}
	return fmt.Sprintf("degraded (%s)", st.Reason)
}

// updateStorageLocked recomputes the degraded condition, publishes it to the
// lock-free state and the storage_degraded gauge family. Called under mutMu
// by every site that can change the condition.
func (s *Server) updateStorageLocked() {
	var st storageState
	if s.wal != nil {
		if se := s.wal.Failed(); se != nil {
			st = storageState{Degraded: true, Reason: se.Kind.String(), Detail: se.Error()}
		}
	}
	if !st.Degraded && s.pendingPub != nil {
		st = storageState{Degraded: true, Reason: "publish",
			Detail: fmt.Sprintf("wal seq %d logged but not yet published", s.pendingPub.seq)}
	}
	s.storageSt.Store(st)
	for _, reason := range []string{"io", "corruption", "publish"} {
		v := 0.0
		if st.Degraded && st.Reason == reason {
			v = 1
		}
		s.metrics.StorageDegraded.With(reason).Set(v)
	}
}

// storageState returns the current health summary without taking locks.
func (s *Server) storageState() storageState {
	st, _ := s.storageSt.Load().(storageState)
	return st
}

// noteStorageFault kicks the reopen probe. Safe from any goroutine; a probe
// already pending absorbs the signal.
func (s *Server) noteStorageFault() {
	if s.storageNotify == nil {
		return
	}
	select {
	case s.storageNotify <- struct{}{}:
	default:
	}
}

// storageRetryAfter is the Retry-After the read-only refusals advertise: the
// probe's backoff cap, the longest a recovered disk goes unnoticed.
func (s *Server) storageRetryAfter() time.Duration {
	d := s.cfg.ReopenProbeMax
	if d < time.Second {
		d = time.Second
	}
	return d
}

// writeStorageUnavailable answers a mutation/admin request refused by the
// degraded state: 503 with Retry-After, distinguishable from overload sheds.
func (s *Server) writeStorageUnavailable(w http.ResponseWriter, msg string) {
	retry := int((s.storageRetryAfter() + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":         msg,
		"reason":        "storage_degraded",
		"retry_after_s": retry,
	})
}

// storageProbeLoop is the supervisor: woken by noteStorageFault, it retries
// repair with capped exponential backoff until the server is healthy again,
// then sleeps until the next fault.
func (s *Server) storageProbeLoop() {
	minDelay, maxDelay := s.cfg.ReopenProbeMin, s.cfg.ReopenProbeMax
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.storageNotify:
		}
		delay := minDelay
		for !s.storageProbeOnce() {
			select {
			case <-s.baseCtx.Done():
				return
			case <-time.After(delay):
			}
			delay *= 2
			if delay > maxDelay {
				delay = maxDelay
			}
		}
	}
}

// storageProbeOnce attempts one full repair pass and reports whether the
// server is healthy afterwards: re-arm the WAL if degraded (for corruption,
// checkpoint first so the salvage has a covering snapshot to quarantine
// against), then retry any pending publish.
func (s *Server) storageProbeOnce() bool {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	if s.walClosed {
		s.updateStorageLocked()
		return true
	}
	healthy := true
	if s.wal != nil {
		if se := s.wal.Failed(); se != nil {
			s.metrics.ReopenProbes.Inc()
			if se.Kind == wal.KindCorruption {
				// Best effort: a fresh snapshot of the correct live state is
				// what lets Reopen quarantine the rotten file. Reopen decides
				// whether coverage is now sufficient.
				_ = s.wal.Checkpoint(s.checkpointItemsLocked(), s.wal.LastSeq())
			}
			if err := s.wal.Reopen(); err != nil {
				healthy = false
			}
		}
	}
	if healthy && s.pendingPub != nil {
		// The WAL is fine (or absent); what lags is the serving snapshot.
		// Rebuild it from the logged item set — success realigns publish
		// order with WAL order, preserving the no-divergence guarantee.
		snap, err := snapshotFromItems(context.Background(), s.pendingPub.items,
			s.pendingPub.name, false, 0, s.dbOptions())
		if err != nil {
			healthy = false
		} else {
			s.publishLocked(snap)
			s.metrics.Mutations.Inc()
			s.pendingPub = nil
		}
	}
	s.updateStorageLocked()
	return healthy
}

// checkpointItemsLocked is the item set a salvage checkpoint must persist:
// the pending (logged-but-unpublished) set when one exists — checkpointing
// the stale serving set at LastSeq would silently discard the pending
// record — otherwise the serving snapshot's items.
func (s *Server) checkpointItemsLocked() []repro.Item {
	if s.pendingPub != nil {
		return s.pendingPub.items
	}
	if snap := s.snap.Load(); snap != nil {
		return snap.Items
	}
	return nil
}

// scrubLoop runs the background integrity scrubber at the configured period.
func (s *Server) scrubLoop() {
	t := time.NewTicker(s.cfg.ScrubEvery)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		_, _ = s.RunScrub()
	}
}

// RunScrub executes one WAL integrity-scrub pass (rate-limited, salvage
// escalation wired to a checkpoint of the live state) and records it in the
// flight ledger under op "scrub". Exposed for the chaos harness and tests;
// the background loop calls it on its ticker.
func (s *Server) RunScrub() (wal.ScrubReport, error) {
	if s.wal == nil {
		return wal.ScrubReport{}, errors.New("server: no write-ahead log")
	}
	var act *flight.Active
	if s.flight != nil {
		act = s.flight.Begin("scrub", "background", "", 0, nil)
		act.SetAdmission("bypass")
	}
	rep, err := s.wal.Scrub(wal.ScrubConfig{
		BytesPerSec: s.cfg.ScrubBytesPerSec,
		Checkpoint: func() error {
			s.mutMu.Lock()
			defer s.mutMu.Unlock()
			return s.wal.Checkpoint(s.checkpointItemsLocked(), s.wal.LastSeq())
		},
	})
	s.lastScrub.Store(&rep)
	if act != nil {
		outcome, msg := flight.OutcomeOK, ""
		if err != nil {
			outcome, msg = flight.OutcomeError, err.Error()
		}
		act.Finish(outcome, msg)
	}
	if rep.Degraded || err != nil {
		s.mutMu.Lock()
		s.updateStorageLocked()
		s.mutMu.Unlock()
		s.noteStorageFault()
	}
	return rep, err
}
