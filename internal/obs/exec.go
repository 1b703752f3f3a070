package obs

import "context"

// ExecMetrics instruments the internal/exec worker pool: how often work fans
// out, how many jobs run inline vs on workers, how long jobs queue before a
// worker picks them up (the utilisation signal: growing queue wait with idle
// jobs means workers are the bottleneck), and how many cooperative
// cancellation checkpoints fired inside the pool. A nil *ExecMetrics is valid
// — the pool checks for nil once per fan-out, and all counter methods are
// nil-safe anyway.
type ExecMetrics struct {
	// Fanouts counts ForEach invocations that actually spawned workers.
	Fanouts *Counter
	// InlineRuns counts ForEach invocations that ran sequentially inline.
	InlineRuns *Counter
	// Jobs counts individual jobs executed (inline or on a worker).
	Jobs *Counter
	// WorkersSpawned counts worker goroutines started.
	WorkersSpawned *Counter
	// Checkpoints counts cancellation checkpoints fired inside pool workers
	// and inline loops (summed from each checker's visit count).
	Checkpoints *Counter
	// QueueWait observes seconds between a fan-out's start and each job's
	// claim by a worker.
	QueueWait *Histogram
	// JobDuration observes seconds each job spent executing.
	JobDuration *Histogram
}

// NewExecMetrics registers the worker-pool metrics on r (nil r yields a
// usable all-no-op ExecMetrics).
func NewExecMetrics(r *Registry) *ExecMetrics {
	return &ExecMetrics{
		Fanouts:        r.Counter("exec_fanouts_total", "parallel fan-outs through the worker pool"),
		InlineRuns:     r.Counter("exec_inline_runs_total", "ForEach invocations that ran sequentially inline"),
		Jobs:           r.Counter("exec_jobs_total", "jobs executed by ForEach (inline or pooled)"),
		WorkersSpawned: r.Counter("exec_workers_spawned_total", "worker goroutines started"),
		Checkpoints:    r.Counter("exec_checkpoints_total", "cancellation checkpoints fired inside ForEach"),
		QueueWait:      r.Histogram("exec_queue_wait_seconds", "job wait between fan-out start and worker claim", nil),
		JobDuration:    r.Histogram("exec_job_duration_seconds", "job execution time", nil),
	}
}

type execKey struct{}

// WithExecMetrics returns a context carrying m; exec.ForEach picks it up via
// ExecFrom on every invocation reached through that context.
func WithExecMetrics(ctx context.Context, m *ExecMetrics) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if m == nil {
		return ctx
	}
	return context.WithValue(ctx, execKey{}, m)
}

// ExecFrom extracts the pool metrics carried by ctx, or nil.
func ExecFrom(ctx context.Context) *ExecMetrics {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(execKey{}).(*ExecMetrics)
	return m
}
