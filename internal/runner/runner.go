// Package runner is the campaign orchestration layer: it executes an
// ordered list of independent jobs on a bounded worker pool and fixes,
// by construction, the failure modes of the bare-goroutine fan-out it
// replaced — nondeterministic error selection, no way to stop a failing
// campaign, and panicking workers deadlocking the pool.
//
// Guarantees:
//
//   - Deterministic outputs. Results are returned in submission order,
//     and the aggregated *CampaignError lists failures in submission
//     order — never in completion order — so the same failing campaign
//     produces a byte-identical error string run after run.
//   - Panic isolation. Each attempt runs in its own goroutine behind a
//     recover; a panicking job surfaces as a typed *RunPanicError
//     carrying the job key and stack instead of killing the process or
//     wedging the pool.
//   - Cancellation. In fail-fast mode the first failure stops
//     dispatching further jobs and aborts waiting on in-flight ones;
//     the default is run-to-completion, which observes every failure
//     (and is what makes the aggregated error fully deterministic).
//   - Deadlines and retry. A per-attempt wall-clock deadline surfaces
//     as a typed *DeadlineError, final by default (the abandoned attempt
//     keeps running). Other retryable failures are retried up to
//     Config.Retries times with deterministic exponential backoff (no
//     jitter: backoff = Backoff << attempt).
//   - Checkpoint/resume. With a Ledger attached, every completed run is
//     appended (and synced) to a JSONL file as it finishes; a resumed
//     campaign satisfies already-completed (key, config-hash) jobs from
//     the ledger without re-running them. Appended entries also satisfy
//     later campaigns on the same open ledger in the same process.
//
// The runner is harness-level code, not simulation code: it is the one
// sanctioned home for goroutines and wall-clock reads under the
// determinism analyzer (see DESIGN.md §10), and nothing it measures
// with the wall clock ever feeds back into simulated state.
package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coolpim/internal/telemetry"
)

// Job is one unit of campaign work. Key must be unique within a
// campaign; it names the job in errors, hooks and the ledger.
type Job[R any] struct {
	Key string
	Run func(ctx context.Context) (R, error)
	// Done, if non-nil, is invoked on the caller's goroutine as each
	// final outcome is recorded — in completion order, not submission
	// order (ledger-satisfied jobs are delivered first, in submission
	// order, before any live run completes). Under FailFast, a failed
	// job's Done runs after the campaign context is canceled, so a job
	// that waits on another's Done sees the cancellation first.
	Done func(Result[R])
	// Flight, if non-nil, is the job's flight recorder: when the job's
	// final outcome is a *RunPanicError or *DeadlineError and
	// Config.FlightDir is set, the ring is dumped to
	// <FlightDir>/<key>.flight.jsonl so the failed cell ships its own
	// evidence. The job's Run function is responsible for wiring the
	// recorder into whatever it executes (e.g. via telemetry.Flight).
	Flight *telemetry.FlightRecorder
}

// Result is one job's final outcome.
type Result[R any] struct {
	Key      string
	Value    R
	Err      error
	Attempts int
	// FromLedger marks a job satisfied from the resume ledger without
	// running (Attempts is 0).
	FromLedger bool
	// Wall is the total wall-clock time spent across all attempts.
	Wall time.Duration
	// FlightPath is the flight-recorder dump written for this job's
	// panic/deadline failure ("" if none was written).
	FlightPath string
}

// Config tunes one campaign.
type Config struct {
	// Parallel bounds the worker pool (< 1 means 1). Each job is
	// expected to be internally single-threaded and deterministic.
	Parallel int
	// Timeout is the per-attempt wall-clock deadline (0 = none). An
	// attempt that exceeds it fails with a *DeadlineError; its
	// goroutine is abandoned (the job function cannot be killed) and
	// its eventual result discarded.
	Timeout time.Duration
	// Retries is the number of additional attempts after the first for
	// failures Retryable accepts.
	Retries int
	// Backoff is the base delay between attempts; attempt n sleeps
	// Backoff << n. Deterministic by design — no jitter.
	Backoff time.Duration
	// FailFast cancels dispatch after the first failure. The default
	// (false) runs the campaign to completion, observing every failure.
	FailFast bool
	// Retryable classifies errors worth retrying. Nil accepts anything
	// except panics, deadlines and cancellation.
	Retryable func(error) bool
	// Ledger, if non-nil, checkpoints every completed run and satisfies
	// already-completed (Key, ConfigHash) jobs without re-running them.
	Ledger *Ledger
	// ConfigHash fingerprints everything outside the job key that
	// determines run outcomes (see HashConfig); ledger entries with a
	// different hash are ignored on resume.
	ConfigHash string
	// OnStart, if non-nil, is invoked from worker goroutines (hence
	// concurrently) as each attempt begins.
	OnStart func(key string, attempt int)
	// Telemetry, if non-nil, receives campaign metrics: per-job wall
	// timing, completion/failure/retry counters and a queue-depth
	// gauge. Its span tracer (if any) additionally records one
	// "runner.campaign" root span and one per-job-attempt child span
	// named by the job key, wall-stamped when a wall clock is attached.
	// One Telemetry per campaign — instruments are registered at
	// campaign start and names may not repeat.
	Telemetry *telemetry.Telemetry
	// FlightDir, if non-empty, is where panicking or deadline-exceeded
	// jobs with a Flight recorder dump their rings (see Job.Flight).
	FlightDir string

	// sleep is the backoff clock, injectable in tests. Nil means
	// time.Sleep.
	sleep func(time.Duration)

	// spans/campaignSpan carry the campaign span wiring into worker
	// goroutines; set by Run.
	spans        *telemetry.SpanTracer
	campaignSpan telemetry.SpanID
}

// RunPanicError is a job attempt that panicked, recovered at the
// harness boundary so one broken constructor cannot wedge the pool.
type RunPanicError struct {
	Key   string
	Value any    // the recovered value
	Stack []byte // debug.Stack at recovery
}

func (e *RunPanicError) Error() string {
	return fmt.Sprintf("job %s panicked: %v", e.Key, e.Value)
}

// DeadlineError is an attempt that exceeded Config.Timeout.
type DeadlineError struct {
	Key     string
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("job %s exceeded the %v per-attempt deadline", e.Key, e.Timeout)
}

// ErrNotRun marks jobs a stopped campaign never dispatched (fail-fast
// cancellation or an external context cancellation).
var ErrNotRun = errors.New("not run (campaign stopped before dispatch)")

// JobError pairs a failed job's key with its final error.
type JobError struct {
	Key string
	Err error
}

// CampaignError aggregates every job failure of a campaign in
// submission order — the error string does not depend on completion
// order. NotRun counts jobs that never produced an outcome (canceled
// before or during dispatch); it is informational and deliberately kept
// out of Error(), whose text must be identical across repeated runs of
// the same failing campaign even in fail-fast mode.
type CampaignError struct {
	Failures []JobError
	NotRun   int
}

func (e *CampaignError) Error() string {
	if len(e.Failures) == 0 {
		return fmt.Sprintf("campaign stopped with %d job(s) not run", e.NotRun)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d run(s) failed:", len(e.Failures))
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  %s: %v", f.Key, f.Err)
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/As.
func (e *CampaignError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}

// Run executes the jobs, Config.Parallel at a time, and returns one
// Result per job in submission order plus the aggregated campaign
// error (nil when every job succeeded).
func Run[R any](ctx context.Context, cfg Config, jobs []Job[R]) ([]Result[R], error) {
	if cfg.Parallel < 1 {
		cfg.Parallel = 1
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if j.Key == "" || j.Run == nil {
			return nil, fmt.Errorf("runner: job with empty key or nil Run")
		}
		if seen[j.Key] {
			return nil, fmt.Errorf("runner: duplicate job key %q", j.Key)
		}
		seen[j.Key] = true
	}

	// Resolve ledger hits first, in submission order.
	results := make([]Result[R], len(jobs))
	var pending []int
	for i, j := range jobs {
		results[i].Key = j.Key
		if e, ok := cfg.Ledger.Completed(j.Key, cfg.ConfigHash); ok {
			var v R
			if len(e.Result) == 0 {
				// Explicitly-Ok entry recorded payload-free: the value
				// serialized to JSON null (e.g. a nil slice or pointer),
				// which decodes to the zero value anyway.
				results[i].FromLedger = true
				continue
			}
			if err := json.Unmarshal(e.Result, &v); err == nil {
				results[i].Value = v
				results[i].FromLedger = true
				continue
			}
			// Undecodable payload (schema drift): fall through and re-run.
		}
		pending = append(pending, i)
	}
	m := newMetrics(cfg.Telemetry, len(pending))
	m.fromLedger(len(jobs) - len(pending))
	// Campaign span: simulated time is meaningless at the harness level,
	// so campaign/job spans sit at sim time 0 and carry their timing in
	// the wall stamps (when the caller attached a wall clock).
	var campSpan telemetry.Span
	if cfg.Telemetry.Enabled() {
		cfg.spans = cfg.Telemetry.Spans
		campSpan = cfg.spans.StartRoot(0, cfg.spans.Name("runner.campaign"))
		cfg.campaignSpan = campSpan.ID()
		defer campSpan.End(0)
	}
	for i := range jobs {
		if results[i].FromLedger && jobs[i].Done != nil {
			jobs[i].Done(results[i])
		}
	}

	var ledgerErr error
	if len(pending) > 0 {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()

		idxCh := make(chan int)
		outCh := make(chan int, cfg.Parallel)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Parallel; w++ {
			wg.Add(1)
			//coolpim:allow determinism harness worker pool: each job owns a whole engine and is internally deterministic; results are reassembled in submission order
			go func() {
				defer wg.Done()
				for i := range idxCh {
					results[i] = runJob(cctx, cfg, jobs[i])
					outCh <- i
				}
			}()
		}
		//coolpim:allow determinism harness feeder: dispatch order is the deterministic submission order; cancellation only stops dispatch
		go func() {
			for _, i := range pending {
				select {
				case idxCh <- i:
				case <-cctx.Done():
				}
				if cctx.Err() != nil {
					break
				}
			}
			close(idxCh)
			wg.Wait()
			close(outCh)
		}()

		// Collector: the single goroutine that owns ledger appends,
		// metrics updates and Done callbacks.
		for i := range outCh {
			if p := dumpFlight(cfg, jobs[i], results[i].Err); p != "" {
				results[i].FlightPath = p
			}
			r := results[i]
			m.jobDone(r.Err, r.Attempts, r.Wall)
			if cfg.Ledger != nil {
				if err := cfg.Ledger.Append(entryFor(r, cfg.ConfigHash)); err != nil && ledgerErr == nil {
					ledgerErr = err
				}
			}
			if r.Err != nil && cfg.FailFast {
				cancel()
			}
			if jobs[i].Done != nil {
				jobs[i].Done(r)
			}
		}
		for _, i := range pending {
			if results[i].Attempts == 0 {
				results[i].Err = ErrNotRun
			}
		}
	}

	if err := buildError(ctx, results); err != nil {
		return results, err
	}
	if ledgerErr != nil {
		return results, fmt.Errorf("runner: ledger append: %w", ledgerErr)
	}
	return results, nil
}

// dumpFlight writes a failed job's flight ring when the final error is
// a panic or deadline and dumping is configured. Best-effort: a dump
// that cannot be written is dropped (the job's real error must win).
func dumpFlight[R any](cfg Config, job Job[R], err error) string {
	if err == nil || cfg.FlightDir == "" || job.Flight == nil {
		return ""
	}
	var pe *RunPanicError
	var de *DeadlineError
	if !errors.As(err, &pe) && !errors.As(err, &de) {
		return ""
	}
	path := filepath.Join(cfg.FlightDir, sanitizeKey(job.Key)+".flight.jsonl")
	if dumpErr := job.Flight.DumpFile(path); dumpErr != nil {
		return ""
	}
	return path
}

// sanitizeKey maps a job key to a safe file-name stem.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, key)
}

// runJob drives one job through its attempt/retry loop.
func runJob[R any](ctx context.Context, cfg Config, job Job[R]) Result[R] {
	res := Result[R]{Key: job.Key}
	for attempt := 0; ; attempt++ {
		if cfg.OnStart != nil {
			cfg.OnStart(job.Key, attempt)
		}
		var sp telemetry.Span
		if st := cfg.spans; st != nil {
			sp = st.StartChild(0, st.Name(job.Key), cfg.campaignSpan)
		}
		v, wall, err := runAttempt(ctx, cfg, job)
		sp.End(0)
		res.Attempts = attempt + 1
		res.Value, res.Err = v, err
		res.Wall += wall
		if err == nil || attempt >= cfg.Retries || ctx.Err() != nil || !retryable(cfg, err) {
			return res
		}
		cfg.sleep(cfg.Backoff << attempt)
	}
}

// retryable applies Config.Retryable, defaulting to "anything except a
// panic, a deadline or a cancellation" — panics are deterministic bugs,
// a timed-out attempt is still running (a retry would run beside it,
// outgrowing the Parallel bound), and a canceled campaign must not
// resurrect work.
func retryable(cfg Config, err error) bool {
	if cfg.Retryable != nil {
		return cfg.Retryable(err)
	}
	var pe *RunPanicError
	var de *DeadlineError
	if errors.As(err, &pe) || errors.As(err, &de) {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// runAttempt executes one attempt in its own goroutine so a panic is
// recovered into a typed error and a deadline can abandon it. An
// abandoned attempt keeps running until the job function returns on its
// own (a goroutine cannot be killed); its result is discarded via the
// buffered channel.
func runAttempt[R any](ctx context.Context, cfg Config, job Job[R]) (R, time.Duration, error) {
	type outcome struct {
		v   R
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now() //coolpim:allow determinism harness wall-clock job timing; never feeds simulated state
	elapsed := func() time.Duration {
		return time.Since(start) //coolpim:allow determinism harness wall-clock job timing; never feeds simulated state
	}
	//coolpim:allow determinism harness attempt isolation: the goroutine exists to recover panics and enforce wall deadlines, not to reorder simulation work
	go func() {
		defer func() {
			if p := recover(); p != nil {
				var zero R
				ch <- outcome{zero, &RunPanicError{Key: job.Key, Value: p, Stack: debug.Stack()}}
			}
		}()
		v, err := job.Run(ctx)
		ch <- outcome{v, err}
	}()

	var deadline <-chan time.Time
	if cfg.Timeout > 0 {
		t := time.NewTimer(cfg.Timeout)
		defer t.Stop()
		deadline = t.C
	}
	var zero R
	select {
	case o := <-ch:
		return o.v, elapsed(), o.err
	case <-deadline:
		return zero, elapsed(), &DeadlineError{Key: job.Key, Timeout: cfg.Timeout}
	case <-ctx.Done():
		return zero, elapsed(), fmt.Errorf("attempt aborted: %w", context.Cause(ctx))
	}
}

// buildError aggregates final outcomes. Real failures are reported in
// submission order; cancellation casualties (aborted or undispatched
// jobs) only count toward NotRun so the error text stays deterministic.
func buildError[R any](ctx context.Context, results []Result[R]) error {
	var failures []JobError
	notRun := 0
	for i := range results {
		err := results[i].Err
		switch {
		case err == nil:
		case errors.Is(err, ErrNotRun), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			notRun++
		default:
			failures = append(failures, JobError{results[i].Key, err})
		}
	}
	if len(failures) > 0 {
		return &CampaignError{Failures: failures, NotRun: notRun}
	}
	if notRun > 0 {
		if err := context.Cause(ctx); err != nil {
			return fmt.Errorf("runner: campaign canceled: %w", err)
		}
		return &CampaignError{NotRun: notRun}
	}
	return nil
}

// metrics is the campaign's telemetry hook. All mutation happens on the
// collector goroutine; a nil *metrics (telemetry disabled) is a no-op.
type metrics struct {
	// depth is decremented by the collector goroutine and read by the
	// registry's gauge callback from whichever goroutine serves a
	// scrape, so it must be atomic.
	depth     atomic.Int64
	completed *telemetry.Counter
	failed    *telemetry.Counter
	retries   *telemetry.Counter
	ledgerHit *telemetry.Counter
	wall      *telemetry.Histogram
}

func newMetrics(tel *telemetry.Telemetry, queued int) *metrics {
	if !tel.Enabled() {
		return nil
	}
	reg := tel.Registry
	m := &metrics{}
	m.depth.Store(int64(queued))
	m.completed = reg.Counter("runner_jobs_completed_total",
		"campaign jobs that produced a final outcome (success or failure)")
	m.failed = reg.Counter("runner_jobs_failed_total",
		"campaign jobs whose final outcome was an error")
	m.retries = reg.Counter("runner_job_retries_total",
		"additional attempts beyond each job's first")
	m.ledgerHit = reg.Counter("runner_jobs_from_ledger_total",
		"jobs satisfied from the resume ledger without running")
	m.wall = reg.Histogram("runner_job_wall_seconds",
		"per-job wall-clock execution time across all attempts",
		telemetry.ExponentialBounds(0.01, 2, 16))
	reg.GaugeFunc("runner_queue_depth",
		"jobs dispatched to the campaign but not yet completed",
		func() float64 { return float64(m.depth.Load()) })
	return m
}

func (m *metrics) fromLedger(n int) {
	if m == nil || n == 0 {
		return
	}
	m.ledgerHit.Add(float64(n))
}

// jobDone records one completed job.
func (m *metrics) jobDone(err error, attempts int, wall time.Duration) {
	if m == nil {
		return
	}
	m.depth.Add(-1)
	m.completed.Inc()
	if err != nil {
		m.failed.Inc()
	}
	if attempts > 1 {
		m.retries.Add(float64(attempts - 1))
	}
	m.wall.Observe(wall.Seconds())
}

// entryFor converts a final outcome into its ledger record. Successful
// results are serialized so a resumed campaign can reuse them, with the
// explicit Ok marker asserting the payload (even an empty one) is
// faithful: a value that serializes to JSON null is stored payload-free
// but still Ok, and a value that fails to serialize at all is recorded
// without the marker and will be re-run on resume.
func entryFor[R any](r Result[R], configHash string) Entry {
	e := Entry{
		Key:        r.Key,
		ConfigHash: configHash,
		Attempts:   r.Attempts,
		WallMs:     float64(r.Wall) / 1e6,
	}
	if r.Err != nil {
		e.Status = StatusFailed
		e.Error = r.Err.Error()
		return e
	}
	e.Status = StatusOK
	if b, err := json.Marshal(r.Value); err == nil {
		e.Ok = true
		if string(b) != "null" {
			e.Result = b
		}
	}
	return e
}
