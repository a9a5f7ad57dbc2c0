package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coolpim/internal/telemetry"
)

func okJob(key string, v int) Job[int] {
	return Job[int]{Key: key, Run: func(context.Context) (int, error) { return v, nil }}
}

func failJob(key, msg string) Job[int] {
	return Job[int]{Key: key, Run: func(context.Context) (int, error) {
		return 0, errors.New(msg)
	}}
}

func TestResultsInSubmissionOrder(t *testing.T) {
	var jobs []Job[int]
	for i := 0; i < 20; i++ {
		jobs = append(jobs, okJob(fmt.Sprintf("j%02d", i), i*i))
	}
	res, err := Run(context.Background(), Config{Parallel: 8}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Key != jobs[i].Key || r.Value != i*i || r.Attempts != 1 || r.Err != nil {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

// TestDeterministicErrorOrder is the regression test for the old
// fan-out's first-goroutine-into-the-channel error selection: with two
// failing jobs racing on a parallel pool, the aggregated error string
// must be byte-identical across 50 runs.
func TestDeterministicErrorOrder(t *testing.T) {
	var first string
	for run := 0; run < 50; run++ {
		jobs := []Job[int]{
			okJob("a", 1),
			failJob("b", "boom-b"),
			okJob("c", 2),
			failJob("d", "boom-d"),
			okJob("e", 3),
		}
		_, err := Run(context.Background(), Config{Parallel: 5}, jobs)
		if err == nil {
			t.Fatal("campaign with failing jobs returned nil error")
		}
		if run == 0 {
			first = err.Error()
			if !strings.Contains(first, "b: boom-b") || !strings.Contains(first, "d: boom-d") {
				t.Fatalf("error missing failures: %q", first)
			}
			if strings.Index(first, "b: boom-b") > strings.Index(first, "d: boom-d") {
				t.Fatalf("failures not in submission order: %q", first)
			}
			continue
		}
		if got := err.Error(); got != first {
			t.Fatalf("run %d error diverged:\n%q\nvs\n%q", run, got, first)
		}
	}
}

// TestFailFastStopsDispatch: with the first job poisoned and the rest
// slow, fail-fast must cancel dispatch long before the 50-job campaign
// is exhausted.
func TestFailFastStopsDispatch(t *testing.T) {
	var started atomic.Int64
	jobs := []Job[int]{{Key: "poison", Run: func(context.Context) (int, error) {
		return 0, errors.New("poisoned")
	}}}
	for i := 1; i < 50; i++ {
		jobs = append(jobs, Job[int]{Key: fmt.Sprintf("slow%02d", i), Run: func(context.Context) (int, error) {
			time.Sleep(5 * time.Millisecond)
			return 1, nil
		}})
	}
	cfg := Config{
		Parallel: 2,
		FailFast: true,
		OnStart:  func(string, int) { started.Add(1) },
	}
	res, err := Run(context.Background(), cfg, jobs)
	if err == nil {
		t.Fatal("poisoned fail-fast campaign returned nil error")
	}
	var ce *CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("error type %T", err)
	}
	if n := started.Load(); n >= 25 {
		t.Fatalf("fail-fast still started %d of 50 jobs", n)
	}
	notRun := 0
	for _, r := range res {
		if errors.Is(r.Err, ErrNotRun) {
			notRun++
		}
	}
	if notRun == 0 {
		t.Fatal("no jobs marked ErrNotRun despite fail-fast cancellation")
	}
	if ce.NotRun == 0 {
		t.Fatal("CampaignError.NotRun not populated")
	}
}

// TestRunToCompletionIsDefault: without fail-fast, a failure must not
// stop the remaining jobs.
func TestRunToCompletionIsDefault(t *testing.T) {
	var started atomic.Int64
	jobs := []Job[int]{failJob("poison", "poisoned")}
	for i := 1; i < 10; i++ {
		jobs = append(jobs, okJob(fmt.Sprintf("j%d", i), i))
	}
	_, err := Run(context.Background(), Config{Parallel: 2, OnStart: func(string, int) { started.Add(1) }}, jobs)
	if err == nil {
		t.Fatal("want campaign error")
	}
	if n := started.Load(); n != 10 {
		t.Fatalf("run-to-completion started %d of 10 jobs", n)
	}
}

// TestPanicIsolation: a panicking job must surface as a typed
// *RunPanicError without wedging the pool (this test completing at all
// is the no-deadlock assertion).
func TestPanicIsolation(t *testing.T) {
	jobs := []Job[int]{
		okJob("a", 1),
		{Key: "bad", Run: func(context.Context) (int, error) { panic("constructor exploded") }},
		okJob("c", 3),
	}
	res, err := Run(context.Background(), Config{Parallel: 3}, jobs)
	if err == nil {
		t.Fatal("want campaign error")
	}
	var pe *RunPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no *RunPanicError in %v", err)
	}
	if pe.Key != "bad" || fmt.Sprint(pe.Value) != "constructor exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic error = %+v", pe)
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatal("healthy jobs infected by the panic")
	}
	if !errors.As(res[1].Err, &pe) {
		t.Fatalf("result error = %v", res[1].Err)
	}
}

func TestPanicIsNotRetried(t *testing.T) {
	var runs atomic.Int64
	jobs := []Job[int]{{Key: "bad", Run: func(context.Context) (int, error) {
		runs.Add(1)
		panic("again")
	}}}
	_, err := Run(context.Background(), Config{Retries: 3, sleep: func(time.Duration) {}}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if runs.Load() != 1 {
		t.Fatalf("panicking job ran %d times", runs.Load())
	}
}

func TestRetryWithDeterministicBackoff(t *testing.T) {
	var attempts atomic.Int64
	var slept []time.Duration
	jobs := []Job[int]{{Key: "flaky", Run: func(context.Context) (int, error) {
		if attempts.Add(1) < 3 {
			return 0, errors.New("transient")
		}
		return 7, nil
	}}}
	cfg := Config{
		Retries: 5,
		Backoff: 10 * time.Millisecond,
		sleep:   func(d time.Duration) { slept = append(slept, d) },
	}
	res, err := Run(context.Background(), cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != 7 || res[0].Attempts != 3 {
		t.Fatalf("result = %+v", res[0])
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff schedule %v, want %v", slept, want)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	var attempts atomic.Int64
	jobs := []Job[int]{{Key: "hopeless", Run: func(context.Context) (int, error) {
		attempts.Add(1)
		return 0, errors.New("always")
	}}}
	res, err := Run(context.Background(), Config{Retries: 2, sleep: func(time.Duration) {}}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if attempts.Load() != 3 || res[0].Attempts != 3 {
		t.Fatalf("attempts = %d (result %d), want 3", attempts.Load(), res[0].Attempts)
	}
}

func TestRetryablePredicate(t *testing.T) {
	var attempts atomic.Int64
	jobs := []Job[int]{{Key: "fatal", Run: func(context.Context) (int, error) {
		attempts.Add(1)
		return 0, errors.New("fatal: do not retry")
	}}}
	cfg := Config{
		Retries:   5,
		Retryable: func(err error) bool { return !strings.Contains(err.Error(), "fatal") },
		sleep:     func(time.Duration) {},
	}
	if _, err := Run(context.Background(), cfg, jobs); err == nil {
		t.Fatal("want error")
	}
	if attempts.Load() != 1 {
		t.Fatalf("non-retryable error retried: %d attempts", attempts.Load())
	}
}

func TestPerAttemptDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	jobs := []Job[int]{{Key: "hung", Run: func(context.Context) (int, error) {
		<-release // simulates a wedged run; the attempt goroutine is abandoned
		return 0, nil
	}}}
	cfg := Config{Timeout: 20 * time.Millisecond}
	_, err := Run(context.Background(), cfg, jobs)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error = %v, want *DeadlineError", err)
	}
	if de.Key != "hung" || de.Timeout != cfg.Timeout {
		t.Fatalf("deadline error = %+v", de)
	}
}

// TestDeadlineIsNotRetried pins that a blown deadline is final under
// the default predicate. The abandoned attempt keeps running, so a
// retry would start a second copy beside it: with -timeout and -retries
// a one-worker pool would run three copies of the job at once.
func TestDeadlineIsNotRetried(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var attempts, running atomic.Int64
	jobs := []Job[int]{{Key: "slow", Run: func(context.Context) (int, error) {
		attempts.Add(1)
		running.Add(1)
		defer running.Add(-1)
		<-release // outlives every deadline; the attempt is abandoned
		return 0, nil
	}}}
	cfg := Config{Parallel: 1, Timeout: 50 * time.Millisecond, Retries: 2, sleep: func(time.Duration) {}}
	res, err := Run(context.Background(), cfg, jobs)
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error = %v, want *DeadlineError", err)
	}
	if attempts.Load() != 1 || res[0].Attempts != 1 {
		t.Errorf("deadline-blown job ran %d attempts (result %d), want 1", attempts.Load(), res[0].Attempts)
	}
	if n := running.Load(); n != 1 {
		t.Errorf("%d copies of the job are running on a one-worker pool, want 1", n)
	}
}

func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job[int]{okJob("a", 1), okJob("b", 2)}
	_, err := Run(ctx, Config{}, jobs)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

func TestDuplicateKeysRejected(t *testing.T) {
	if _, err := Run(context.Background(), Config{}, []Job[int]{okJob("x", 1), okJob("x", 2)}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestDoneCallbackOrderAndThread(t *testing.T) {
	var order []string // appended from Done: must be safe without locks
	var jobs []Job[int]
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("j%02d", i)
		jobs = append(jobs, Job[int]{
			Key:  key,
			Run:  func(context.Context) (int, error) { return 0, nil },
			Done: func(r Result[int]) { order = append(order, r.Key) },
		})
	}
	if _, err := Run(context.Background(), Config{Parallel: 4}, jobs); err != nil {
		t.Fatal(err)
	}
	if len(order) != 12 {
		t.Fatalf("Done fired %d times, want 12", len(order))
	}
}

// TestFlightDumpOnPanic pins the flight-recorder escape hatch: a
// panicking job whose recorder holds stub events produces a JSONL dump
// whose last entries match what the job recorded before dying.
func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	fr := telemetry.NewFlightRecorder(8)
	jobs := []Job[int]{
		okJob("fine", 1),
		{
			Key:    "wl/pol:bad",
			Flight: fr,
			Run: func(context.Context) (int, error) {
				fr.Record(100, "ev", `"step":1`)
				fr.Record(200, "ev", `"step":2`)
				panic("boom")
			},
		},
	}
	res, err := Run(context.Background(), Config{Parallel: 2, FlightDir: dir}, jobs)
	if err == nil {
		t.Fatal("want campaign error")
	}
	if res[0].FlightPath != "" {
		t.Fatalf("healthy job got a flight dump: %s", res[0].FlightPath)
	}
	path := res[1].FlightPath
	if path == "" {
		t.Fatal("panicking job has no FlightPath")
	}
	if filepath.Base(path) != "wl_pol_bad.flight.jsonl" {
		t.Fatalf("dump name = %s, want sanitized key", filepath.Base(path))
	}
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump has %d lines, want 2:\n%s", len(lines), data)
	}
	if !strings.Contains(lines[0], `"step":1`) || !strings.Contains(lines[1], `"step":2`) {
		t.Fatalf("dump entries do not match recorded events:\n%s", data)
	}
}

// TestFlightDumpOnDeadline covers the other dump trigger.
func TestFlightDumpOnDeadline(t *testing.T) {
	dir := t.TempDir()
	fr := telemetry.NewFlightRecorder(8)
	jobs := []Job[int]{{
		Key:    "slow",
		Flight: fr,
		Run: func(ctx context.Context) (int, error) {
			fr.Record(1, "ev", `"started":true`)
			<-ctx.Done()
			return 0, ctx.Err()
		},
	}}
	res, err := Run(context.Background(), Config{Timeout: 10 * time.Millisecond, FlightDir: dir}, jobs)
	if err == nil {
		t.Fatal("want campaign error")
	}
	var de *DeadlineError
	if !errors.As(res[0].Err, &de) {
		t.Fatalf("error = %v, want *DeadlineError", res[0].Err)
	}
	if res[0].FlightPath == "" {
		t.Fatal("deadline-blown job has no FlightPath")
	}
	if _, err := os.Stat(res[0].FlightPath); err != nil {
		t.Fatal(err)
	}
}

// TestNoFlightDumpWithoutDir pins that dumping is opt-in.
func TestNoFlightDumpWithoutDir(t *testing.T) {
	fr := telemetry.NewFlightRecorder(8)
	jobs := []Job[int]{{
		Key:    "bad",
		Flight: fr,
		Run:    func(context.Context) (int, error) { panic("boom") },
	}}
	res, _ := Run(context.Background(), Config{}, jobs)
	if res[0].FlightPath != "" {
		t.Fatalf("dump written without FlightDir: %s", res[0].FlightPath)
	}
}

// TestCampaignSpans pins the harness-level span tree: one
// runner.campaign root with one child span per attempt, named by the
// job key, all closed when Run returns.
func TestCampaignSpans(t *testing.T) {
	tel := telemetry.New()
	tel.Spans.SetWallClock(func() int64 { return 42 })
	var runs atomic.Int64
	jobs := []Job[int]{
		okJob("a", 1),
		{Key: "flaky", Run: func(context.Context) (int, error) {
			if runs.Add(1) == 1 {
				return 0, errors.New("transient")
			}
			return 2, nil
		}},
	}
	_, err := Run(context.Background(), Config{
		Telemetry: tel,
		Retries:   1,
		sleep:     func(time.Duration) {},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	spans := tel.Spans.Export()
	var root *telemetry.SpanExport
	attempts := map[string]int{}
	for i, s := range spans {
		switch s.Name {
		case "runner.campaign":
			root = &spans[i]
		default:
			attempts[s.Name]++
		}
		if s.Open() {
			t.Errorf("span %s still open after Run returned", s.Name)
		}
	}
	if root == nil {
		t.Fatal("no runner.campaign root span")
	}
	if attempts["a"] != 1 || attempts["flaky"] != 2 {
		t.Fatalf("attempt spans = %v, want a:1 flaky:2", attempts)
	}
	for _, s := range spans {
		if s.Name != "runner.campaign" && s.Parent != root.ID {
			t.Errorf("attempt span %s parented under %d, want campaign root %d", s.Name, s.Parent, root.ID)
		}
	}
}
