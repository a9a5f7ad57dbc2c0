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

	"coolpim/internal/telemetry"
)

type payload struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func campaignJobs(ran *atomic.Int64, n int) []Job[payload] {
	var jobs []Job[payload]
	for i := 0; i < n; i++ {
		i := i
		jobs = append(jobs, Job[payload]{
			Key: fmt.Sprintf("cell%02d", i),
			Run: func(context.Context) (payload, error) {
				ran.Add(1)
				return payload{N: i, S: fmt.Sprintf("v%d", i)}, nil
			},
		})
	}
	return jobs
}

func TestLedgerResumeSkipsCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	const hash = "cfg-aaaa"

	// First campaign: only the first 2 of 4 cells (the "interrupted"
	// campaign completed 2 runs before the kill).
	var ran1 atomic.Int64
	l1, err := OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Ledger: l1, ConfigHash: hash}, campaignJobs(&ran1, 4)[:2]); err != nil {
		t.Fatal(err)
	}
	l1.Close()
	if ran1.Load() != 2 {
		t.Fatalf("first campaign ran %d jobs", ran1.Load())
	}

	// Simulate the kill arriving mid-append: a torn trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"cell02","config_hash":"cfg-aa`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resumed campaign over all 4 cells: only the 2 missing run.
	var ran2 atomic.Int64
	l2, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Resumable(); got != 2 {
		t.Fatalf("loaded %d resumable entries, want 2", got)
	}
	res, err := Run(context.Background(), Config{Ledger: l2, ConfigHash: hash}, campaignJobs(&ran2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if ran2.Load() != 2 {
		t.Fatalf("resumed campaign ran %d jobs, want 2 (run-count probe)", ran2.Load())
	}
	for i, r := range res {
		wantLedger := i < 2
		if r.FromLedger != wantLedger {
			t.Fatalf("result %d FromLedger = %v", i, r.FromLedger)
		}
		if r.Value.N != i || r.Value.S != fmt.Sprintf("v%d", i) {
			t.Fatalf("result %d payload = %+v", i, r.Value)
		}
	}

	// A third resume now skips everything, including the torn-line key
	// re-run above.
	var ran3 atomic.Int64
	l3, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if _, err := Run(context.Background(), Config{Ledger: l3, ConfigHash: hash}, campaignJobs(&ran3, 4)); err != nil {
		t.Fatal(err)
	}
	if ran3.Load() != 0 {
		t.Fatalf("fully-ledgered campaign still ran %d jobs", ran3.Load())
	}
}

func TestLedgerConfigHashMismatchRerunsEverything(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var ran atomic.Int64
	l, err := OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Ledger: l, ConfigHash: "cfg-old"}, campaignJobs(&ran, 3)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var ran2 atomic.Int64
	l2, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := Run(context.Background(), Config{Ledger: l2, ConfigHash: "cfg-new"}, campaignJobs(&ran2, 3)); err != nil {
		t.Fatal(err)
	}
	if ran2.Load() != 3 {
		t.Fatalf("changed config hash reused ledger entries: ran %d of 3", ran2.Load())
	}
}

// TestLedgerKeepsEveryConfigHash: one key completed under two config
// hashes is reusable under both, at once after each Append and after a
// reopen.
func TestLedgerKeepsEveryConfigHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"cfg-a", "cfg-b"} {
		if err := l.Append(Entry{Key: "cell", ConfigHash: h, Status: StatusOK, Ok: true, Result: []byte(`{"n":1}`)}); err != nil {
			t.Fatal(err)
		}
		if _, ok := l.Completed("cell", h); !ok {
			t.Fatalf("appended entry under %s not Completed in the same process", h)
		}
	}
	l.Close()

	l2, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, h := range []string{"cfg-a", "cfg-b"} {
		if _, ok := l2.Completed("cell", h); !ok {
			t.Errorf("entry under %s not Completed after reopen", h)
		}
	}
	if got := len(l2.Entries("cell")); got != 2 {
		t.Errorf("Entries(cell) = %d entries, want 2", got)
	}
}

func TestLedgerFailedEntriesAreRerun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	fail := true
	job := Job[payload]{Key: "cell", Run: func(context.Context) (payload, error) {
		if fail {
			return payload{}, errors.New("transient infra failure")
		}
		return payload{N: 9}, nil
	}}
	if _, err := Run(context.Background(), Config{Ledger: l, ConfigHash: "h"}, []Job[payload]{job}); err == nil {
		t.Fatal("want error")
	}
	l.Close()

	fail = false
	l2, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	res, err := Run(context.Background(), Config{Ledger: l2, ConfigHash: "h"}, []Job[payload]{job})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].FromLedger || res[0].Value.N != 9 {
		t.Fatalf("failed entry not re-run: %+v", res[0])
	}
}

// TestLedgerResumeReusesZeroValueResult pins the ok-marker fix: a
// successfully completed job whose result is the zero value of its type
// — here a nil slice, which serializes to JSON null and is stored
// payload-free — must be reused on resume, not silently re-simulated.
func TestLedgerResumeReusesZeroValueResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	const hash = "cfg-zero"
	var ran atomic.Int64
	job := func() Job[[]int] {
		return Job[[]int]{Key: "cell", Run: func(context.Context) ([]int, error) {
			ran.Add(1)
			return nil, nil // success; zero-value result
		}}
	}

	l, err := OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Ledger: l, ConfigHash: hash}, []Job[[]int]{job()}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if ran.Load() != 1 {
		t.Fatalf("first campaign ran %d jobs, want 1", ran.Load())
	}

	// The entry must carry the explicit success marker (the payload is
	// legitimately absent: the value serialized to null).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ok":true`) {
		t.Fatalf("ledger entry missing ok marker: %s", data)
	}
	if strings.Contains(string(data), `"result"`) {
		t.Fatalf("null result should be stored payload-free: %s", data)
	}

	l2, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	res, err := Run(context.Background(), Config{Ledger: l2, ConfigHash: hash}, []Job[[]int]{job()})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 1 {
		t.Fatalf("resume re-simulated the zero-value result: ran %d total, want 1", ran.Load())
	}
	if !res[0].FromLedger || res[0].Value != nil {
		t.Fatalf("resumed result = %+v, want FromLedger zero value", res[0])
	}
}

// TestLedgerCompletedKeysOnOkMarker covers the marker semantics
// directly: Ok entries are reusable even without a payload, pre-marker
// entries stay reusable through the non-empty-payload fallback, and a
// success whose value could not be serialized (no marker, no payload)
// still re-runs.
func TestLedgerCompletedKeysOnOkMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	l, err := OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{
		{Key: "marked-empty", ConfigHash: "h", Status: StatusOK, Ok: true},
		{Key: "legacy-payload", ConfigHash: "h", Status: StatusOK, Result: []byte(`{"n":1}`)},
		{Key: "unserializable", ConfigHash: "h", Status: StatusOK},
	}
	for _, e := range entries {
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	for _, tc := range []struct {
		key  string
		want bool
	}{
		{"marked-empty", true},
		{"legacy-payload", true},
		{"unserializable", false},
	} {
		if _, ok := l2.Completed(tc.key, "h"); ok != tc.want {
			t.Errorf("Completed(%q) = %v, want %v", tc.key, ok, tc.want)
		}
	}
}

// TestLedgerUnserializableResultRerunsOnResume pins that the marker is
// only written when the payload is faithful: a result json.Marshal
// rejects is recorded without it and re-runs.
func TestLedgerUnserializableResultRerunsOnResume(t *testing.T) {
	type unserializable struct {
		C chan int `json:"c"`
	}
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	var ran atomic.Int64
	job := Job[unserializable]{Key: "cell", Run: func(context.Context) (unserializable, error) {
		ran.Add(1)
		return unserializable{C: make(chan int)}, nil
	}}

	l, err := OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Config{Ledger: l, ConfigHash: "h"}, []Job[unserializable]{job}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := Run(context.Background(), Config{Ledger: l2, ConfigHash: "h"}, []Job[unserializable]{job}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Fatalf("unserializable result reused from ledger: ran %d, want 2", ran.Load())
	}
}

func TestHashConfigDeterministicAndSensitive(t *testing.T) {
	type cfg struct {
		A int
		B string
		M map[string]int
	}
	v := cfg{A: 1, B: "x", M: map[string]int{"k1": 1, "k2": 2, "k3": 3}}
	h1, err := HashConfig(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		h, err := HashConfig(cfg{A: 1, B: "x", M: map[string]int{"k3": 3, "k2": 2, "k1": 1}})
		if err != nil {
			t.Fatal(err)
		}
		if h != h1 {
			t.Fatalf("hash not deterministic: %s vs %s", h, h1)
		}
	}
	v.A = 2
	if h2, _ := HashConfig(v); h2 == h1 {
		t.Fatal("hash insensitive to config change")
	}
}

func TestCampaignTelemetry(t *testing.T) {
	tel := telemetry.New()
	var ran atomic.Int64
	jobs := campaignJobs(&ran, 5)
	jobs = append(jobs, Job[payload]{Key: "bad", Run: func(context.Context) (payload, error) {
		return payload{}, errors.New("boom")
	}})
	if _, err := Run(context.Background(), Config{Parallel: 2, Telemetry: tel}, jobs); err == nil {
		t.Fatal("want error")
	}
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"runner_jobs_completed_total 6",
		"runner_jobs_failed_total 1",
		"runner_jobs_from_ledger_total 0",
		"runner_queue_depth 0",
		"runner_job_wall_seconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}
