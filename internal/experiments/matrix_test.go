package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/mem"
	"coolpim/internal/runner"
	"coolpim/internal/system"
	"coolpim/internal/units"
)

// TestGraphConcurrentSingleInstance hammers Profile.Graph from many
// goroutines (as parallel campaign workers do) and checks every caller
// gets the same canonical instance even though generation now happens
// outside the cache lock.
func TestGraphConcurrentSingleInstance(t *testing.T) {
	p := TestProfile()
	p.Seed = 12345 // do not collide with graphs other tests already cached
	const workers = 8
	results := make([]any, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		// Test-only concurrency probe of the graph cache; the analyzers
		// skip _test.go files, so no allow directive is needed (one here
		// would itself be flagged as stale).
		go func(i int) {
			defer wg.Done()
			results[i] = p.Graph()
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatalf("worker %d got a different graph instance than worker 0", i)
		}
	}
}

// stubWorkload converges immediately: the full system stack spins up
// and tears down in microseconds, making matrix-orchestration tests
// cheap without touching the real kernels.
type stubWorkload struct {
	name  string
	delay time.Duration
}

func (s stubWorkload) Name() string { return s.name }
func (s stubWorkload) Profile() kernels.Profile {
	return kernels.Profile{PIMIntensity: 0.5, DivergenceRatio: 0.5}
}
func (s stubWorkload) Setup(*mem.Space, *graph.Graph) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
}
func (s stubWorkload) NextLaunch() (*gpu.Launch, bool) { return nil, false }
func (s stubWorkload) Verify() error                   { return nil }

// stubConstructors swaps the campaign's workload constructor for one
// that returns instant stub workloads, failing or panicking for the
// named workloads, and counting every constructor call.
func stubConstructors(t *testing.T, fail map[string]error, panics map[string]string, delay time.Duration, calls *atomic.Int64) {
	t.Helper()
	orig := newSized
	newSized = func(name string, reps int) (kernels.Workload, error) {
		if calls != nil {
			calls.Add(1)
		}
		if msg, ok := panics[name]; ok {
			panic(msg)
		}
		if err, ok := fail[name]; ok {
			return nil, err
		}
		return stubWorkload{name: name, delay: delay}, nil
	}
	t.Cleanup(func() { newSized = orig })
}

// TestMatrixDeterministicError is the end-to-end regression test for
// the nondeterministic campaign error: with two cells failing on a
// parallel pool, the aggregated error must be byte-identical across 50
// campaigns and list failures in canonical matrix order.
func TestMatrixDeterministicError(t *testing.T) {
	stubConstructors(t, map[string]error{
		"bfs-ta": errors.New("synthetic bfs-ta failure"),
		"kcore":  errors.New("synthetic kcore failure"),
	}, nil, 0, nil)
	p := TestProfile()
	var first string
	for run := 0; run < 50; run++ {
		_, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
			Policies: []core.PolicyKind{core.NonOffloading},
			Parallel: 4,
		})
		if err == nil {
			t.Fatal("poisoned matrix returned nil error")
		}
		if run == 0 {
			first = err.Error()
			bi := strings.Index(first, "bfs-ta")
			ki := strings.Index(first, "kcore")
			if bi < 0 || ki < 0 {
				t.Fatalf("error missing a failure: %q", first)
			}
			if bi > ki {
				t.Fatalf("failures not in matrix order: %q", first)
			}
			continue
		}
		if got := err.Error(); got != first {
			t.Fatalf("campaign %d error diverged:\n%q\nvs\n%q", run, got, first)
		}
	}
}

// TestMatrixFailFast: a poisoned 10x5 matrix under fail-fast must stop
// dispatching long before all 50 cells are scheduled.
func TestMatrixFailFast(t *testing.T) {
	var calls atomic.Int64
	stubConstructors(t, map[string]error{"dc": errors.New("poisoned")}, nil, 5*time.Millisecond, &calls)
	p := TestProfile()
	_, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Parallel: 2,
		FailFast: true,
	})
	if err == nil {
		t.Fatal("poisoned fail-fast matrix returned nil error")
	}
	var ce *runner.CampaignError
	if !errors.As(err, &ce) {
		t.Fatalf("error type %T: %v", err, err)
	}
	if ce.NotRun == 0 {
		t.Fatal("fail-fast matrix reports no skipped cells")
	}
	if n := calls.Load(); n >= 25 {
		t.Fatalf("fail-fast still scheduled %d of 50 runs", n)
	}
}

// TestMatrixPanicIsolation: a panicking workload constructor surfaces
// as a typed *runner.RunPanicError naming the cell, and the campaign
// still completes the healthy cells.
func TestMatrixPanicIsolation(t *testing.T) {
	stubConstructors(t, nil, map[string]string{"pagerank": "constructor exploded"}, 0, nil)
	p := TestProfile()
	_, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Workloads: []string{"dc", "pagerank"},
		Policies:  []core.PolicyKind{core.NonOffloading, core.NaiveOffloading},
		Parallel:  4,
	})
	if err == nil {
		t.Fatal("panicking matrix returned nil error")
	}
	var pe *runner.RunPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("no *runner.RunPanicError in %v", err)
	}
	if !strings.HasPrefix(pe.Key, "pagerank/") {
		t.Fatalf("panic attributed to %q", pe.Key)
	}
}

// TestMatrixLedgerResume: an interrupted campaign (two of four cells
// ledgered, plus a torn trailing line from the kill) resumes by
// executing only the incomplete cells.
func TestMatrixLedgerResume(t *testing.T) {
	var calls atomic.Int64
	stubConstructors(t, nil, nil, 0, &calls)
	p := TestProfile()
	path := filepath.Join(t.TempDir(), "matrix.jsonl")
	pols := []core.PolicyKind{core.NonOffloading, core.NaiveOffloading}

	l1, err := runner.OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Workloads: []string{"dc"}, Policies: pols, Ledger: l1,
	}); err != nil {
		t.Fatal(err)
	}
	l1.Close()
	if calls.Load() != 2 {
		t.Fatalf("partial campaign ran %d cells", calls.Load())
	}

	// The kill arrived mid-append: a torn trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"pagerank/Non-`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	calls.Store(0)
	var fresh, ledgered []string
	l2, err := runner.OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rows, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Workloads: []string{"dc", "pagerank"}, Policies: pols, Ledger: l2,
		OnRunDone: func(key string, err error, fromLedger bool) {
			if fromLedger {
				ledgered = append(ledgered, key)
			} else {
				fresh = append(fresh, key)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("resumed campaign ran %d cells, want 2 (run-count probe)", calls.Load())
	}
	if len(ledgered) != 2 || len(fresh) != 2 {
		t.Fatalf("resume split = %v ledgered, %v fresh", ledgered, fresh)
	}
	for _, k := range ledgered {
		if !strings.HasPrefix(k, "dc/") {
			t.Fatalf("unexpected ledgered cell %q", k)
		}
	}
	for _, row := range rows {
		for _, pol := range pols {
			if row.Results[pol] == nil {
				t.Fatalf("row %s missing %v result", row.Workload, pol)
			}
		}
	}
}

// TestMatrixConfigHashStableAndSensitive: the resume key must not move
// between identical campaigns but must move when the profile changes.
func TestMatrixConfigHashStableAndSensitive(t *testing.T) {
	p := TestProfile()
	h1, err := p.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := TestProfile().ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("profile hash unstable: %s vs %s", h1, h2)
	}
	q := TestProfile()
	q.Reps++
	h3, err := q.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("profile hash insensitive to Reps")
	}
	// The engine shard count never changes results (DESIGN.md §12), so
	// it must not split ledgers or result documents.
	net, err := hmc.FlagConfig(2, "chain", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	multi := MultiCubeProfile(TestProfile(), net)
	hm, err := multi.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		sharded := multi
		sharded.Sys.Net.Shards = shards
		if h, err := sharded.ConfigHash(); err != nil || h != hm {
			t.Errorf("shards %d: hash %s (%v), want %s", shards, h, err, hm)
		}
		sharded.Reps++
		if h, _ := sharded.ConfigHash(); h == hm {
			t.Errorf("shards %d: hash insensitive to Reps", shards)
		}
	}
}

// TestFig14SeriesMatchesSerialRuns pins the series a parallel campaign
// keeps: each Fig. 14 cell's series, derived cells included, must be
// identical to a serial RunWorkload of the same (workload, policy) pair.
func TestFig14SeriesMatchesSerialRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system comparison run")
	}
	p := TestProfile()
	// An awkward sampling period (prime in nanoseconds) guarantees the
	// runtime is not a multiple of the interval, exercising the flushed
	// tail window through the full Fig. 14 path.
	p.Sys.SampleInterval = 73009 * units.Nanosecond
	const workload = "dc"
	derived := 0
	rows, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Workloads: []string{workload},
		Policies:  fig14Policies,
		Parallel:  3,
		Progress: func(s string) {
			if strings.HasSuffix(s, "(derived)") {
				derived++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if derived == 0 {
		t.Fatal("no cell derived: the test no longer covers derived series")
	}
	g := p.Graph()
	for _, pol := range fig14Policies {
		w, err := kernels.NewSized(workload, p.Reps)
		if err != nil {
			t.Fatal(err)
		}
		res, err := system.RunWorkload(w, pol, p.Sys, g)
		if err != nil {
			t.Fatal(err)
		}
		want := res.Series
		if len(want) > 0 {
			if last := want[len(want)-1]; last.At != res.Runtime {
				t.Fatalf("%v: series ends at %v, runtime is %v: tail window dropped", pol, last.At, res.Runtime)
			}
		}
		if res.Runtime%p.Sys.SampleInterval == 0 {
			t.Fatalf("%v: runtime %v is a multiple of the sample interval; test lost its awkward ratio", pol, res.Runtime)
		}
		series := rows[0].Results[pol].Series
		if len(series) != len(want) {
			t.Fatalf("%v: campaign series has %d samples, serial %d", pol, len(series), len(want))
		}
		for i := range series {
			if series[i] != want[i] {
				t.Fatalf("%v: sample %d differs: campaign %+v, serial %+v", pol, i, series[i], want[i])
			}
		}
	}
}

// TestMultiCubeMatrix wires the experiments layer through the
// multi-cube path: MultiCubeProfile folds the network into the profile
// name and config hash (so ledgers from single-cube campaigns cannot
// be resumed into multi-cube ones), and a campaign cell runs one
// workload replica per cube with per-cube results on the row.
func TestMultiCubeMatrix(t *testing.T) {
	base := TestProfile()
	net := hmc.DefaultNetworkConfig()
	net.Cubes = 2
	p := MultiCubeProfile(base, net)
	if want := base.Name + "-2xchain"; p.Name != want {
		t.Errorf("derived name = %q, want %q", p.Name, want)
	}
	baseHash, err := base.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	mcHash, err := p.ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	if baseHash == mcHash {
		t.Error("multi-cube network config not folded into the config hash")
	}

	rows, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Workloads: []string{"dc"},
		Policies:  []core.PolicyKind{core.NaiveOffloading},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rows[0].Results[core.NaiveOffloading]
	if len(res.PerCube) != net.Cubes {
		t.Fatalf("PerCube = %d entries, want %d", len(res.PerCube), net.Cubes)
	}
	var pim uint64
	for i, pc := range res.PerCube {
		if pc.Launches == 0 || pc.HMC.PIMOps == 0 {
			t.Errorf("node %d idle: %+v", i, pc)
		}
		pim += pc.HMC.PIMOps
	}
	if pim != res.PIMOps {
		t.Errorf("per-cube PIM ops %d != total %d", pim, res.PIMOps)
	}
	if len(res.Links) == 0 {
		t.Error("no inter-cube links reported")
	}
}

// runMatrixWithin runs RunMatrixOpts and fails the test if the campaign
// has not returned within limit (a scheduling deadlock).
func runMatrixWithin(t *testing.T, limit time.Duration, p Profile, o MatrixOpts) ([]Row, error) {
	t.Helper()
	type outcome struct {
		rows []Row
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		rows, err := RunMatrixOpts(context.Background(), p, o)
		ch <- outcome{rows, err}
	}()
	select {
	case o := <-ch:
		return o.rows, o.err
	case <-time.After(limit):
		t.Fatalf("campaign still running after %v: scheduling deadlock", limit)
		return nil, nil
	}
}

// TestMatrixDerivedBeforeNaiveListed: with one worker and CoolPIM(HW)
// listed before naive, the naive cell still runs first, so the HW cell
// never waits on an undispatched cell. It derives, and rows keep the
// requested order.
func TestMatrixDerivedBeforeNaiveListed(t *testing.T) {
	stubConstructors(t, nil, nil, 0, nil)
	var lines []string
	rows, err := runMatrixWithin(t, 30*time.Second, TestProfile(), MatrixOpts{
		Workloads: []string{"dc", "pagerank"},
		Policies:  []core.PolicyKind{core.CoolPIMHW, core.NaiveOffloading},
		Parallel:  1,
		Progress:  func(s string) { lines = append(lines, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Workload != "dc" || rows[1].Workload != "pagerank" {
		t.Fatalf("rows out of matrix order: %+v", rows)
	}
	for _, row := range rows {
		hw, naive := row.Results[core.CoolPIMHW], row.Results[core.NaiveOffloading]
		if hw == nil || naive == nil || hw.Policy != core.CoolPIMHW || hw.Runtime != naive.Runtime {
			t.Fatalf("%s: HW %+v, naive %+v", row.Workload, hw, naive)
		}
	}
	derived := 0
	for _, l := range lines {
		if strings.HasSuffix(l, "(derived)") {
			derived++
			if !strings.Contains(l, "CoolPIM(HW)") {
				t.Errorf("non-HW cell marked derived: %q", l)
			}
		}
	}
	if derived != 2 {
		t.Errorf("%d progress lines marked derived, want 2:\n%s", derived, strings.Join(lines, "\n"))
	}
}

// TestMatrixFailFastNaiveStopsSiblings: under fail-fast, a poisoned
// naive cell is the campaign's only failure; its SW, HW and
// IdealThermal cells, waiting on it or not yet dispatched, are
// reported as not run. OnRunDone lingers on the naive failure: a
// sibling released before the campaign is canceled would use that
// time to simulate, and fail too.
func TestMatrixFailFastNaiveStopsSiblings(t *testing.T) {
	stubConstructors(t, map[string]error{"dc": errors.New("poisoned")}, nil, 0, nil)
	for run := 0; run < 20; run++ {
		var mu sync.Mutex
		var finished []string
		_, err := runMatrixWithin(t, 30*time.Second, TestProfile(), MatrixOpts{
			Workloads: []string{"dc"},
			Policies:  []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW, core.IdealThermal},
			Parallel:  2,
			FailFast:  true,
			OnRunDone: func(key string, err error, _ bool) {
				if key == "dc/Naive-Offloading" {
					time.Sleep(10 * time.Millisecond)
				}
				mu.Lock()
				defer mu.Unlock()
				if err == nil {
					finished = append(finished, key)
				}
			},
		})
		var ce *runner.CampaignError
		if !errors.As(err, &ce) {
			t.Fatalf("error type %T: %v", err, err)
		}
		if len(ce.Failures) != 1 || ce.Failures[0].Key != "dc/Naive-Offloading" || ce.NotRun != 3 {
			t.Fatalf("run %d: failures %+v, not run %d; want only the naive cell failed and 3 not run",
				run, ce.Failures, ce.NotRun)
		}
		if len(finished) != 0 {
			t.Fatalf("run %d: siblings of a failed naive cell completed: %v", run, finished)
		}
	}
}

// TestMatrixResumeDerivesFromLedgeredNaive: a campaign resumed with
// naive cells in the ledger and their siblings pending derives the
// siblings from the ledgered results, byte-identical to a fresh
// campaign's rows, time series included. It runs the real workloads: a
// stub cell runs for 0 ps and records no samples.
func TestMatrixResumeDerivesFromLedgeredNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system campaign")
	}
	p := TestProfile()
	wls := []string{"dc", "pagerank"}
	pols := []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW, core.IdealThermal}
	fresh, err := RunMatrixOpts(context.Background(), p, MatrixOpts{Workloads: wls, Policies: pols, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "matrix.jsonl")
	l1, err := runner.OpenLedger(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Workloads: wls, Policies: pols[:1], Ledger: l1,
	}); err != nil {
		t.Fatal(err)
	}
	l1.Close()

	l2, err := runner.OpenLedger(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var ledgered, derived int
	resumed, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
		Workloads: wls, Policies: pols, Parallel: 2, Ledger: l2,
		Progress: func(s string) {
			if strings.HasSuffix(s, "(derived)") {
				derived++
			}
		},
		OnRunDone: func(_ string, _ error, fromLedger bool) {
			if fromLedger {
				ledgered++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ledgered != 2 || derived != 6 {
		t.Fatalf("resume: %d cells from the ledger, %d derived; want 2 and 6", ledgered, derived)
	}
	for i, row := range resumed {
		for _, pol := range pols {
			got, want := row.Results[pol], fresh[i].Results[pol]
			if len(got.Series) == 0 || len(want.Series) == 0 {
				t.Errorf("%s/%v: resumed series has %d samples, fresh %d; the comparison cannot see series",
					row.Workload, pol, len(got.Series), len(want.Series))
			}
			if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
				t.Errorf("%s/%v: resumed %s, fresh %s", row.Workload, pol, g, w)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Errorf("%s/%v: resumed JSON %s, fresh %s", row.Workload, pol, gj, wj)
			}
		}
	}
}

// TestMatrixFailuresInMatrixOrder: naive cells run first, but a failing
// campaign still lists its failures in matrix order — here CoolPIM(HW)
// before naive, as requested — identically on every run.
func TestMatrixFailuresInMatrixOrder(t *testing.T) {
	stubConstructors(t, map[string]error{
		"dc":    errors.New("synthetic dc failure"),
		"kcore": errors.New("synthetic kcore failure"),
	}, nil, 0, nil)
	want := "4 run(s) failed:" +
		"\n  dc/CoolPIM(HW): synthetic dc failure" +
		"\n  dc/Naive-Offloading: synthetic dc failure" +
		"\n  kcore/CoolPIM(HW): synthetic kcore failure" +
		"\n  kcore/Naive-Offloading: synthetic kcore failure"
	for run := 0; run < 20; run++ {
		_, err := runMatrixWithin(t, 30*time.Second, TestProfile(), MatrixOpts{
			Workloads: []string{"dc", "pagerank", "kcore"},
			Policies:  []core.PolicyKind{core.CoolPIMHW, core.NaiveOffloading},
			Parallel:  2,
		})
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error\n%v\nwant\n%s", run, err, want)
		}
	}
}
