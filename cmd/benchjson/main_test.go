package main

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: coolpim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEventEngine-8   	 9371869	       123.4 ns/op	       0 B/op	       0 allocs/op
BenchmarkCubeReadThroughput 	 2677753	       453.3 ns/op	 141.20 MB/s	     184 B/op	       4 allocs/op
BenchmarkFig10Speedup/dc/Naive-Offloading-8         	       3	 201048483 ns/op
PASS
ok  	coolpim	10.431s
`

func TestParse(t *testing.T) {
	snap, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta["cpu"] != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu meta = %q", snap.Meta["cpu"])
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(snap.Benchmarks))
	}
	ee := snap.Benchmarks[0]
	if ee.Name != "EventEngine" || ee.Iterations != 9371869 {
		t.Errorf("first bench = %+v", ee)
	}
	if ee.Metrics["ns/op"] != 123.4 || ee.Metrics["allocs/op"] != 0 {
		t.Errorf("EventEngine metrics = %v", ee.Metrics)
	}
	cube := snap.Benchmarks[1]
	if cube.Name != "CubeReadThroughput" || cube.Metrics["MB/s"] != 141.20 {
		t.Errorf("cube bench = %+v", cube)
	}
	fig := snap.Benchmarks[2]
	if fig.Name != "Fig10Speedup/dc/Naive-Offloading" {
		t.Errorf("sub-bench name = %q (GOMAXPROCS suffix must strip, workload dashes must stay)", fig.Name)
	}
	if fig.Metrics["ns/op"] != 201048483 {
		t.Errorf("sub-bench metrics = %v", fig.Metrics)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX 12 34", // dangling value without unit
		"BenchmarkX notanumber 1 ns/op",
		"BenchmarkX-2 100 NaN ns/op", // JSON has no NaN or infinities
		"BenchmarkX-2 100 Inf ns/op",
		"BenchmarkX-2 100 1 ns/op -inf B/op",
		"BenchmarkX-2 100 1 \xff/op", // JSON would replace the byte
		"goos: \xfe",
	} {
		if _, err := parse(bufio.NewScanner(strings.NewReader(bad))); err == nil {
			t.Errorf("parse(%q) succeeded, want error", bad)
		}
	}
}

// countSample is `-count 3` output: each benchmark's lines consecutive,
// as go test prints them, plus a sub-benchmark.
const countSample = `pkg: coolpim
BenchmarkCacheFill-2   	 1000	       30.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheFill-2   	 3000	       10.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheFill-2   	 2000	       20.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkEventQueueMix/pending=800-2   	 100	       56.0 ns/op
BenchmarkEventQueueMix/pending=800-2   	 100	       58.0 ns/op
`

func TestParseFoldsRepeatedRuns(t *testing.T) {
	snap, err := parse(bufio.NewScanner(strings.NewReader(countSample)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != 2 || len(snap.Benchmarks) != 2 {
		t.Fatalf("schema %d with %d benchmarks, want schema 2 with 2", snap.Schema, len(snap.Benchmarks))
	}
	fill := snap.Benchmarks[0]
	if fill.Name != "CacheFill" || fill.Runs != 3 || fill.Iterations != 2000 {
		t.Errorf("fold = %+v, want CacheFill over 3 runs with median 2000 iterations", fill)
	}
	if fill.Metrics["ns/op"] != 20 || fill.Min["ns/op"] != 10 || fill.Max["ns/op"] != 30 {
		t.Errorf("ns/op median/min/max = %v/%v/%v, want 20/10/30",
			fill.Metrics["ns/op"], fill.Min["ns/op"], fill.Max["ns/op"])
	}
	if fill.Metrics["allocs/op"] != 0 || fill.Max["allocs/op"] != 0 {
		t.Errorf("allocs/op = %v", fill.Metrics)
	}
	mix := snap.Benchmarks[1]
	if mix.Name != "EventQueueMix/pending=800" || mix.Runs != 2 || mix.Metrics["ns/op"] != 57 {
		t.Errorf("even-count fold = %+v, want the mean of the middle pair (57)", mix)
	}
}

func TestReportFlagsOutsideSpread(t *testing.T) {
	old := &Snapshot{Schema: 1, Benchmarks: []Benchmark{
		{Name: "CacheAccess", Metrics: map[string]float64{"ns/op": 15}},
		{Name: "EventEngine", Metrics: map[string]float64{"ns/op": 150, "allocs/op": 0}},
		{Name: "Gone", Metrics: map[string]float64{"ns/op": 1}},
	}}
	cur := &Snapshot{Schema: 2, Benchmarks: []Benchmark{
		{Name: "CacheAccess", Runs: 3, Metrics: map[string]float64{"ns/op": 10},
			Min: map[string]float64{"ns/op": 9}, Max: map[string]float64{"ns/op": 11}},
		{Name: "EventEngine", Runs: 3, Metrics: map[string]float64{"ns/op": 145, "allocs/op": 0},
			Min: map[string]float64{"ns/op": 140, "allocs/op": 0}, Max: map[string]float64{"ns/op": 152, "allocs/op": 0}},
		{Name: "CacheFill", Runs: 3, Metrics: map[string]float64{"ns/op": 20}},
	}}
	var buf strings.Builder
	report(&buf, "BENCH_5.json", old, cur)
	out := buf.String()
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 {
			rows[f[0]+" "+f[1]] = line
		}
	}
	if r := rows["CacheAccess ns/op"]; !strings.Contains(r, "-33.3%") || !strings.Contains(r, "outside spread") {
		t.Errorf("CacheAccess row %q: want -33.3%% flagged outside spread", r)
	}
	if r := rows["EventEngine ns/op"]; !strings.Contains(r, "-3.3%") || strings.Contains(r, "outside spread") {
		t.Errorf("EventEngine row %q: want -3.3%% inside the spread", r)
	}
	if r := rows["EventEngine allocs/op"]; !strings.Contains(r, "0%") || strings.Contains(r, "outside") {
		t.Errorf("allocs row %q: want an unflagged 0%%", r)
	}
	if !strings.Contains(rows["CacheFill (new)"], "CacheFill") || !strings.Contains(rows["Gone (gone)"], "Gone") {
		t.Errorf("report misses the new or gone benchmark:\n%s", out)
	}
	if !strings.Contains(out, "1 metric(s) moved outside the observed spread") {
		t.Errorf("summary line missing:\n%s", out)
	}
}

// FuzzParse feeds arbitrary text to parse. It must never panic, and
// whatever it accepts must survive the snapshot file: the snapshot
// marshals as benchjson writes it, and those bytes unmarshal to an
// equal snapshot. Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		snap, err := parse(bufio.NewScanner(strings.NewReader(in)))
		if err != nil {
			return
		}
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatalf("accepted input does not marshal: %v", err)
		}
		var back Snapshot
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("snapshot does not unmarshal: %v\n%s", err, buf)
		}
		if !reflect.DeepEqual(&back, snap) {
			t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", back, *snap)
		}
	})
}
