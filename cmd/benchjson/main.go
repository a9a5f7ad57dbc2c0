// benchjson converts `go test -bench` text output into the repo's
// machine-readable benchmark snapshot format (BENCH_<n>.json): one
// record per benchmark with its iteration count and every reported
// metric (ns/op, B/op, allocs/op, MB/s and custom b.ReportMetric
// units). `make bench-json` pipes the performance-trajectory benches
// through it and commits the result, so every future PR can be
// compared against the committed baselines.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem -count 5 . | benchjson [-out FILE] [-compare BENCH_n.json]
//
// Multiple concatenated `go test` outputs may be piped in; header
// lines (goos/goarch/pkg/cpu) are folded into the snapshot metadata.
// The repeated lines of one benchmark (`-count N`) fold into one
// record: the median of each metric, with its min and max.
//
// -compare prints, for every metric the two snapshots share, the old
// and new medians, the new run's spread and the relative delta, to
// standard error. A delta is flagged "outside spread" when the two
// snapshots' min-max ranges do not overlap: the change is larger than
// the run-to-run variation either snapshot observed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Benchmark is one benchmark's record: a single result line as parsed,
// or the fold of its repeated lines.
type Benchmark struct {
	// Name is the benchmark name with the Benchmark prefix and the
	// trailing -<GOMAXPROCS> suffix stripped: "EventEngine",
	// "Fig10Speedup/dc/Naive-Offloading".
	Name string `json:"name"`
	// Iterations is the median iteration count of the runs.
	Iterations int64 `json:"iterations"`
	// Runs counts the folded result lines (absent, meaning 1, in
	// schema-1 snapshots).
	Runs int `json:"runs,omitempty"`
	// Metrics holds each metric's median over the runs; Min and Max
	// its extremes (absent in schema-1 snapshots: equal to Metrics).
	Metrics map[string]float64 `json:"metrics"`
	Min     map[string]float64 `json:"min,omitempty"`
	Max     map[string]float64 `json:"max,omitempty"`
}

// Snapshot is the whole BENCH_<n>.json document.
type Snapshot struct {
	Schema     int               `json:"schema"`
	Meta       map[string]string `json:"meta"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.String("compare", "", "snapshot to compare the input against (report on stderr)")
	flag.Parse()

	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fail(err)
	}
	if len(snap.Benchmarks) == 0 {
		fail(fmt.Errorf("no benchmark lines on stdin"))
	}
	if *compare != "" {
		old, err := load(*compare)
		if err != nil {
			fail(err)
		}
		report(os.Stderr, *compare, old, snap)
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(snap.Benchmarks))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// load reads a committed snapshot file.
func load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// parse reads `go test -bench` text and folds each benchmark's result
// lines into one record, in order of first appearance.
func parse(sc *bufio.Scanner) (*Snapshot, error) {
	snap := &Snapshot{Schema: 2, Meta: map[string]string{}}
	var lines []Benchmark
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || line == "PASS" || strings.HasPrefix(line, "ok ") ||
			strings.HasPrefix(line, "testing:") || strings.HasPrefix(line, "--- "):
			continue
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			snap.Meta[k] = strings.TrimSpace(v)
			continue
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			lines = append(lines, b)
		}
	}
	snap.Benchmarks = fold(lines)
	return snap, sc.Err()
}

// fold merges the result lines that share a name into one record per
// benchmark: the median, min and max of each metric and the median
// iteration count.
func fold(lines []Benchmark) []Benchmark {
	var order []string
	runs := map[string][]Benchmark{}
	for _, b := range lines {
		if _, seen := runs[b.Name]; !seen {
			order = append(order, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		rs := runs[name]
		f := Benchmark{Name: name, Runs: len(rs), Metrics: map[string]float64{},
			Min: map[string]float64{}, Max: map[string]float64{}}
		iters := make([]float64, len(rs))
		for i, r := range rs {
			iters[i] = float64(r.Iterations)
		}
		f.Iterations = int64(median(iters))
		for _, r := range rs {
			for unit := range r.Metrics {
				f.Metrics[unit] = 0 // the union of the runs' units
			}
		}
		for unit := range f.Metrics {
			var vs []float64
			for _, r := range rs {
				if v, ok := r.Metrics[unit]; ok {
					vs = append(vs, v)
				}
			}
			f.Metrics[unit] = median(vs)
			f.Min[unit] = slices.Min(vs)
			f.Max[unit] = slices.Max(vs)
		}
		out = append(out, f)
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count). It sorts vs in place.
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// spread returns a metric's min-max range; a schema-1 record has none
// recorded, so its single value is both ends.
func (b Benchmark) spread(unit string) (lo, hi float64) {
	v := b.Metrics[unit]
	lo, hi = v, v
	if m, ok := b.Min[unit]; ok {
		lo = m
	}
	if m, ok := b.Max[unit]; ok {
		hi = m
	}
	return lo, hi
}

// report writes one row per metric the two snapshots share, then the
// benchmarks only one of them has.
func report(w io.Writer, oldName string, old, cur *Snapshot) {
	prev := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tmetric\t%s\tnew\tnew min..max\tdelta\t\n", oldName)
	flagged := 0
	for _, b := range cur.Benchmarks {
		o, ok := prev[b.Name]
		if !ok {
			fmt.Fprintf(tw, "%s\t\t\t\t\t(new)\t\n", b.Name)
			continue
		}
		delete(prev, b.Name)
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			if _, ok := o.Metrics[unit]; ok {
				units = append(units, unit)
			}
		}
		slices.Sort(units)
		for _, unit := range units {
			ov, nv := o.Metrics[unit], b.Metrics[unit]
			olo, ohi := o.spread(unit)
			nlo, nhi := b.spread(unit)
			mark := ""
			if nlo > ohi || nhi < olo {
				mark = "outside spread"
				flagged++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s..%s\t%s\t%s\n", b.Name, unit,
				num(ov), num(nv), num(nlo), num(nhi), delta(ov, nv), mark)
		}
	}
	for _, b := range old.Benchmarks {
		if _, gone := prev[b.Name]; gone {
			fmt.Fprintf(tw, "%s\t\t\t\t\t(gone)\t\n", b.Name)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "%d metric(s) moved outside the observed spread\n", flagged)
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// delta formats the relative change from ov to nv.
func delta(ov, nv float64) string {
	switch {
	case ov == nv:
		return "0%"
	case ov == 0:
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (nv-ov)/math.Abs(ov)*100)
}

// parseBenchLine parses one result line:
//
//	BenchmarkEventEngine-8   9371869   123.4 ns/op   0 B/op   0 allocs/op
func parseBenchLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, fmt.Errorf("too few fields")
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -<GOMAXPROCS> suffix from the last path element only.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iteration count: %w", err)
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	// The remainder is (value, unit) pairs.
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, fmt.Errorf("odd value/unit tail %v", rest)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("metric %s: %w", rest[i+1], err)
		}
		b.Metrics[rest[i+1]] = v
	}
	return b, nil
}
