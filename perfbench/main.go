// Command perfbench is the repository's campaign-level benchmark. It
// runs one of three campaign workloads through the simulator's public
// entry points, checks every cell's simulated output, and prints what
// the campaign cost the host: CPU time scaled to a reference host speed
// in the JSON line, wall-clock time in the table. With -trace 1 it
// instead runs one untraced and one traced pass and prints the
// per-layer split of that time. See README.md.
//
//	perfbench --workload matrix-test --seed 42 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"coolpim/internal/experiments"
	"coolpim/internal/graph"
)

func main() {
	wlName := flag.String("workload", "", "workload: matrix-test, throttle-paper or multicube-net")
	seed := flag.Int64("seed", defaultSeed, "RMAT graph seed (digests are pinned for the default)")
	seconds := flag.Float64("seconds", 20, "measurement budget: campaigns repeat while the next is predicted to end within it")
	trace := flag.Int("trace", 0, "1 = per-layer pass (untraced + traced) instead of the timed loop")
	printDigests := flag.Bool("print-digests", false, "print every cell's digest as Go map entries for digest.go")
	shards := flag.Int("shards", 0, "override the engine shard count of multicube-net (results are identical for every count)")
	flag.Parse()

	w, err := findWorkload(*wlName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	p := w.profile(*seed)
	if *shards > 0 {
		if !p.Sys.Net.Enabled() {
			fmt.Fprintf(os.Stderr, "perfbench: -shards applies to multi-cube workloads only\n")
			os.Exit(2)
		}
		p.Sys.Net.Shards = *shards
		w.threads = min(*shards, p.Sys.Net.Cubes)
	}
	if w.threads > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: %s needs %d host threads per cell, have %d\n", w.name, w.threads, runtime.NumCPU())
		os.Exit(2)
	}
	fmt.Printf("perfbench: workload %s, profile %s (RMAT scale %d, seed %d), %d cells, %d workers\n",
		w.name, p.Name, p.Scale, p.Seed, len(w.workloads)*len(w.policies), w.workers)

	// The timed mode samples the host's speed from before its set-ups to
	// its last campaign.
	var probe *hostProbe
	if *trace == 0 {
		probe = newHostProbe()
		probe.start()
	}
	setups, g, err := timeSetups(p, probe)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	k := newChecker(w.name, *seed)
	var out result
	if *trace == 1 {
		out = runTraceMode(w, p, g, setups, k)
	} else {
		out = runTimedMode(w, p, setups, k, *seconds, probe)
	}
	for _, f := range k.failures {
		fmt.Println("FAILED", f)
	}
	if *printDigests {
		for _, l := range k.pinnedLines() {
			fmt.Println(l)
		}
	}
	if err := out.metrics.validate(out.correct); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.print()
}

// timeSetups repeats the campaign set-up (five times on the small test
// graph, three at paper scale) so setup_s is a median.
func timeSetups(p experiments.Profile, probe *hostProbe) ([]setup, *graph.Graph, error) {
	n := 5
	if p.Scale > 14 {
		n = 3
	}
	var out []setup
	var g *graph.Graph
	for i := 0; i < n; i++ {
		s, gi, err := timeSetup(p, i == 0, probe)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			g = gi
		}
		out = append(out, s)
	}
	return out, g, nil
}

// result is what one invocation prints.
type result struct {
	attempted, failed int
	correct           bool
	// metrics go into the JSON line; extra is printed in the table only.
	metrics, extra *metricSet
}

func (r result) print() {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("\n%-34s %16s  %-7s %s\n", "metric", "value", "unit", "samples")
	rows := append([]metric(nil), r.metrics.list...)
	if r.extra != nil {
		rows = append(rows, r.extra.list...)
	}
	rows = append(rows, metric{Name: "failed_frac", Value: frac, Unit: "ratio", N: r.attempted})
	for _, m := range rows {
		n := ""
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		fmt.Printf("%-34s %16.6g  %-7s %s\n", m.Name, m.Value, m.Unit, n)
	}
	fmt.Println()

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range r.metrics.list {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // only when the run failed: see metricSet.validate
		}
		ms[m.Name] = val{v, m.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// runTimedMode repeats the untraced campaign while the next repetition
// is predicted (from the last one) to end within the budget, and
// reports the end-to-end metrics.
func runTimedMode(w workload, p experiments.Profile, setups []setup, k *checker, seconds float64, probe *hostProbe) result {
	start := time.Now()
	var reps []repetition
	var cpus []float64
	for {
		t0 := time.Now()
		c0 := processCPU() - probe.cpuUsed()
		rep := runCampaign(w, p)
		cpus = append(cpus, processCPU()-probe.cpuUsed()-c0)
		reps = append(reps, rep)
		if time.Since(start).Seconds()+time.Since(t0).Seconds() > seconds {
			break
		}
	}
	probes := probe.finish()

	var out result
	var walls, cellWalls, warpOps []float64
	for i, rep := range reps {
		var ops uint64
		for j := range rep.cells {
			c := &rep.cells[j]
			out.attempted++
			if !k.check(c) {
				out.failed++
				continue
			}
			cellWalls = append(cellWalls, c.wallS)
			ops += c.res.GPU.WarpOps
		}
		fmt.Printf("repetition %d: wall %.3f s, CPU %.3f s, %d cells\n", i+1, rep.wallS, cpus[i], len(rep.cells))
		walls = append(walls, rep.wallS)
		warpOps = append(warpOps, float64(ops))
	}
	for _, c := range reps[0].cells {
		fmt.Printf("  %-24s %8.3f s  digest %s\n", c.key, c.wallS, c.digest)
	}
	out.correct = out.failed == 0

	setupCPU := make([]float64, len(setups))
	setupWall := make([]float64, len(setups))
	for i, s := range setups {
		setupCPU[i], setupWall[i] = s.cpu, s.wall
	}
	scale := probeRef / median(probes)
	out.metrics = endToEndMetrics(setupCPU, cpus, warpOps, scale)
	out.extra = wallMetrics(setupWall, walls, cellWalls, warpOps, peakRSSMB())
	out.extra.add("campaign_cpu_s", median(cpus)*scale, "s", len(cpus))
	out.extra.add("campaign_cpu_unscaled_s", median(cpus), "s", len(cpus))
	out.extra.add("host_probe_ms", 1e3*median(probes), "ms", len(probes))
	return out
}

// probeRef is the probe's median on the reference host (the 2-vCPU VM
// the benchmark was built on, at a quiet time). The JSON metrics are
// scaled by probeRef ÷ the run's probe median, so a run on a host
// running 20 % slow reads the same as one on the reference host.
const probeRef = 6.0e-3 // seconds

// endToEndMetrics assembles the metrics of the JSON line from host CPU
// seconds (so time the host spends running other tenants on our cores
// does not count), scaled to the reference host speed by scale. The
// campaign enters as simulated warp instructions per CPU second: each
// seed's graph makes a different amount of work, and the rate divides
// it out where the campaign's CPU time does not.
func endToEndMetrics(setupCPU, cpus, warpOps []float64, scale float64) *metricSet {
	perCPU := make([]float64, len(cpus))
	for i := range cpus {
		perCPU[i] = warpOps[i] / cpus[i]
	}
	m := &metricSet{}
	m.add("setup_s", median(setupCPU)*scale, "s", len(setupCPU))
	m.add("sim_warp_ops_per_cpu_s", median(perCPU)/scale, "1/s", len(perCPU))
	return m
}

// wallMetrics are the wall-clock numbers a user waits on, printed in the
// table but kept out of the JSON line: on a shared host they move by
// tens of percent from run to run. The cell-wall percentiles are also
// unsteady on their own: the test matrix's cell walls are bimodal with
// the gap at the median. Failed cells are not in cellWalls: a cell that
// errors out early must not read as fast.
func wallMetrics(setupWall, walls, cellWalls, warpOps []float64, rssMB float64) *metricSet {
	rates := make([]float64, len(walls))
	for i := range walls {
		rates[i] = warpOps[i] / walls[i]
	}
	m := &metricSet{}
	m.add("setup_wall_s", median(setupWall), "s", len(setupWall))
	m.add("wall_s", median(walls), "s", len(walls))
	m.add("cell_wall_p50_s", percentile(cellWalls, 50), "s", len(cellWalls))
	m.add("cell_wall_p80_s", percentile(cellWalls, 80), "s", len(cellWalls))
	m.add("sim_warp_ops_per_s", median(rates), "1/s", len(rates))
	m.add("peak_rss_mb", rssMB, "MB", 0)
	return m
}

// runTraceMode runs one untraced campaign (the reference for overhead,
// runner and Go-runtime metrics), then every cell again one at a time,
// each with its own Telemetry, and reports the per-layer split. The
// traced cells must reproduce the untraced digests exactly.
func runTraceMode(w workload, p experiments.Profile, g *graph.Graph, setups []setup, k *checker) result {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := runCampaign(w, p)
	runtime.ReadMemStats(&after)

	t := &traceReport{
		w: w, p: p, setups: setups, untraced: rep,
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		gcCycles: after.NumGC - before.NumGC,
	}
	var out result
	for i := range rep.cells {
		out.attempted++
		if !k.check(&rep.cells[i]) {
			out.failed++
		}
	}
	for _, wl := range w.workloads {
		for _, pol := range w.policies {
			c := runTracedCell(p, g, wl, pol)
			out.attempted++
			if !k.check(&c.cellOutcome) {
				out.failed++
			} else {
				t.traced = append(t.traced, c)
			}
		}
	}
	out.correct = out.failed == 0
	if len(t.traced) == 0 {
		out.metrics = &metricSet{}
		return out
	}

	untracedWall := map[string]float64{}
	for _, c := range rep.cells {
		untracedWall[c.key] = c.wallS
	}
	fmt.Printf("%-24s %10s %10s %9s %12s %s\n", "cell", "untraced_s", "traced_s", "overhead", "tick_spans", "digest")
	for _, c := range t.traced {
		u := untracedWall[c.key]
		fmt.Printf("%-24s %10.3f %10.3f %8.1f%% %5d/%-6d %s\n", c.key, u, c.wallS, 100*(c.wallS/u-1),
			c.ticks.captured, c.labels["thermal"].Events, c.digest)
	}
	out.metrics = t.layerMetrics()
	var shares []string
	for _, m := range out.metrics.list {
		if strings.HasPrefix(m.Name, "sim.handler_share.") {
			shares = append(shares, fmt.Sprintf("%s %.2f%%", strings.TrimPrefix(m.Name, "sim.handler_share."), 100*m.Value))
		}
	}
	fmt.Println("handler time by engine label:", strings.Join(shares, ", "))
	return out
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
