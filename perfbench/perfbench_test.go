package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/system"
	"coolpim/internal/units"
)

// tinyWorkload is one single-threaded cell on a 256-vertex graph: a
// campaign that runs in milliseconds.
func tinyWorkload(maxSim units.Time) workload {
	return workload{
		name:      "tiny",
		workloads: []string{"bfs-ta"},
		policies:  []core.PolicyKind{core.CoolPIMHW},
		workers:   1,
		threads:   1,
		profile: func(seed int64) experiments.Profile {
			p := experiments.TestProfile()
			p.Scale = 8
			p.Seed = seed
			if maxSim > 0 {
				p.Sys.MaxSimTime = maxSim
			}
			return p
		},
	}
}

// testSeed is not the default seed, so the checker applies only its
// repetition-determinism part (no pinned digest exists for "tiny").
const testSeed = 7

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64 // the rank, since sample k has value k
	}{
		{50, 80, 40}, // 10 of 50 cells lie beyond p80
		{50, 50, 25},
		{3, 50, 2}, // the middle of the three paper cells
		{3, 80, 3},
		{1, 50, 1},
		{1, 80, 1},
		{10, 50, 5},
	}
	for _, c := range cases {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%v of %d samples = %v, want the %vth", c.p, c.n, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMetricNameCharset(t *testing.T) {
	good := []string{"setup_s", "sim.handler_s.hmc", "a", "9-x.y_z"}
	bad := []string{"", "_x", ".x", "has space", "x/y", "é", string(make([]byte, 65))}
	for _, n := range good {
		if !metricNameRE.MatchString(n) {
			t.Errorf("%q rejected", n)
		}
	}
	for _, n := range bad {
		if metricNameRE.MatchString(n) {
			t.Errorf("%q accepted", n)
		}
	}
	dup := &metricSet{}
	dup.add("x", 1, "s", 0)
	dup.add("x", 2, "s", 0)
	if dup.validate(true) == nil {
		t.Error("duplicate metric name accepted")
	}
}

// TestMetricsMatchBenchmarkJSON checks that both modes emit exactly the
// metrics BENCHMARK.json declares, with the declared units, and that
// every name and unit is within the charset.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEndMetrics([]float64{1}, []float64{1}, []float64{1}, 1)
	wall := wallMetrics([]float64{1}, []float64{1}, []float64{1}, []float64{1}, 1)
	if err := wall.validate(true); err != nil {
		t.Errorf("table-only metrics: %v", err)
	}
	rep := repetition{wallS: 1, cells: []cellOutcome{{key: "k", wallS: 1}}}
	tr := &traceReport{
		w: tinyWorkload(0), p: tinyWorkload(0).profile(testSeed), setups: []setup{{wall: 1, cpu: 1, gen: 1}}, untraced: rep,
		traced: []tracedCell{{cellOutcome: cellOutcome{key: "k", wallS: 1, res: &system.Result{}}}},
	}
	layer := tr.layerMetrics()
	for _, c := range []struct {
		what string
		got  *metricSet
		want []decl
	}{{"end_to_end", e2e, spec.EndToEnd}, {"per_layer", layer, spec.PerLayer}} {
		if err := c.got.validate(false); err != nil {
			t.Errorf("%s: %v", c.what, err)
		}
		var got, want []string
		for _, m := range c.got.list {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range c.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("%s: emits %d metrics, BENCHMARK.json declares %d", c.what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: emits %q, BENCHMARK.json declares %q", c.what, got[i], want[i])
			}
		}
	}
}

func TestDigestDeterministic(t *testing.T) {
	w := tinyWorkload(0)
	p := w.profile(testSeed)
	k := newChecker(w.name, testSeed)
	var digests []string
	for i := 0; i < 2; i++ {
		rep := runCampaign(w, p)
		if rep.err != nil {
			t.Fatal(rep.err)
		}
		c := &rep.cells[0]
		if !k.check(c) {
			t.Fatalf("repetition %d failed the check: %v", i, k.failures)
		}
		digests = append(digests, c.digest)
		if i == 0 {
			// Every covered field must move the digest.
			r := *c.res
			r.PIMOps++
			if digest(&r) == c.digest {
				t.Error("digest ignores PIM ops")
			}
			r = *c.res
			r.PeakDRAM = units.Celsius(math.Nextafter(float64(r.PeakDRAM), 1000))
			if digest(&r) == c.digest {
				t.Error("digest ignores the low bits of the peak DRAM temperature")
			}
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("digest differs across repetitions: %s vs %s", digests[0], digests[1])
	}

	// A mismatching repetition is a failure.
	rep := runCampaign(w, p)
	rep.cells[0].res.FinalPoolSize++
	if k.check(&rep.cells[0]) {
		t.Error("a changed final pool passed the repetition check")
	}
}

// TestForcedFailureCountsAsFailed runs a cell whose MaxSimTime is far too
// short to finish: it must count as failed and stay out of the cell-wall
// statistics rather than read as a fast cell.
func TestForcedFailureCountsAsFailed(t *testing.T) {
	w := tinyWorkload(units.Nanosecond)
	p := w.profile(testSeed)
	setups := []setup{{wall: 0.1, cpu: 0.1, gen: 0.1}}
	probe := newHostProbe()
	probe.start()
	out := runTimedMode(w, p, setups, newChecker(w.name, testSeed), 0, probe)
	if out.correct || out.attempted != 1 || out.failed != 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false 1 1", out.correct, out.attempted, out.failed)
	}
	for _, m := range out.extra.list {
		if m.Name == "cell_wall_p50_s" && !math.IsNaN(m.Value) {
			t.Errorf("failed cell reported a cell wall of %v s", m.Value)
		}
	}
	if err := out.metrics.validate(out.correct); err != nil {
		t.Errorf("a failed run's metrics do not print: %v", err)
	}
}

func TestShutdownFailsOnlyUnderAController(t *testing.T) {
	k := newChecker("tiny", testSeed)
	for _, c := range []struct {
		pol  core.PolicyKind
		pass bool
	}{
		{core.NonOffloading, true},
		{core.NaiveOffloading, true},
		{core.CoolPIMSW, false},
		{core.CoolPIMHW, false},
		{core.IdealThermal, false},
	} {
		cell := cellOutcome{key: cellKey("bfs-ta", c.pol), pol: c.pol, res: &system.Result{Shutdown: true}}
		if got := k.check(&cell); got != c.pass {
			t.Errorf("%v: thermal shutdown passed=%v, want %v", c.pol, got, c.pass)
		}
	}
}
