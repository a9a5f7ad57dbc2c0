package telemetry

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"coolpim/internal/units"
)

func TestExponentialBounds(t *testing.T) {
	got := ExponentialBounds(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", got, want)
		}
	}
	for _, bad := range []func(){
		func() { ExponentialBounds(0, 2, 3) },
		func() { ExponentialBounds(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid exponential bounds accepted")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramPercentiles(t *testing.T) {
	reg := NewRegistry()
	// Buckets 10,20,...,100; observe 1..100 uniformly.
	h := reg.Histogram("h", "test", LinearBounds(10, 10, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %g, want 5050", h.Sum())
	}
	for _, tc := range []struct {
		q, want float64
	}{
		{0.5, 50}, {0.9, 90}, {0.1, 10}, {1.0, 100},
	} {
		if got := h.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// Values beyond the last finite bound clamp to it.
	h2 := reg.Histogram("h2", "test", []float64{1, 2})
	h2.Observe(50)
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %g, want 2 (last finite bound)", got)
	}
	// Empty histogram reports NaN.
	h3 := reg.Histogram("h3", "test", []float64{1})
	if got := h3.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %g, want NaN", got)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing bounds did not panic")
		}
	}()
	NewRegistry().Histogram("bad", "", []float64{2, 1})
}

func TestRegistryDuplicateNamePanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate metric name did not panic")
		}
	}()
	reg.GaugeFunc("dup", "", func() float64 { return 0 })
}

func TestCounterNegativeAddPanics(t *testing.T) {
	c := NewRegistry().Counter("c", "")
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c.Add(-1)
}

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("runs_total", "total runs")
	c.Inc()
	c.Inc()
	reg.GaugeFunc("temp_celsius", "current temp", func() float64 { return 86.5 })
	h := reg.Histogram("lat_ns", "latency", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE runs_total counter\nruns_total 2\n",
		"# TYPE temp_celsius gauge\ntemp_celsius 86.5\n",
		"# TYPE lat_ns histogram\n",
		`lat_ns_bucket{le="10"} 1`,
		`lat_ns_bucket{le="100"} 2`,
		`lat_ns_bucket{le="+Inf"} 3`,
		"lat_ns_sum 5055\n",
		"lat_ns_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name value" with a parseable value; names
	// sorted ascending.
	var prevName string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed line %q", line)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if name < prevName {
			t.Errorf("metrics not sorted: %q after %q", name, prevName)
		}
		prevName = name
	}
}

func TestLabeledFuncMetrics(t *testing.T) {
	reg := NewRegistry()
	for cube := 0; cube < 3; cube++ {
		cube := cube
		reg.CounterFuncLabeled("pim_ops_total", "PIM ops served", "cube", strconv.Itoa(cube),
			func() float64 { return float64(100 + cube) })
	}
	reg.GaugeFuncLabeled("peak_celsius", "peak temp", "cube", "0", func() float64 { return 86.5 })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pim_ops_total{cube="0"} 100`,
		`pim_ops_total{cube="1"} 101`,
		`pim_ops_total{cube="2"} 102`,
		`peak_celsius{cube="0"} 86.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE header for the whole labeled family.
	if got := strings.Count(out, "# TYPE pim_ops_total counter"); got != 1 {
		t.Errorf("TYPE header emitted %d times, want 1:\n%s", got, out)
	}

	// Duplicate series and cross-type reuse of a base name must panic.
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("duplicate labeled series", func() {
		reg.CounterFuncLabeled("pim_ops_total", "", "cube", "1", func() float64 { return 0 })
	})
	mustPanic("type mismatch on base name", func() {
		reg.GaugeFuncLabeled("pim_ops_total", "", "cube", "9", func() float64 { return 0 })
	})
	mustPanic("invalid label name", func() {
		reg.CounterFuncLabeled("ok_total", "", "bad label", "x", func() float64 { return 0 })
	})
}

// TestTracerKindsAndJSONL pins the JSONL line of every instant kind:
// ID 0, start_ps == end_ps, payload fields after end_ps.
func TestTracerKindsAndJSONL(t *testing.T) {
	st := NewSpanTracer()
	st.PoolInit(0, "sw-ptp", 64)
	st.ThermalWarning(10*units.Microsecond, true, 86.2)
	st.PhaseTransition(10*units.Microsecond, "Normal", "Extended", 86.2)
	st.PoolResize(12*units.Microsecond, "sw-ptp", 64, 58, "warning")
	st.OffloadBlock(13*units.Microsecond, false, 3, 41)
	st.OffloadBlock(13*units.Microsecond, true, 4, 42)
	st.LinkBackpressure(14*units.Microsecond, 2, 120*units.Nanosecond)
	st.ThermalWarning(20*units.Microsecond, false, 84.9)
	st.Shutdown(30*units.Microsecond, 105.5)

	var sb strings.Builder
	if err := st.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{"id":0,"parent":0,"name":"pool.init","start_ps":0,"end_ps":0,"mechanism":"sw-ptp","size":64}
{"id":0,"parent":0,"name":"thermal.warning.raise","start_ps":10000000,"end_ps":10000000,"temp_c":86.20}
{"id":0,"parent":0,"name":"thermal.phase","start_ps":10000000,"end_ps":10000000,"from":"Normal","to":"Extended","temp_c":86.20}
{"id":0,"parent":0,"name":"pool.resize","start_ps":12000000,"end_ps":12000000,"mechanism":"sw-ptp","from":64,"to":58,"reason":"warning"}
{"id":0,"parent":0,"name":"offload.reject","start_ps":13000000,"end_ps":13000000,"sm":3,"block":41}
{"id":0,"parent":0,"name":"offload.accept","start_ps":13000000,"end_ps":13000000,"sm":4,"block":42}
{"id":0,"parent":0,"name":"link.backpressure","start_ps":14000000,"end_ps":14000000,"link":2,"wait_ns":120.0}
{"id":0,"parent":0,"name":"thermal.warning.clear","start_ps":20000000,"end_ps":20000000,"temp_c":84.90}
{"id":0,"parent":0,"name":"thermal.shutdown","start_ps":30000000,"end_ps":30000000,"temp_c":105.50}
`
	if sb.String() != want {
		t.Fatalf("JSONL =\n%s\nwant\n%s", sb.String(), want)
	}
	if spans, instants := st.counts(); spans != 0 || instants != 9 {
		t.Errorf("counts = %d spans, %d instants; want 0, 9", spans, instants)
	}
	if rows := st.countsByName(); len(rows) != 9 {
		t.Errorf("countsByName rows = %d, want 9 distinct kinds", len(rows))
	}
	// Instants take no span ID: the next span is still span 1.
	if id := st.StartSpan(40*units.Microsecond, st.Name("engine.run")).ID(); id != 1 {
		t.Errorf("first span after instants got ID %d, want 1", id)
	}
}

// suppressed returns name's rate-limited count from countsByName.
func suppressed(st *SpanTracer, name string) uint64 {
	for _, r := range st.countsByName() {
		if r.Name == name {
			return r.Suppressed
		}
	}
	return 0
}

func TestTracerRateLimit(t *testing.T) {
	st := NewSpanTracer()
	st.SetMinGap(EvBackpressure, units.Microsecond)
	for i := 0; i < 10; i++ {
		st.LinkBackpressure(units.Time(i)*100*units.Nanosecond, 0, units.Nanosecond)
	}
	// Instants at 0..900ns: only the first survives a 1us gap.
	if len(st.Export()) != 1 {
		t.Fatalf("Len = %d, want 1 after rate limiting", len(st.Export()))
	}
	st.LinkBackpressure(2*units.Microsecond, 0, units.Nanosecond)
	if len(st.Export()) != 2 {
		t.Fatalf("Len = %d, want 2 after the gap elapses", len(st.Export()))
	}
	if got := suppressed(st, "link.backpressure"); got != 9 {
		t.Fatalf("suppressed = %d, want 9", got)
	}
	// Other kinds are unaffected.
	st.ThermalWarning(0, true, 86)
	st.ThermalWarning(1, false, 86)
	if len(st.Export()) != 4 {
		t.Fatalf("Len = %d, want 4 (no gap on warnings)", len(st.Export()))
	}
}

// TestTracerCapDropsExcess checks that instants count against the one
// store cap and that what it turns away is counted.
func TestTracerCapDropsExcess(t *testing.T) {
	st := NewSpanTracer()
	st.maxSpans = 3
	st.StartSpan(0, st.Name("gpu.kernel")).End(1)
	for i := 0; i < 4; i++ {
		st.OffloadBlock(units.Time(i), true, 0, i)
	}
	if len(st.Export()) != 3 || st.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", len(st.Export()), st.Dropped())
	}
}

// TestNilTracerZeroAlloc pins the disabled-telemetry contract: every
// instant emitter on a nil tracer (and Observe on a nil histogram) must
// not allocate, so components can call them unguarded on the hot path.
func TestNilTracerZeroAlloc(t *testing.T) {
	var st *SpanTracer
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		st.ThermalWarning(0, true, 86)
		st.PhaseTransition(0, "a", "b", 86)
		st.Shutdown(0, 106)
		st.PoolInit(0, "sw-ptp", 4)
		st.PoolResize(0, "sw-ptp", 4, 3, "warning")
		st.OffloadBlock(0, true, 1, 2)
		st.LinkBackpressure(0, 0, 1)
		h.Observe(1.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracer emits allocated %.1f times per run, want 0", allocs)
	}
}

func TestEngineProfileAggregates(t *testing.T) {
	p := NewEngineProfile()
	p.EventExecuted("hmc", 0, 100)
	p.EventExecuted("hmc", 1, 50)
	p.EventExecuted("gpu", 2, 30)
	p.EventExecuted("", 3, 10)
	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("rows = %d, want 3", len(stats))
	}
	if stats[0].Label != "hmc" || stats[0].Events != 2 || stats[0].WallNs != 150 {
		t.Errorf("top row = %+v, want hmc/2/150", stats[0])
	}
	if stats[2].Label != "(unlabeled)" {
		t.Errorf("empty label not mapped: %+v", stats[2])
	}
}

func TestWriteSummarySmoke(t *testing.T) {
	tel := New()
	tel.Spans.ThermalWarning(0, true, 86)
	tel.Registry.Counter("x_total", "").Inc()
	tel.Profile().EventExecuted("hmc", 0, 42)
	// A sampled span family: one stored, two rate-limited. A sampled
	// name nothing suppressed still reports its count.
	pim := tel.Spans.Name("hmc.pim")
	tel.Spans.SetMinGap(pim, 100)
	tel.Spans.SetMinGap(tel.Spans.Name("hmc.read"), 100)
	for at := units.Time(0); at < 30; at += 10 {
		tel.Spans.StartSpan(at, pim).End(at + 5)
	}
	var sb strings.Builder
	if err := tel.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"trace records (1 events, 1 spans):",
		"thermal.warning.raise", "hmc", "x_total",
		"hmc.pim                             1  (+2 rate-limited)",
		"hmc.read                            0  (+0 rate-limited)",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, sb.String())
		}
	}
	if strings.Contains(sb.String(), "dropped") {
		t.Errorf("summary reports drops under the cap:\n%s", sb.String())
	}
	// Past the cap the summary names what the store discarded.
	tel.Spans.maxSpans = len(tel.Spans.Export())
	tel.Spans.Shutdown(40, 106)
	tel.Spans.PoolInit(40, "hw-pcu", 8)
	sb.Reset()
	if err := tel.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "trace records dropped at the store cap: 2\n"; !strings.Contains(sb.String(), want) {
		t.Errorf("summary missing %q:\n%s", want, sb.String())
	}
	// Disabled hub: summary is a silent no-op.
	var nilTel *Telemetry
	if err := nilTel.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if nilTel.Enabled() {
		t.Error("nil hub reports enabled")
	}
}
