package telemetry

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestTraceJSONLRoundTrip pins the stream format: writing, parsing and
// re-writing spans and instants must reproduce the original bytes
// exactly, so downstream tools (coolpim-trace, diffing two runs) can
// treat the JSONL file as canonical.
func TestTraceJSONLRoundTrip(t *testing.T) {
	st := NewSpanTracer()
	root := st.StartRoot(0, st.Name("engine.run")) // left open: end_ps -1
	st.ThermalWarning(1_000_000, true, 85.3)
	sp := st.StartSpan(1_500_000, st.Name(`odd "name"`))
	st.PhaseTransition(2_000_000, "nominal", "derate1", 86.1)
	sp.End(2_500_000)
	st.PoolResize(3_000_000, "sw-ptp", 60, 48, "warning")
	st.instant(4_000_000, EvShutdown, "") // payload-free instant
	_ = root

	var first bytes.Buffer
	if err := st.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	records, err := ParseSpansJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(records, st.Export()) {
		t.Fatalf("parsed records differ from the store:\n%+v\nvs\n%+v", records, st.Export())
	}
	var second bytes.Buffer
	if err := WriteSpansJSONL(&second, records); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%q\nvs\n%q", first.String(), second.String())
	}
	if last := records[len(records)-1]; !last.Instant() || last.Data != "" || last.End != last.Start {
		t.Fatalf("payload-free instant = %+v", last)
	}
	if !records[0].Open() {
		t.Fatalf("open root lost its open marker: %+v", records[0])
	}
}

// TestParseJSONLRejectsGarbage checks ParseSpansJSONL refuses input
// that is not JSON, and JSON lines WriteSpansJSONL would not write.
func TestParseJSONLRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"not json\n",
		"null\n",
		`{"id": 1,"parent":0,"name":"a","start_ps":0,"end_ps":1}` + "\n",
		`{"parent":0,"id":1,"name":"a","start_ps":0,"end_ps":1}` + "\n",
		`{"id":0,"parent":0,"name":"a","start_ps":0,"end_ps":0 ,"x":1}` + "\n",
	} {
		if recs, err := ParseSpansJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %q as %+v", in, recs)
		}
	}
}

// FuzzParseSpansJSONL feeds arbitrary bytes to the stream parser. It
// must never panic, and every input it accepts must be canonical:
// writing the records reproduces the input's non-blank lines, and those
// bytes parse back to the same records.
func FuzzParseSpansJSONL(f *testing.F) {
	f.Add([]byte(`{"id":1,"parent":0,"name":"engine.run","start_ps":0,"end_ps":5000}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		records, err := ParseSpansJSONL(bytes.NewReader(in))
		if err != nil {
			return
		}
		var want strings.Builder
		for _, line := range strings.Split(string(in), "\n") {
			if line = strings.TrimSpace(line); line != "" {
				want.WriteString(line + "\n")
			}
		}
		var out bytes.Buffer
		if err := WriteSpansJSONL(&out, records); err != nil {
			t.Fatal(err)
		}
		if out.String() != want.String() {
			t.Fatalf("accepted input is not canonical:\n%q\nwrites\n%q", want.String(), out.String())
		}
		again, err := ParseSpansJSONL(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("rewritten stream rejected: %v\n%q", err, out.String())
		}
		if !slices.Equal(records, again) {
			t.Fatalf("records changed across a round trip:\n%+v\nvs\n%+v", records, again)
		}
	})
}

// TestHelpEscaping is the S1 regression: HELP text containing
// backslashes or newlines must be escaped per the Prometheus text
// exposition format, or a multiline help string corrupts the whole
// exposition (the continuation line parses as a bogus sample).
func TestHelpEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "first line\nsecond line with a \\ backslash")
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# HELP c_total first line\nsecond line with a \\ backslash` + "\n"
	if !strings.Contains(out, want) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	// Every line must be a comment or a sample — an unescaped newline
	// would have produced a bare "second line..." line.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.HasPrefix(line, "c_total") {
			t.Fatalf("stray exposition line %q:\n%s", line, out)
		}
	}
}

// TestQuantileEdges pins Histogram.Quantile at the boundaries the
// interpolation code special-cases: q=0, q=1, and mass in the +Inf
// bucket beyond the last finite bound.
func TestQuantileEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("q_edges", "test", LinearBounds(10, 10, 10)) // 10..100
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %g, want 0 (interpolates from the first bucket's lower edge)", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("Quantile(1) = %g, want 100", got)
	}
	// Out-of-range q clamps rather than extrapolating.
	if got := h.Quantile(-0.5); got != h.Quantile(0) {
		t.Errorf("Quantile(-0.5) = %g, want clamp to Quantile(0)", got)
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Errorf("Quantile(2) = %g, want clamp to Quantile(1)", got)
	}

	// All mass beyond the last finite bound: every quantile clamps to it.
	h2 := reg.Histogram("q_inf", "test", LinearBounds(10, 10, 2)) // 10, 20
	h2.Observe(1e9)
	h2.Observe(1e9)
	for _, q := range []float64{0.01, 0.5, 1} {
		if got := h2.Quantile(q); got != 20 {
			t.Errorf("Quantile(%g) with +Inf mass = %g, want clamp to 20", q, got)
		}
	}

	// Empty histogram has no quantiles.
	h3 := reg.Histogram("q_empty", "test", LinearBounds(10, 10, 2))
	if got := h3.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("Quantile on empty histogram = %g, want NaN", got)
	}
}
