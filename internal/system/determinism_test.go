package system

import (
	"strings"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/kernels"
	"coolpim/internal/telemetry"
)

// telemetryRun executes one instrumented run and returns the result plus
// the three rendered exports: the span and instant stream, metrics and
// series.
func telemetryRun(t *testing.T, pol core.PolicyKind) (*Result, string, string, string) {
	t.Helper()
	cfg := thrashCfg()
	cfg.Telemetry = telemetry.New()
	w, err := kernels.New("pagerank")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWorkload(w, pol, cfg, testGraph)
	if err != nil {
		t.Fatal(err)
	}
	var trace, metrics, series strings.Builder
	if err := cfg.Telemetry.Spans.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Telemetry.Registry.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Telemetry.Series.WriteCSV(&series); err != nil {
		t.Fatal(err)
	}
	return res, trace.String(), metrics.String(), series.String()
}

// TestTelemetryDeterminism is the determinism regression test for the
// observability layer: two same-seed instrumented runs must produce
// byte-identical stream, metrics and series exports and equal run stats.
// Wall-clock profiling data must never leak into the exporters (it only
// appears in the human-readable summary), or this test fails.
func TestTelemetryDeterminism(t *testing.T) {
	resA, traceA, metricsA, seriesA := telemetryRun(t, core.CoolPIMHW)
	resB, traceB, metricsB, seriesB := telemetryRun(t, core.CoolPIMHW)
	if traceA != traceB {
		t.Errorf("JSONL streams differ between same-seed runs (%d vs %d bytes)",
			len(traceA), len(traceB))
	}
	if metricsA != metricsB {
		t.Errorf("Prometheus exports differ between same-seed runs:\n--- A\n%s\n--- B\n%s",
			metricsA, metricsB)
	}
	if seriesA != seriesB {
		t.Errorf("CSV series differ between same-seed runs (%d vs %d bytes)",
			len(seriesA), len(seriesB))
	}
	if resA.Runtime != resB.Runtime || resA.PIMOps != resB.PIMOps ||
		resA.WarningsSeen != resB.WarningsSeen || resA.ControlUpdates != resB.ControlUpdates ||
		resA.PeakDRAM != resB.PeakDRAM || resA.FinalPoolSize != resB.FinalPoolSize {
		t.Errorf("run stats diverged:\nA: %+v\nB: %+v", resA, resB)
	}
	if traceA == "" {
		t.Error("instrumented run recorded no stream records")
	}
}

// TestTelemetryMatchesUninstrumentedRun pins that attaching the
// observability layer does not perturb the simulation: the instrumented
// and bare runs must report identical physics.
func TestTelemetryMatchesUninstrumentedRun(t *testing.T) {
	resTel, _, _, _ := telemetryRun(t, core.CoolPIMSW)
	resBare := mustRun(t, "pagerank", core.CoolPIMSW, thrashCfg())
	if resTel.Runtime != resBare.Runtime || resTel.PIMOps != resBare.PIMOps ||
		resTel.PeakDRAM != resBare.PeakDRAM || resTel.ExtDataBytes != resBare.ExtDataBytes {
		t.Errorf("telemetry perturbed the run:\nwith:    %v/%d/%v\nwithout: %v/%d/%v",
			resTel.Runtime, resTel.PIMOps, resTel.PeakDRAM,
			resBare.Runtime, resBare.PIMOps, resBare.PeakDRAM)
	}
}

// TestTelemetryWiring checks the cross-component event plumbing on one
// instrumented run: pool lifecycle events, offload decisions and a
// populated metrics registry.
func TestTelemetryWiring(t *testing.T) {
	res, trace, metrics, series := telemetryRun(t, core.CoolPIMSW)
	for _, want := range []string{`"name":"pool.init"`, `"mechanism":"sw-ptp"`, `"name":"offload.`} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	for _, want := range []string{
		"coolpim_pim_ops_total", "coolpim_pool_size",
		"coolpim_peak_dram_celsius", "coolpim_dram_temp_celsius_bucket",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.HasPrefix(series, "t_ms,pim_rate_ops_per_ns,ext_bw_gbps,peak_dram_c,pool_size\n") {
		t.Errorf("unexpected series header: %q", strings.SplitN(series, "\n", 2)[0])
	}
	if strings.Count(series, "\n") < 2 {
		t.Errorf("series recorded no samples:\n%s", series)
	}
	if res.PIMOps == 0 {
		t.Error("instrumented SW run offloaded nothing")
	}
}
