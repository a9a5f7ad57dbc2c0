package system

import (
	"strings"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/telemetry"
)

// TestSpanTreeCoversRun pins the tentpole causal tree: a telemetry-
// enabled run records an "engine.run" root, thermal ticks parented
// under it, kernel spans with block children, per-request HMC spans,
// and — when the policy actually throttled — throttle reaction spans.
// The control loop's instants (ID 0) ride in the same stream.
func TestSpanTreeCoversRun(t *testing.T) {
	cfg := thrashCfg()
	tel := telemetry.New()
	cfg.Telemetry = tel
	res, err := Run("dc", core.CoolPIMHW, cfg, testGraph)
	if err != nil {
		t.Fatal(err)
	}

	spans := tel.Spans.Export()
	byName := map[string][]telemetry.SpanExport{}
	byID := map[telemetry.SpanID]telemetry.SpanExport{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if !s.Instant() {
			byID[s.ID] = s
		}
	}
	if len(byName["pool.init"]) != 1 || len(byName["offload.accept"]) == 0 {
		t.Errorf("stream holds %d pool.init and %d offload.accept instants, want 1 and some",
			len(byName["pool.init"]), len(byName["offload.accept"]))
	}

	roots := byName["engine.run"]
	if len(roots) == 0 {
		t.Fatal("no engine.run root span recorded")
	}
	for _, r := range roots {
		if r.Parent != 0 {
			t.Errorf("engine.run span %d has parent %d, want root", r.ID, r.Parent)
		}
		if r.Open() {
			t.Errorf("engine.run span %d never ended", r.ID)
		}
	}

	ticks := byName["thermal.tick"]
	if len(ticks) == 0 {
		t.Fatal("no thermal.tick spans recorded")
	}
	for _, s := range ticks[:min(len(ticks), 50)] {
		parent, ok := byID[s.Parent]
		if !ok || parent.Name != "engine.run" {
			t.Fatalf("thermal.tick span %d parented under %q, want engine.run", s.ID, parent.Name)
		}
	}

	kernels := byName["gpu.kernel"]
	if len(kernels) == 0 {
		t.Fatal("no gpu.kernel spans recorded")
	}
	blocks := append(byName["gpu.block.pim"], byName["gpu.block.nonpim"]...)
	if len(blocks) == 0 {
		t.Fatal("no gpu block spans recorded")
	}
	for _, b := range blocks[:min(len(blocks), 50)] {
		parent, ok := byID[b.Parent]
		if !ok || parent.Name != "gpu.kernel" {
			t.Fatalf("block span %d parented under %q, want gpu.kernel", b.ID, parent.Name)
		}
	}

	if len(byName["hmc.read"])+len(byName["hmc.write"])+len(byName["hmc.pim"]) == 0 {
		t.Fatal("no hmc request spans recorded")
	}
	// System wiring samples the per-request families and backpressure to
	// one record per thermal tick; without it a full-scale run evicts
	// the rare control spans out of the capped store (see
	// TestThrottleReactSpansRecorded).
	for _, fam := range []string{"hmc.read", "hmc.write", "hmc.pim", "link.backpressure"} {
		if n := len(byName[fam]); n > len(ticks)+2 {
			t.Errorf("%d %s spans for %d thermal ticks: min-gap sampling not applied", n, fam, len(ticks))
		}
	}

	// The warning → throttle causal edge: whenever the mechanism applied
	// control updates, the reaction spans must be present (and vice
	// versa, their count cannot exceed the updates applied).
	throttles := 0
	for name, ss := range byName {
		if strings.HasPrefix(name, "throttle.react.") {
			throttles += len(ss)
		}
	}
	if res.ControlUpdates > 0 && throttles == 0 {
		t.Errorf("%d control updates applied but no throttle.react spans", res.ControlUpdates)
	}
	if uint64(throttles) > res.ControlUpdates {
		t.Errorf("%d throttle.react spans exceed %d control updates", throttles, res.ControlUpdates)
	}

	// Every span closed by end of run except, possibly, none: the run
	// drains fully, so open spans indicate a missing End.
	for _, s := range spans {
		if s.Open() {
			t.Errorf("span %d (%s) still open after the run drained", s.ID, s.Name)
		}
	}
}

// TestDisabledTelemetryRecordsNothing pins that a run without telemetry
// attaches no span or flight machinery (the nil-instrument fast path).
func TestDisabledTelemetryRecordsNothing(t *testing.T) {
	cfg := thrashCfg()
	if _, err := Run("dc", core.CoolPIMHW, cfg, testGraph); err != nil {
		t.Fatal(err)
	}
	var st *telemetry.SpanTracer
	if len(st.Export()) != 0 {
		t.Fatal("nil tracer claims spans")
	}
}

// TestThrottleReactSpansRecorded drives the warning → reaction edge for
// real: lowering the cube's warning threshold to just above ambient
// makes even the small test graph raise thermal warnings, so this test
// cannot pass vacuously the way the ControlUpdates conditional in
// TestSpanTreeCoversRun can on a cool run. It is the regression guard
// for the full-scale bug where per-request HMC spans filled the capped
// span store before the first throttle reaction ever happened.
func TestThrottleReactSpansRecorded(t *testing.T) {
	cfg := thrashCfg()
	cfg.HMC.WarnTemp = 26 // ambient is 25 C: any heating raises warnings
	tel := telemetry.New()
	cfg.Telemetry = tel
	res, err := Run("dc", core.CoolPIMHW, cfg, testGraph)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlUpdates == 0 {
		t.Fatal("lowered warning threshold produced no control updates; test cannot exercise the throttle path")
	}
	reacts := 0
	for _, s := range tel.Spans.Export() {
		if s.Name == "throttle.react.hw" {
			reacts++
			if s.Open() {
				t.Errorf("throttle.react.hw span %d never ended", s.ID)
			}
		}
	}
	if reacts == 0 {
		t.Fatalf("%d control updates applied but no throttle.react.hw spans recorded", res.ControlUpdates)
	}
	if uint64(reacts) > res.ControlUpdates {
		t.Errorf("%d throttle.react.hw spans exceed %d control updates", reacts, res.ControlUpdates)
	}
}
