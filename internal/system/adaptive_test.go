package system

import (
	"math"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/flit"
	"coolpim/internal/hmc"
	"coolpim/internal/mem"
	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// adaptiveFixture is a coupler harness whose cube traffic the test
// drives directly, so power steps land exactly where the scenario
// wants them.
type adaptiveFixture struct {
	eng     *sim.Engine
	cube    *hmc.Cube
	coupler *thermalCoupler
	cfg     Config
	now     units.Time
}

func newAdaptiveFixture(tb testing.TB, mutate func(*Config)) *adaptiveFixture {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.ThermalMode = ThermalAdaptive
	if mutate != nil {
		mutate(&cfg)
	}
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, cfg.HMC)
	f := &adaptiveFixture{eng: eng, cube: cube, cfg: cfg}
	f.burst(64)
	f.coupler = newThermalCoupler(cube, thermal.New(cfg.Stack, cfg.Cooling), cfg)
	return f
}

// burst submits n read requests and drains the engine, moving the
// cube's activity counters.
func (f *adaptiveFixture) burst(n int) {
	for i := 0; i < n; i++ {
		f.cube.Submit(f.now, flit.Request{Cmd: flit.CmdRead64, Addr: uint64(i*4096) % (1 << 20)},
			func(flit.Response, units.Time) {})
	}
	f.eng.Run()
}

// tick advances one thermal tick and returns the reported peak.
func (f *adaptiveFixture) tick() units.Celsius {
	f.now += f.cfg.ThermalTick
	return f.coupler.tick(f.now, f.cfg.ThermalTick)
}

// TestAdaptiveSkipsQuasiStaticTicks pins the basic interval behaviour:
// after the first (breaching, cold-start) solve, constant power folds
// ticks up to the horizon, and the default 10-tick horizon yields a
// ~90% skip rate.
func TestAdaptiveSkipsQuasiStaticTicks(t *testing.T) {
	f := newAdaptiveFixture(t, nil)
	for i := 0; i < 101; i++ {
		f.tick()
	}
	st := f.coupler.stats()
	if st.Ticks != 101 {
		t.Fatalf("coupler saw %d ticks, want 101", st.Ticks)
	}
	// Tick 1 breaches (cold snapshot), then every 10-tick window solves
	// once: 9 skipped + 1 horizon flush.
	if st.Skipped < 85 || st.Skipped > 95 {
		t.Errorf("skipped %d of 101 quasi-static ticks, want ~90", st.Skipped)
	}
	if st.Fast == 0 {
		t.Error("no coalesced fast solves despite quasi-static power")
	}
	if rate := st.skipRate(); rate < 0.8 {
		t.Errorf("skip rate %.2f, want > 0.8", rate)
	}
}

// TestAdaptiveHorizonNonDivisible pins the horizon cap when
// MaxThermalInterval is not a multiple of ThermalTick: with a 25 µs
// horizon over 10 µs ticks the coalesced window must be 2 ticks (20 µs
// ≤ cap), never 3 (30 µs would overrun the cap).
func TestAdaptiveHorizonNonDivisible(t *testing.T) {
	f := newAdaptiveFixture(t, func(cfg *Config) {
		cfg.MaxThermalInterval = 25 * units.Microsecond
	})
	// Warm past the cold-start transient, then drain so the next tick
	// starts a fresh window regardless of how the warmup ticks aligned.
	for i := 0; i < 3; i++ {
		f.tick()
	}
	f.coupler.drain()
	base := f.coupler.stats()
	for i := 0; i < 20; i++ {
		f.tick()
	}
	st := f.coupler.stats()
	// 20 quasi-static ticks in 2-tick windows: 10 solves, 10 skips.
	if got := st.Solves - base.Solves; got != 10 {
		t.Errorf("20 ticks under a 25 µs horizon produced %d solves, want 10 (2-tick windows)", got)
	}
	if got := st.Skipped - base.Skipped; got != 10 {
		t.Errorf("20 ticks under a 25 µs horizon skipped %d, want 10", got)
	}

	// A horizon below one tick degenerates to per-tick solving.
	g := newAdaptiveFixture(t, func(cfg *Config) {
		cfg.MaxThermalInterval = 5 * units.Microsecond
	})
	for i := 0; i < 10; i++ {
		g.tick()
	}
	if st := g.coupler.stats(); st.Skipped != 0 {
		t.Errorf("sub-tick horizon still skipped %d ticks", st.Skipped)
	}
}

// TestAdaptivePowerStepForcesSolve pins the breach path: a power step
// landing mid-window must trigger an immediate solve on that very tick
// — the pending window flushes at its own average and the stepped tick
// gets a full-fidelity exact advance, so reaction latency matches the
// exact tier.
func TestAdaptivePowerStepForcesSolve(t *testing.T) {
	f := newAdaptiveFixture(t, nil)
	f.tick() // cold-start solve
	f.tick() // quasi-static: starts a window
	f.tick()
	mid := f.coupler.stats()
	if f.coupler.pending == 0 {
		t.Fatal("quasi-static ticks did not accumulate a window")
	}
	if mid.Skipped == 0 {
		t.Fatal("quasi-static ticks were not skipped; breach test would be vacuous")
	}

	// Power step: a large traffic burst lands inside the window.
	f.burst(4096)
	peak := f.tick()
	st := f.coupler.stats()
	if st.Skipped != mid.Skipped {
		t.Errorf("power-step tick was skipped (%d → %d)", mid.Skipped, st.Skipped)
	}
	// The breach tick performs two advances: the pending-window flush and
	// its own exact step.
	if got := st.Solves - mid.Solves; got != 2 {
		t.Errorf("power-step tick produced %d solves, want 2 (window flush + exact step)", got)
	}
	if f.coupler.pending != 0 {
		t.Errorf("window still pending after a breach (%d ticks)", f.coupler.pending)
	}
	if peak != f.coupler.model.PeakDRAM() {
		t.Error("breach tick returned a stale peak; must return the freshly solved one")
	}
}

// TestAdaptiveGuardBandForcesExact pins the throttle-latency guarantee
// at the coupler level: when the last solved peak sits inside the guard
// band below WarnTemp, every tick solves exactly — bit-identically to
// an exact-mode coupler over the same cube — so proximity to the
// throttle threshold disables interval coupling entirely.
func TestAdaptiveGuardBandForcesExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HMC.WarnTemp = 26 // ambient 25 °C: the stack starts inside the band
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, cfg.HMC)
	for i := 0; i < 64; i++ {
		cube.Submit(0, flit.Request{Cmd: flit.CmdRead64, Addr: uint64(i * 4096)},
			func(flit.Response, units.Time) {})
	}
	eng.Run()

	exactCfg := cfg
	exactCfg.ThermalMode = ThermalExact
	adaptCfg := cfg
	adaptCfg.ThermalMode = ThermalAdaptive
	exact := newThermalCoupler(cube, thermal.New(cfg.Stack, cfg.Cooling), exactCfg)
	adapt := newThermalCoupler(cube, thermal.New(cfg.Stack, cfg.Cooling), adaptCfg)

	now := units.Time(0)
	for i := 0; i < 50; i++ {
		now += cfg.ThermalTick
		te := exact.tick(now, cfg.ThermalTick)
		ta := adapt.tick(now, cfg.ThermalTick)
		if te != ta {
			t.Fatalf("tick %d: guarded adaptive peak %v != exact %v (must be bit-identical)", i, ta, te)
		}
	}
	if st := adapt.stats(); st.Skipped != 0 || st.Fast != 0 {
		t.Errorf("guard band still skipped %d ticks / %d fast solves", st.Skipped, st.Fast)
	}
}

// TestAdaptiveTracksExactCoupler is the coupler-level differential
// bound: adaptive and exact couplers fed the same cube traffic (with
// periodic power steps) must agree on reported peak DRAM within the
// stated staleness bound at every tick, and exactly at every solve
// boundary up to the fast tier's epsilon.
func TestAdaptiveTracksExactCoupler(t *testing.T) {
	f := newAdaptiveFixture(t, nil)
	exact := newThermalCoupler(f.cube, thermal.New(f.cfg.Stack, f.cfg.Cooling),
		func() Config { c := f.cfg; c.ThermalMode = ThermalExact; return c }())

	worst := 0.0
	for i := 0; i < 300; i++ {
		if i%50 == 49 {
			f.burst(512) // periodic power steps
		}
		f.now += f.cfg.ThermalTick
		te := exact.tick(f.now, f.cfg.ThermalTick)
		ta := f.coupler.tick(f.now, f.cfg.ThermalTick)
		if d := math.Abs(float64(te - ta)); d > worst {
			worst = d
		}
	}
	// The reported-peak divergence is bounded by one horizon's slew plus
	// the fast tier's transient epsilon. The worst point is the
	// cold-start settling ramp, where the stack slews ~10⁴ °C/s and the
	// stale reported peak lags by up to one 100 µs horizon (~1.3 °C
	// measured); once settled the divergence drops to hundredths.
	const peakBound = 2.0
	if worst > peakBound {
		t.Errorf("adaptive peak diverged %.3f °C from exact, bound %.2f", worst, peakBound)
	}
	if st := f.coupler.stats(); st.Skipped == 0 {
		t.Error("differential scenario never skipped; bound held vacuously")
	}
}

// TestAdaptiveTickZeroAllocs pins the adaptive hot path — breach
// detection, window accumulation, coalesced flushes — at zero
// allocations per tick, like the exact tier.
func TestAdaptiveTickZeroAllocs(t *testing.T) {
	f := newAdaptiveFixture(t, nil)
	for i := 0; i < 12; i++ {
		f.tick() // warm: cold-start solve + one full window incl. fast flush
	}
	if avg := testing.AllocsPerRun(100, func() { f.tick() }); avg != 0 {
		t.Errorf("adaptive thermal tick allocates %.1f per run, want 0", avg)
	}
}

// TestAdaptiveDrainFlushesPendingWindow pins end-of-run draining: the
// joules accumulated in a half-open window must reach the model.
func TestAdaptiveDrainFlushesPendingWindow(t *testing.T) {
	f := newAdaptiveFixture(t, nil)
	for i := 0; i < 5; i++ {
		f.tick()
	}
	if f.coupler.pending == 0 {
		t.Fatal("no pending window to drain")
	}
	before := f.coupler.stats().Solves
	peak := f.coupler.drain()
	if f.coupler.pending != 0 {
		t.Error("drain left a pending window")
	}
	if f.coupler.stats().Solves != before+1 {
		t.Error("drain did not solve the pending window")
	}
	if peak != f.coupler.model.PeakDRAM() {
		t.Error("drain returned a stale peak")
	}
	// Draining twice is a no-op.
	if f.coupler.drain() != peak || f.coupler.stats().Solves != before+1 {
		t.Error("second drain was not a no-op")
	}
}

// TestAdaptiveThrottleLatencyUnchanged is the system-level reaction
// guarantee: under sustained warning pressure (WarnTemp just above
// ambient, the TestThrottleReactSpansRecorded scenario) an adaptive run
// must be byte-identical to the exact run — the guard band keeps every
// tick on the exact tier, so warnings, control updates and runtime
// cannot shift by even one event.
func TestAdaptiveThrottleLatencyUnchanged(t *testing.T) {
	cfg := thrashCfg()
	cfg.HMC.WarnTemp = 26
	exact := mustRunNoVerify(t, "dc", core.CoolPIMHW, cfg)
	cfg.ThermalMode = ThermalAdaptive
	adaptive := mustRunNoVerify(t, "dc", core.CoolPIMHW, cfg)

	if exact.ControlUpdates == 0 {
		t.Fatal("scenario produced no control updates; latency claim would be vacuous")
	}
	if exact.Runtime != adaptive.Runtime ||
		exact.WarningsSeen != adaptive.WarningsSeen ||
		exact.ControlUpdates != adaptive.ControlUpdates ||
		exact.PIMOps != adaptive.PIMOps ||
		exact.PeakDRAM != adaptive.PeakDRAM {
		t.Errorf("adaptive diverged from exact under throttle pressure:\nexact:    %v/%d/%d/%d/%v\nadaptive: %v/%d/%d/%d/%v",
			exact.Runtime, exact.WarningsSeen, exact.ControlUpdates, exact.PIMOps, exact.PeakDRAM,
			adaptive.Runtime, adaptive.WarningsSeen, adaptive.ControlUpdates, adaptive.PIMOps, adaptive.PeakDRAM)
	}
}

// mustRunNoVerify is mustRun without the workload verification gate —
// throttle-pressure scenarios can shut the cube down mid-run, which is
// the behaviour under test, not a failure.
func mustRunNoVerify(t *testing.T, wl string, pol core.PolicyKind, cfg Config) *Result {
	t.Helper()
	res, err := Run(wl, pol, cfg, testGraph)
	if err != nil {
		t.Fatalf("%s/%v: %v", wl, pol, err)
	}
	return res
}

// TestAdaptiveRunStaysWithinEpsilon is the system-level differential
// check on a cool run: with the default warning threshold the adaptive
// tier actually skips (observed via telemetry), workload progress is
// untouched (no throttle interaction → identical event flow), and peak
// DRAM agrees within the documented bound.
func TestAdaptiveRunStaysWithinEpsilon(t *testing.T) {
	cfg := thrashCfg()
	exact := mustRun(t, "pagerank", core.CoolPIMHW, cfg)

	cfg.ThermalMode = ThermalAdaptive
	tel := telemetry.New()
	cfg.Telemetry = tel
	adaptive := mustRun(t, "pagerank", core.CoolPIMHW, cfg)

	if exact.Runtime != adaptive.Runtime || exact.PIMOps != adaptive.PIMOps {
		t.Errorf("cool adaptive run perturbed workload progress: %v/%d vs %v/%d",
			adaptive.Runtime, adaptive.PIMOps, exact.Runtime, exact.PIMOps)
	}
	if d := math.Abs(float64(exact.PeakDRAM - adaptive.PeakDRAM)); d > 0.5 {
		t.Errorf("adaptive peak DRAM off by %.3f °C (exact %v, adaptive %v), bound 0.5",
			d, exact.PeakDRAM, adaptive.PeakDRAM)
	}

	skipped, fast := "0", "0"
	for _, m := range tel.Registry.Snapshot() {
		switch m.Name {
		case "coolpim_thermal_skipped_ticks_total":
			skipped = m.Value
		case "coolpim_thermal_fast_solves_total":
			fast = m.Value
		}
	}
	if skipped == "0" || fast == "0" {
		t.Errorf("adaptive run recorded %s skipped ticks / %s fast solves; tier not engaged", skipped, fast)
	}
	var solveSpans int
	for _, s := range tel.Spans.Export() {
		if s.Name == "thermal.solve.fast" || s.Name == "thermal.solve.exact" {
			solveSpans++
			if s.Open() {
				t.Errorf("thermal.solve span %d never ended", s.ID)
			}
		}
	}
	if solveSpans == 0 {
		t.Error("adaptive run recorded no thermal.solve spans")
	}
}
