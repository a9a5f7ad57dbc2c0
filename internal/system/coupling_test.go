package system

import (
	"testing"

	"coolpim/internal/flit"
	"coolpim/internal/hmc"
	"coolpim/internal/mem"
	"coolpim/internal/sim"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// newCouplerFixture builds a cube with some real vault traffic (so the
// activity-weighted injection path is the one under test) and a coupler
// over the default HMC 2.0 stack.
func newCouplerFixture(tb testing.TB) (*hmc.Cube, *thermalCoupler) {
	tb.Helper()
	cfg := DefaultConfig()
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, cfg.HMC)
	for i := 0; i < 64; i++ {
		cube.Submit(units.Time(0), flit.Request{Cmd: flit.CmdRead64, Addr: uint64(i * 4096)},
			func(flit.Response, units.Time) {})
	}
	eng.Run()
	model := thermal.New(cfg.Stack, cfg.Cooling)
	return cube, newThermalCoupler(cube, model, cfg)
}

// TestApplyPowerTickZeroAllocs pins the whole per-tick thermal coupling
// — counter delta, power budget, weighted injection, transient step,
// peak read, cube temperature update — at zero allocations.
func TestApplyPowerTickZeroAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cube, coupler := newCouplerFixture(t)
	if coupler.weights == nil {
		t.Fatal("fixture should take the activity-weighted path (32 vaults = 32 cells)")
	}
	now := units.Time(0)
	tick := func() {
		now += cfg.ThermalTick
		temp := coupler.tick(now, cfg.ThermalTick)
		cube.SetTemperature(now, temp)
	}
	tick() // warm the substep-schedule cache
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Errorf("thermal tick allocates %.1f per run, want 0", avg)
	}
}

// TestCouplerWeightedInjection checks the scratch-buffer weighting
// matches what direct VaultActivity reports, and that an idle cube
// falls back to uniform spreading.
func TestCouplerWeightedInjection(t *testing.T) {
	cube, coupler := newCouplerFixture(t)
	got := coupler.vaultWeights()
	if got == nil {
		t.Fatal("active cube yielded nil weights")
	}
	want := cube.VaultActivity()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("weight[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	cfg := DefaultConfig()
	idle := hmc.New(sim.New(), mem.NewSpace(1<<10), cfg.HMC)
	c2 := newThermalCoupler(idle, thermal.New(cfg.Stack, cfg.Cooling), cfg)
	if w := c2.vaultWeights(); w != nil {
		t.Errorf("idle cube yielded weights %v, want nil (uniform)", w)
	}

	// Mismatched geometry (16 vaults on the 32-cell HMC 2.0 grid) must
	// disable the weighted path entirely.
	smallCfg := cfg
	smallCfg.HMC.Vaults = 16
	smallCfg.HMC.BanksPerVault = 32
	odd := hmc.New(sim.New(), mem.NewSpace(1<<10), smallCfg.HMC)
	c3 := newThermalCoupler(odd, thermal.New(cfg.Stack, cfg.Cooling), smallCfg)
	if c3.weights != nil {
		t.Error("geometry mismatch still allocated a weights buffer")
	}
}

// BenchmarkApplyPowerTick measures one closed-loop thermal tick: the
// quantity every simulated 10 µs of every campaign run pays.
func BenchmarkApplyPowerTick(b *testing.B) {
	cfg := DefaultConfig()
	cube, coupler := newCouplerFixture(b)
	now := units.Time(0)
	coupler.tick(cfg.ThermalTick, cfg.ThermalTick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += cfg.ThermalTick
		temp := coupler.tick(now, cfg.ThermalTick)
		cube.SetTemperature(now, temp)
	}
}

// BenchmarkApplyPowerTickAdaptive measures the same closed-loop tick
// under the adaptive coupler on quasi-static power: most iterations fold
// energy and skip the solve, paying only the snapshot + breach check.
// The gap to BenchmarkApplyPowerTick is the interval-coupling win.
func BenchmarkApplyPowerTickAdaptive(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ThermalMode = ThermalAdaptive
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, cfg.HMC)
	for i := 0; i < 64; i++ {
		cube.Submit(units.Time(0), flit.Request{Cmd: flit.CmdRead64, Addr: uint64(i * 4096)},
			func(flit.Response, units.Time) {})
	}
	eng.Run()
	coupler := newThermalCoupler(cube, thermal.New(cfg.Stack, cfg.Cooling), cfg)
	now := units.Time(0)
	tick := func() {
		now += cfg.ThermalTick
		temp := coupler.tick(now, cfg.ThermalTick)
		cube.SetTemperature(now, temp)
	}
	for i := 0; i < 12; i++ { // warm past cold-start so steady skip behavior is measured
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	st := coupler.stats()
	b.ReportMetric(st.skipRate(), "skipRate")
	b.ReportMetric(float64(st.Fast), "fastSolves")
}
