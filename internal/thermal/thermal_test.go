package thermal

import (
	"math"
	"math/rand"
	"testing"

	"coolpim/internal/units"
)

// newFull returns an HMC 2.0 commodity-cooled model loaded with the
// full-bandwidth power split used throughout the paper (logic die
// ~20.7 W, DRAM stack ~10.5 W).
func newFull() *Model {
	m := New(HMC20Stack(), CommodityServer)
	m.AddLayerPower(0, 20.66)
	for l := 1; l <= 8; l++ {
		m.AddLayerPower(l, 10.47/8)
	}
	return m
}

func TestTable2Coolings(t *testing.T) {
	want := []struct {
		name string
		r    units.ThermalResistance
		fan  float64
	}{
		{"Passive heat sink", 4.0, 0},
		{"Low-end active heat sink", 2.0, 1},
		{"Commodity-server active heat sink", 0.5, 104},
		{"High-end active heat sink", 0.2, 380},
	}
	got := Coolings()
	if len(got) != len(want) {
		t.Fatalf("Coolings() returned %d entries", len(got))
	}
	for i, w := range want {
		if got[i].Name != w.name || got[i].SinkResistance != w.r || got[i].FanPowerRel != w.fan {
			t.Errorf("cooling %d = %+v, want %+v", i, got[i], w)
		}
	}
	// The paper: the high-end fan "consumes around 13 Watt".
	if f := HighEndActive.FanPower(); math.Abs(float64(f)-13) > 0.01 {
		t.Errorf("high-end fan power = %v, want ~13W", f)
	}
	if Passive.FanPower() != 0 {
		t.Error("passive heat sink has fan power")
	}
}

func TestConfigValidate(t *testing.T) {
	good := HMC20Stack()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*StackConfig){
		func(c *StackConfig) { c.GridW = 0 },
		func(c *StackConfig) { c.DRAMDies = 0 },
		func(c *StackConfig) { c.CellVerticalR = 0 },
		func(c *StackConfig) { c.CellLateralR = -1 },
		func(c *StackConfig) { c.CellCap = 0 },
		func(c *StackConfig) { c.SinkCap = -2 },
	}
	for i, mutate := range bad {
		c := HMC20Stack()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	m := New(HMC20Stack(), CommodityServer)
	m.SolveSteady()
	if got := m.Peak(); math.Abs(float64(got-25)) > 1e-6 {
		t.Errorf("zero-power steady peak = %v, want ambient 25", got)
	}
	m.Step(units.Millisecond)
	if got := m.Peak(); math.Abs(float64(got-25)) > 1e-6 {
		t.Errorf("zero-power transient peak = %v, want ambient", got)
	}
}

// TestCalibrationAnchors pins the model to the paper's measured/modeled
// anchor points (Sections III-B and III-C) within bands:
//
//	commodity idle            -> ~33 °C   (Fig. 4: "33 °C at the idle state")
//	commodity full 320 GB/s   -> ~81 °C   (Fig. 4: "reaches 81 °C")
//	full + 1.3 op/ns PIM      -> ~85 °C   (Fig. 5: 85 °C boundary at 1.3 op/ns)
//	full + 6.5 op/ns PIM      -> ~105 °C  (Fig. 5: max offloading rate)
func TestCalibrationAnchors(t *testing.T) {
	check := func(name string, logicW, dramW float64, lo, hi units.Celsius) {
		t.Helper()
		m := New(HMC20Stack(), CommodityServer)
		m.AddLayerPower(0, units.Watt(logicW))
		for l := 1; l <= 8; l++ {
			m.AddLayerPower(l, units.Watt(dramW/8))
		}
		m.SolveSteady()
		if got := m.PeakDRAM(); got < lo || got > hi {
			t.Errorf("%s: peak DRAM = %v, want in [%v, %v]", name, got, lo, hi)
		}
	}
	check("idle", 3.3, 1.0, 30, 36)
	check("full-bandwidth", 20.66, 10.47, 77, 84)
	// +1.3 op/ns: FU 1.664 W to logic, +1.23 W DRAM.
	check("full+PIM1.3", 22.32, 11.70, 82, 88)
	// +6.5 op/ns: FU 8.32 W, +6.16 W DRAM.
	check("full+PIM6.5", 28.98, 16.63, 100, 108)
}

// TestCoolingOrdering: for identical power, a better heat sink always
// yields a lower peak (Fig. 4's curve ordering).
func TestCoolingOrdering(t *testing.T) {
	var peaks []units.Celsius
	for _, c := range Coolings() {
		m := New(HMC20Stack(), c)
		m.AddLayerPower(0, 20.66)
		for l := 1; l <= 8; l++ {
			m.AddLayerPower(l, 10.47/8)
		}
		m.SolveSteady()
		peaks = append(peaks, m.PeakDRAM())
	}
	// Order: passive > low-end > commodity > high-end.
	for i := 1; i < len(peaks); i++ {
		if peaks[i] >= peaks[i-1] {
			t.Errorf("cooling %d peak %v not below cooling %d peak %v",
				i, peaks[i], i-1, peaks[i-1])
		}
	}
	// Passive at full bandwidth must be far beyond shutdown (the HMC 1.1
	// prototype could not reach peak bandwidth on a passive sink).
	if peaks[0] < 105 {
		t.Errorf("passive full-BW peak = %v, want shutdown territory", peaks[0])
	}
	// High-end keeps the stack in the normal range.
	if peaks[3] > 85 {
		t.Errorf("high-end full-BW peak = %v, want <=85", peaks[3])
	}
}

// TestPowerMonotonicity (property): adding power anywhere never cools
// any node.
func TestPowerMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := newFull()
	base.SolveSteady()
	for trial := 0; trial < 10; trial++ {
		m := newFull()
		layer := rng.Intn(9)
		x, y := rng.Intn(8), rng.Intn(4)
		m.AddCellPower(layer, x, y, units.Watt(0.5+rng.Float64()*3))
		m.SolveSteady()
		for l := 0; l < 9; l++ {
			for yy := 0; yy < 4; yy++ {
				for xx := 0; xx < 8; xx++ {
					if m.CellTemp(l, xx, yy) < base.CellTemp(l, xx, yy)-1e-6 {
						t.Fatalf("adding power at (%d,%d,%d) cooled cell (%d,%d,%d)",
							layer, x, y, l, xx, yy)
					}
				}
			}
		}
	}
}

// TestBottomLayersHottest: with the paper's power split the logic die
// and lowest DRAM die are the hottest layers ("the lowest DRAM die and
// logic layer reach the highest temperature").
func TestBottomLayersHottest(t *testing.T) {
	m := newFull()
	m.SolveSteady()
	if m.PeakLogic() < m.PeakDRAM() {
		t.Errorf("logic peak %v below DRAM peak %v", m.PeakLogic(), m.PeakDRAM())
	}
	prev := m.LayerPeak(1)
	for l := 2; l <= 8; l++ {
		cur := m.LayerPeak(l)
		if cur > prev+1e-9 {
			t.Errorf("DRAM die %d (%v) hotter than die %d (%v); stack should cool upward",
				l, cur, l-1, prev)
		}
		prev = cur
	}
}

// TestCenterHotspot: the Fig. 3 pattern — interior cells run hotter than
// edge cells on the logic layer.
func TestCenterHotspot(t *testing.T) {
	m := newFull()
	m.SolveSteady()
	grid := m.LayerMap(0)
	center := grid[1][3] // interior cell
	corner := grid[0][0]
	if center <= corner {
		t.Errorf("center cell %v not hotter than corner %v", center, corner)
	}
}

// TestSteadyEnergyBalance: at steady state, total heat leaving to
// ambient equals total power injected (flux through sink + rim paths).
func TestSteadyEnergyBalance(t *testing.T) {
	m := newFull()
	m.SolveSteady()
	cfg := m.cfg
	out := (m.temp[m.sinkNode()] - float64(cfg.Ambient)) / float64(CommodityServer.SinkResistance)
	// Rim leakage from edge cells of every layer.
	for l := 0; l < cfg.Layers(); l++ {
		grid := m.LayerMap(l)
		for y := 0; y < cfg.GridH; y++ {
			for x := 0; x < cfg.GridW; x++ {
				if x == 0 || y == 0 || x == cfg.GridW-1 || y == cfg.GridH-1 {
					out += (float64(grid[y][x]) - float64(cfg.Ambient)) / cfg.RimR
				}
			}
		}
	}
	in := float64(m.TotalPower())
	if math.Abs(out-in)/in > 0.02 {
		t.Errorf("energy balance: in=%.3fW out=%.3fW", in, out)
	}
}

// TestTransientConvergesToSteady: integrating the ODEs long enough must
// land on the steady-state solution.
func TestTransientConvergesToSteady(t *testing.T) {
	ms := newFull()
	ms.SolveSteady()
	mt := newFull()
	for i := 0; i < 200; i++ {
		mt.Step(units.Millisecond)
	}
	if d := math.Abs(float64(ms.PeakDRAM() - mt.PeakDRAM())); d > 0.5 {
		t.Errorf("transient peak %v vs steady %v (Δ=%.2f)", mt.PeakDRAM(), ms.PeakDRAM(), d)
	}
}

// TestThermalTimeConstant: the step response must be on the order of a
// millisecond (the paper's Tthermal ≈ 1 ms feedback delay, Fig. 8) —
// specifically, 63% of the final rise within 0.2–5 ms.
func TestThermalTimeConstant(t *testing.T) {
	final := newFull()
	final.SolveSteady()
	rise := float64(final.PeakDRAM()) - 25

	m := newFull()
	var tau units.Time
	for step := units.Time(0); step < 50*units.Millisecond; step += 50 * units.Microsecond {
		m.Step(50 * units.Microsecond)
		if float64(m.PeakDRAM())-25 >= 0.632*rise {
			tau = step + 50*units.Microsecond
			break
		}
	}
	if tau == 0 {
		t.Fatal("never reached 63% of final rise")
	}
	if tau < 200*units.Microsecond || tau > 5*units.Millisecond {
		t.Errorf("thermal time constant = %v, want ~1ms (0.2-5ms band)", tau)
	}
}

// TestTransientMonotonicRise: under constant power from ambient, peak
// temperature rises monotonically (no oscillation from the integrator).
func TestTransientMonotonicRise(t *testing.T) {
	m := newFull()
	prev := m.PeakDRAM()
	for i := 0; i < 100; i++ {
		m.Step(100 * units.Microsecond)
		cur := m.PeakDRAM()
		if cur < prev-1e-9 {
			t.Fatalf("peak fell from %v to %v at step %d", prev, cur, i)
		}
		prev = cur
	}
}

// TestCooldown: removing power lets the stack relax back toward ambient.
func TestCooldown(t *testing.T) {
	m := newFull()
	m.SolveSteady()
	hot := m.PeakDRAM()
	m.ClearPower()
	for i := 0; i < 100; i++ {
		m.Step(units.Millisecond)
	}
	cool := m.PeakDRAM()
	if cool >= hot {
		t.Errorf("no cooldown: %v -> %v", hot, cool)
	}
	if float64(cool) > 26 {
		t.Errorf("after 100ms unpowered, peak = %v, want ~ambient", cool)
	}
}

func TestSurfaceEstimate(t *testing.T) {
	m := newFull()
	m.SolveSteady()
	surf := m.EstimatedSurface()
	peak := m.Peak()
	// "5 to 10 degrees higher than its surface temperature, given a
	// 20 Watt power": at ~31 W the offset is ~11 °C.
	off := float64(peak - surf)
	if off < 5 || off > 15 {
		t.Errorf("die-surface offset = %.1f°C, want 5-15", off)
	}
	// Inverse estimate recovers the die temperature.
	est := EstimateDieFromSurface(surf, m.TotalPower(), m.cfg.SurfaceOffsetR)
	if math.Abs(float64(est-peak)) > 1e-9 {
		t.Errorf("EstimateDieFromSurface = %v, want %v", est, peak)
	}
}

func TestWeightedPower(t *testing.T) {
	m := New(HMC20Stack(), CommodityServer)
	w := make([]float64, 32)
	w[9] = 1 // all power at cell (1,1)
	m.AddLayerPowerWeighted(0, 10, w)
	m.SolveSteady()
	if m.CellTemp(0, 1, 1) <= m.CellTemp(0, 7, 3) {
		t.Error("weighted injection did not heat the targeted cell most")
	}
	if math.Abs(float64(m.TotalPower())-10) > 1e-9 {
		t.Errorf("total power = %v, want 10", m.TotalPower())
	}
	// Zero weights fall back to uniform.
	m2 := New(HMC20Stack(), CommodityServer)
	m2.AddLayerPowerWeighted(0, 8, make([]float64, 32))
	if math.Abs(float64(m2.TotalPower())-8) > 1e-9 {
		t.Errorf("zero-weight fallback power = %v", m2.TotalPower())
	}
}

func TestReset(t *testing.T) {
	m := newFull()
	m.SolveSteady()
	m.Reset()
	if m.Peak() != 25 {
		t.Errorf("after Reset peak = %v, want ambient", m.Peak())
	}
}

func TestPanicsOnBadIndices(t *testing.T) {
	m := New(HMC20Stack(), CommodityServer)
	for name, fn := range map[string]func(){
		"bad layer":   func() { m.AddLayerPower(9, 1) },
		"bad cell":    func() { m.AddCellPower(0, 8, 0, 1) },
		"bad weights": func() { m.AddLayerPowerWeighted(0, 1, []float64{1}) },
		"neg weight":  func() { m.AddLayerPowerWeighted(0, 1, append(make([]float64, 31), -1)) },
		"bad sink":    func() { New(HMC20Stack(), Cooling{SinkResistance: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHMC11StackSmaller(t *testing.T) {
	c := HMC11Stack()
	if c.DRAMDies != 4 || c.Cells() != 16 || c.Layers() != 5 {
		t.Errorf("HMC1.1 stack = %d dies, %d cells", c.DRAMDies, c.Cells())
	}
	if HMC20Stack().Cells() != 32 || HMC20Stack().Layers() != 9 {
		t.Error("HMC2.0 stack must be 32 vaults, 9 dies")
	}
}

// TestSuperpositionLinearity (property): the network is linear, so the
// temperature rise of summed power loads equals the sum of rises.
func TestSuperpositionLinearity(t *testing.T) {
	rise := func(logicW, dramW float64) float64 {
		m := New(HMC20Stack(), CommodityServer)
		m.AddLayerPower(0, units.Watt(logicW))
		for l := 1; l <= 8; l++ {
			m.AddLayerPower(l, units.Watt(dramW/8))
		}
		m.SolveSteady()
		return float64(m.PeakDRAM()) - 25
	}
	a := rise(10, 0)
	b := rise(0, 6)
	ab := rise(10, 6)
	if math.Abs(ab-(a+b)) > 0.05 {
		t.Errorf("superposition violated: rise(10,6)=%.3f, rise(10,0)+rise(0,6)=%.3f", ab, a+b)
	}
}
