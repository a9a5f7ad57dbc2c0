// Package experiments regenerates every table and figure of the paper's
// evaluation: the analytic thermal studies of Sections III (Figs. 1-5,
// Tables I-II) directly on the power and thermal models, and the
// full-system studies of Section V (Figs. 10-14, Tables III-IV) by
// driving the coupled GPU+HMC simulation.
package experiments

import (
	"fmt"

	"coolpim/internal/dram"
	"coolpim/internal/flit"
	"coolpim/internal/power"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// steadyPeak builds a stack model, injects the budget and returns the
// steady-state temperatures. A non-converged solve is an error: a
// half-relaxed field would silently skew every figure derived from it.
func steadyPeak(stack thermal.StackConfig, cooling thermal.Cooling, b power.Budget) (*thermal.Model, error) {
	m := thermal.New(stack, cooling)
	m.AddLayerPower(0, b.LogicDie())
	per := b.DRAMStack() / units.Watt(float64(stack.DRAMDies))
	for l := 1; l <= stack.DRAMDies; l++ {
		m.AddLayerPower(l, per)
	}
	if m.SolveSteady() < 0 {
		return nil, fmt.Errorf("steady solve did not converge: %s under %s at %.1f W",
			stack.Name, cooling.Name, float64(b.Total()))
	}
	return m, nil
}

// Table1Row is one row of Table I.
type Table1Row struct {
	Type      string
	ReqFlits  int
	RespFlits int
}

// Table1 returns the FLIT accounting of Table I.
func Table1() []Table1Row {
	return []Table1Row{
		{"64-byte READ", flit.RequestFlits(flit.CmdRead64), flit.ResponseFlits(flit.CmdRead64, false)},
		{"64-byte WRITE", flit.RequestFlits(flit.CmdWrite64), flit.ResponseFlits(flit.CmdWrite64, false)},
		{"PIM inst. without return", flit.RequestFlits(flit.CmdPIMSignedAdd), flit.ResponseFlits(flit.CmdPIMSignedAdd, false)},
		{"PIM inst. with return", flit.RequestFlits(flit.CmdPIMSignedAdd), flit.ResponseFlits(flit.CmdPIMSignedAdd, true)},
	}
}

// Table2Row is one row of Table II.
type Table2Row struct {
	Type        string
	Resistance  units.ThermalResistance
	FanPowerRel float64
	FanPower    units.Watt
}

// Table2 returns the cooling solutions of Table II.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, c := range thermal.Coolings() {
		rows = append(rows, Table2Row{c.Name, c.SinkResistance, c.FanPowerRel, c.FanPower()})
	}
	return rows
}

// Table3Row is one row of Table III.
type Table3Row struct {
	Class  string
	PIM    string
	NonPIM string
}

// Table3 returns the PIM-to-CUDA instruction mapping of Table III.
func Table3() []Table3Row {
	var rows []Table3Row
	for _, cmd := range flit.PIMCommands() {
		rows = append(rows, Table3Row{cmd.Class().String(), cmd.String(), cmd.CUDAAtomic()})
	}
	return rows
}

// Fig1Point is one cell of the Fig. 1 prototype study: the HMC 1.1
// surface temperature under a cooling solution at idle or busy load.
type Fig1Point struct {
	Cooling  string
	Busy     bool
	Surface  units.Celsius
	Die      units.Celsius
	Shutdown bool // die temperature beyond the prototype's shutdown point
	// PaperSurface is the thermal-camera measurement the paper reports
	// (Fig. 1), for side-by-side comparison.
	PaperSurface units.Celsius
}

// paper-measured Fig. 1 surface temperatures.
var fig1Measured = map[string]map[bool]units.Celsius{
	thermal.Passive.Name:       {false: 71.1, true: 85.4},
	thermal.LowEndActive.Name:  {false: 45.3, true: 60.5},
	thermal.HighEndActive.Name: {false: 40.5, true: 47.3},
}

// hmc11Budget returns the HMC 1.1 prototype power at a link load.
func hmc11Budget(busy bool) power.Budget {
	act := power.Idle()
	if busy {
		act = power.Activity{ExternalBW: units.GBps(60), InternalRegularBW: units.GBps(60)}
	}
	return power.HMC11().Compute(act)
}

// Fig1 reproduces the prototype study: idle/busy × three heat sinks.
func Fig1() ([]Fig1Point, error) {
	var pts []Fig1Point
	for _, c := range []thermal.Cooling{thermal.Passive, thermal.LowEndActive, thermal.HighEndActive} {
		for _, busy := range []bool{false, true} {
			m, err := steadyPeak(thermal.HMC11Stack(), c, hmc11Budget(busy))
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig1Point{
				Cooling:      c.Name,
				Busy:         busy,
				Surface:      m.EstimatedSurface(),
				Die:          m.Peak(),
				Shutdown:     m.Peak() > 94, // prototype died near 95 °C die temperature
				PaperSurface: fig1Measured[c.Name][busy],
			})
		}
	}
	return pts, nil
}

// Fig2Row is one validation bar group of Fig. 2: surface (measured), die
// (estimated from the surface), die (modeled).
type Fig2Row struct {
	Cooling         string
	SurfaceMeasured units.Celsius // paper's busy-state camera measurement
	DieEstimated    units.Celsius // measured surface + package offset
	DieModeled      units.Celsius // our RC network
}

// Fig2 validates the thermal model against the HMC 1.1 measurements the
// way the paper does: compare the modeled die temperature with the die
// temperature estimated from the measured surface temperature.
func Fig2() ([]Fig2Row, error) {
	var rows []Fig2Row
	for _, c := range []thermal.Cooling{thermal.LowEndActive, thermal.HighEndActive} {
		b := hmc11Budget(true)
		m, err := steadyPeak(thermal.HMC11Stack(), c, b)
		if err != nil {
			return nil, err
		}
		meas := fig1Measured[c.Name][true]
		rows = append(rows, Fig2Row{
			Cooling:         c.Name,
			SurfaceMeasured: meas,
			DieEstimated: thermal.EstimateDieFromSurface(meas, b.Total(),
				thermal.HMC11Stack().SurfaceOffsetR),
			DieModeled: m.Peak(),
		})
	}
	return rows, nil
}

// Fig3Result is the Fig. 3 heat map: per-layer peak temperatures and the
// full logic-layer grid at full bandwidth under commodity cooling.
type Fig3Result struct {
	LayerPeaks []units.Celsius   // index 0 = logic die, 1..8 DRAM dies
	LogicMap   [][]units.Celsius // [y][x] logic-layer cells
}

// Fig3 reproduces the full-bandwidth commodity-cooling heat map.
func Fig3() (Fig3Result, error) {
	b := power.HMC20().Compute(power.FullBandwidth())
	m, err := steadyPeak(thermal.HMC20Stack(), thermal.CommodityServer, b)
	if err != nil {
		return Fig3Result{}, err
	}
	res := Fig3Result{LogicMap: m.LayerMap(0)}
	for l := 0; l < thermal.HMC20Stack().Layers(); l++ {
		res.LayerPeaks = append(res.LayerPeaks, m.LayerPeak(l))
	}
	return res, nil
}

// Fig4Point is one point of the Fig. 4 sweep.
type Fig4Point struct {
	Cooling   string
	Bandwidth units.BytesPerSecond
	PeakDRAM  units.Celsius
	Phase     dram.Phase
}

// Fig4 sweeps peak DRAM temperature across data bandwidth (0-320 GB/s)
// for all four cooling solutions.
func Fig4(steps int) ([]Fig4Point, error) {
	if steps < 2 {
		steps = 9
	}
	var pts []Fig4Point
	for _, c := range thermal.Coolings() {
		for i := 0; i < steps; i++ {
			bw := units.GBps(320 * float64(i) / float64(steps-1))
			b := power.HMC20().Compute(power.Activity{ExternalBW: bw, InternalRegularBW: bw})
			m, err := steadyPeak(thermal.HMC20Stack(), c, b)
			if err != nil {
				return nil, err
			}
			pts = append(pts, Fig4Point{
				Cooling:   c.Name,
				Bandwidth: bw,
				PeakDRAM:  m.PeakDRAM(),
				Phase:     dram.PhaseForTemp(m.PeakDRAM()),
			})
		}
	}
	return pts, nil
}

// Fig5Point is one point of the Fig. 5 sweep.
type Fig5Point struct {
	PIMRate  units.OpsPerNs
	PeakDRAM units.Celsius
	Phase    dram.Phase
}

// Fig5 sweeps peak DRAM temperature across PIM offloading rate at full
// bandwidth under commodity cooling (0-6.5 op/ns, the thermally-limited
// maximum).
func Fig5(steps int) ([]Fig5Point, error) {
	if steps < 2 {
		steps = 14
	}
	var pts []Fig5Point
	for i := 0; i < steps; i++ {
		rate := units.OpsPerNs(6.5 * float64(i) / float64(steps-1))
		act := power.FullBandwidth()
		act.PIMRate = rate
		b := power.HMC20().Compute(act)
		m, err := steadyPeak(thermal.HMC20Stack(), thermal.CommodityServer, b)
		if err != nil {
			return nil, err
		}
		pts = append(pts, Fig5Point{rate, m.PeakDRAM(), dram.PhaseForTemp(m.PeakDRAM())})
	}
	return pts, nil
}

// MaxSafePIMRate returns the largest swept PIM rate whose steady peak
// stays within the normal operating range — the paper's ~1.3 op/ns
// threshold that CoolPIM's TargetPIMRate is set from.
func MaxSafePIMRate() (units.OpsPerNs, error) {
	pts, err := Fig5(66) // 0.1 op/ns resolution
	if err != nil {
		return 0, err
	}
	best := units.OpsPerNs(0)
	for _, p := range pts {
		if p.PeakDRAM <= dram.NormalLimit && p.PIMRate > best {
			best = p.PIMRate
		}
	}
	return best, nil
}

// FmtCelsius renders a temperature for table output.
func FmtCelsius(c units.Celsius) string { return fmt.Sprintf("%.1f", float64(c)) }
