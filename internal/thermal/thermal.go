// Package thermal implements a compact transient thermal model of a
// 3D-stacked memory cube, in the spirit of the 3D-ICE + KitFox flow the
// paper uses: each die is discretized into a grid of cells (one per
// vault), cells are joined by lateral and vertical thermal conductances,
// the top die couples through a spreading resistance into a heat-sink
// node, and the heat sink couples to ambient through the Table II sink
// resistance. Both a steady-state solver (for the Fig. 1–5 sweeps) and a
// forward-Euler transient integrator (for the closed-loop Fig. 14
// dynamics) operate on the same network.
//
// The network is evaluated through a stencil operator precomputed in
// New: per-node CSR neighbor/conductance arrays in a fixed accumulation
// order, so the solvers are allocation-free and bit-identical to the
// interpretive reference implementation in reference_test.go (see
// DESIGN.md §6b and the differential tests).
//
// Geometry convention: layer 0 is the logic die at the bottom of the
// stack; layers 1..DRAMDies are the DRAM dies, stacked upward toward the
// heat sink. This matches the paper's observation that "the lowest DRAM
// die and logic layer reach the highest temperature".
package thermal

import (
	"fmt"
	"math"

	"coolpim/internal/units"
)

// StackConfig describes the physical stack and its calibration
// constants. The resistances are per-cell; a full layer's vertical
// resistance is CellVerticalR divided by the number of cells (parallel
// paths).
type StackConfig struct {
	Name string

	// GridW×GridH cells per layer; one cell per vault.
	GridW, GridH int
	// DRAMDies is the number of stacked DRAM dies (8 for HMC 2.0, 4 for
	// the HMC 1.1 prototype).
	DRAMDies int

	// CellVerticalR is the vertical thermal resistance between the same
	// cell of adjacent dies (silicon + bonding layer), °C/W.
	CellVerticalR float64
	// CellLateralR is the in-die resistance between adjacent cells, °C/W.
	CellLateralR float64
	// SinkSpreadR is the per-cell resistance from the top die through
	// TIM and heat-sink base, °C/W.
	SinkSpreadR float64
	// RimR is the per-edge-cell leakage path to ambient through the
	// package rim and board; it is what makes die edges run cooler than
	// the center (the Fig. 3 hotspot pattern), °C/W.
	RimR float64

	// CellCap is the heat capacity of one cell node, J/°C; SinkCap is
	// the heat-sink node capacity. They set the loop's thermal response
	// time (Tthermal ≈ 1 ms in the paper's feedback model, Fig. 8).
	CellCap float64
	SinkCap float64

	// Ambient is the inlet air temperature.
	Ambient units.Celsius

	// SurfaceOffsetR converts total package power into the
	// die-to-case-surface temperature offset, used to estimate the
	// surface temperature a thermal camera would see ("5 to 10 degrees
	// [below junction] given a 20 Watt power": ≈0.35 °C/W).
	SurfaceOffsetR units.ThermalResistance
}

// HMC20Stack returns the 8 GB HMC 2.0 stack: one logic die and eight
// DRAM dies, 32 vaults on an 8×4 grid.
func HMC20Stack() StackConfig {
	return StackConfig{
		Name:  "HMC2.0",
		GridW: 8, GridH: 4,
		DRAMDies:       8,
		CellVerticalR:  7.0,
		CellLateralR:   10.0,
		SinkSpreadR:    2.0,
		RimR:           4000.0,
		CellCap:        2.0e-6,
		SinkCap:        1.0e-3,
		Ambient:        25,
		SurfaceOffsetR: 0.35,
	}
}

// HMC11Stack returns the 4 GB HMC 1.1 prototype stack: one logic die and
// four DRAM dies, 16 vaults on a 4×4 grid.
func HMC11Stack() StackConfig {
	return StackConfig{
		Name:  "HMC1.1",
		GridW: 4, GridH: 4,
		DRAMDies:       4,
		CellVerticalR:  3.5,
		CellLateralR:   10.0,
		SinkSpreadR:    2.0,
		RimR:           4000.0,
		CellCap:        2.0e-6,
		SinkCap:        1.0e-3,
		Ambient:        25,
		SurfaceOffsetR: 0.35,
	}
}

// Validate checks the configuration for physical sanity.
func (c StackConfig) Validate() error {
	switch {
	case c.GridW < 1 || c.GridH < 1:
		return fmt.Errorf("thermal: grid %dx%d invalid", c.GridW, c.GridH)
	case c.DRAMDies < 1:
		return fmt.Errorf("thermal: %d DRAM dies invalid", c.DRAMDies)
	case c.CellVerticalR <= 0 || c.CellLateralR <= 0 || c.SinkSpreadR <= 0 || c.RimR <= 0:
		return fmt.Errorf("thermal: non-positive resistance in %+v", c)
	case c.CellCap <= 0 || c.SinkCap <= 0:
		return fmt.Errorf("thermal: non-positive capacitance in %+v", c)
	}
	return nil
}

// Layers returns the number of dies in the stack (logic + DRAM).
func (c StackConfig) Layers() int { return 1 + c.DRAMDies }

// Cells returns the number of cells per layer.
func (c StackConfig) Cells() int { return c.GridW * c.GridH }

// stencilEdge is one precomputed conductive path out of a cell node.
type stencilEdge struct {
	g float64 // conductance, °C/W inverse; 0 for padding
	j int32   // neighbor node (self for padding; nNodes = ambient slot)
}

// edgesPerCell is the fixed per-cell stencil width: the widest real
// cell stencil is 7 (two vertical or vertical+spread, four lateral,
// rim), padded to 8 so each node's edges span exactly two cache lines
// and the flux walk needs no per-node trip count.
const edgesPerCell = 8

// stepPlan caches Step's substep schedule for one duration: nFull
// substeps of maxStep followed by one substep of rem (rem == 0 means
// none). The coupled system calls Step with the same ThermalTick tens
// of thousands of times per run, so the schedule is computed once.
type stepPlan struct {
	d     units.Time
	valid bool
	nFull int
	rem   float64
}

// Model is an instantiated RC network: a stack configuration plus a
// cooling solution, holding the current node temperatures and power
// injection. Create with New; the model starts in thermal equilibrium at
// ambient with zero power.
type Model struct {
	cfg StackConfig

	nCells  int
	nLayers int
	nNodes  int // nLayers*nCells + 1 (sink)

	// temp and tnext are double-buffered temperature fields of length
	// nNodes+1: the trailing slot holds the constant ambient
	// temperature, which turns the rim and sink-to-ambient paths into
	// ordinary stencil edges. eulerStep writes tnext and swaps the
	// buffers; nothing ever writes the ambient slot.
	temp  []float64 // °C per node; sink node at nNodes-1, ambient at nNodes
	tnext []float64
	power []float64 // W injected per node (sink gets none); length nNodes

	// Precomputed conductances (the stencil is built from these).
	gVert   float64 // between vertically adjacent cells
	gLat    float64 // between laterally adjacent cells
	gSpread float64 // top-die cell -> sink node
	gRim    float64 // edge cell -> ambient
	gSink   float64 // sink node -> ambient

	isEdge []bool // per cell

	// Stencil operator: every cell node owns exactly edgesPerCell slots
	// in edges (node i at edges[i*edgesPerCell:]); edge e contributes
	// e.g*(t[e.j]-t[i]) to the node's net flux. Real edges are stored in
	// the reference model's accumulation order — vertical down, vertical
	// up or sink spread, lateral −x +x −y +y, rim — then padded to the
	// fixed width with zero-conductance self-edges, so the per-node flux
	// walk is branch-regular straight-line code and still bit-identical
	// to the interpretive neighborFlux walk: a padding term is
	// 0*(t[i]-t[i]) = +0.0, and no partial flux sum can be −0.0 (see
	// DESIGN.md §6b). The sink node is not in edges; its flux (top-die
	// cells in cell order, then ambient) is specialized in the solvers.
	edges []stencilEdge
	gTot  []float64 // Σ conductance per node, summed in edge order

	// maxStep is the largest stable Euler step, derived from the
	// stiffest node.
	maxStep float64
	plan    stepPlan

	// Fast-tier state (fast.go): red-black node order (red prefix, then
	// black; the sink is relaxed outside the color sweeps).
	rbOrder []int32
	nRed    int
	// fastMaxStep bounds one implicit substep of StepFast (seconds):
	// half the sink node's time constant, the network's slowest mode.
	fastMaxStep float64

	// peakDRAM caches the hottest DRAM-node temperature. eulerStep
	// maintains it incrementally while writing the new field; solvers
	// that update in place invalidate it instead.
	peakDRAM  float64
	peakValid bool
}

// New builds a model for the given stack and cooling. It panics on an
// invalid configuration (a construction-time programming error).
func New(cfg StackConfig, cooling Cooling) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cooling.SinkResistance <= 0 {
		panic("thermal: non-positive sink resistance")
	}
	m := &Model{
		cfg:     cfg,
		nCells:  cfg.Cells(),
		nLayers: cfg.Layers(),
	}
	m.nNodes = m.nLayers*m.nCells + 1
	m.temp = make([]float64, m.nNodes+1)
	m.tnext = make([]float64, m.nNodes+1)
	m.power = make([]float64, m.nNodes)
	amb := float64(cfg.Ambient)
	for i := range m.temp {
		m.temp[i] = amb
		m.tnext[i] = amb
	}
	m.peakDRAM, m.peakValid = amb, true
	m.gVert = 1 / cfg.CellVerticalR
	m.gLat = 1 / cfg.CellLateralR
	m.gSpread = 1 / cfg.SinkSpreadR
	m.gRim = 1 / cfg.RimR
	m.gSink = 1 / float64(cooling.SinkResistance)

	m.isEdge = make([]bool, m.nCells)
	for y := 0; y < cfg.GridH; y++ {
		for x := 0; x < cfg.GridW; x++ {
			if x == 0 || y == 0 || x == cfg.GridW-1 || y == cfg.GridH-1 {
				m.isEdge[y*cfg.GridW+x] = true
			}
		}
	}
	m.buildStencil()
	m.buildColoring()

	// Stability bound: dt < C / ΣG at the stiffest node. A cell can see
	// two vertical, four lateral, one spread and one rim conductance.
	gMaxCell := 2*m.gVert + 4*m.gLat + m.gSpread + m.gRim
	gMaxSink := float64(m.nCells)*m.gSpread + m.gSink
	m.maxStep = 0.5 * math.Min(cfg.CellCap/gMaxCell, cfg.SinkCap/gMaxSink)
	m.fastMaxStep = 0.5 * cfg.SinkCap / m.gTot[m.sinkNode()]
	return m
}

// buildStencil lays out the fixed-width edge table, the per-node total
// conductances and heat capacities. The per-edge order matches the
// reference model's accumulation order exactly, which is what makes the
// stencil solvers bit-identical (float addition is not associative, so
// the order is part of the contract); padding self-edges carry zero
// conductance and contribute exactly +0.0.
func (m *Model) buildStencil() {
	ambient := int32(m.nNodes) // trailing constant-temperature slot
	sink := m.sinkNode()
	m.edges = make([]stencilEdge, sink*edgesPerCell)
	for i := 0; i < sink; i++ {
		n := 0
		add := func(j int32, cond float64) {
			m.edges[i*edgesPerCell+n] = stencilEdge{g: cond, j: j}
			n++
		}
		layer := i / m.nCells
		cell := i % m.nCells
		x, y := cell%m.cfg.GridW, cell/m.cfg.GridW
		if layer > 0 {
			add(int32(m.node(layer-1, cell)), m.gVert)
		}
		if layer < m.nLayers-1 {
			add(int32(m.node(layer+1, cell)), m.gVert)
		} else {
			// Top die couples into the sink node.
			add(int32(sink), m.gSpread)
		}
		if x > 0 {
			add(int32(i-1), m.gLat)
		}
		if x < m.cfg.GridW-1 {
			add(int32(i+1), m.gLat)
		}
		if y > 0 {
			add(int32(i-m.cfg.GridW), m.gLat)
		}
		if y < m.cfg.GridH-1 {
			add(int32(i+m.cfg.GridW), m.gLat)
		}
		// Package-rim leakage from edge cells to ambient.
		if m.isEdge[cell] {
			add(ambient, m.gRim)
		}
		for ; n < edgesPerCell; n++ {
			m.edges[i*edgesPerCell+n] = stencilEdge{g: 0, j: int32(i)}
		}
	}

	// Per-node conductance totals, summed in edge order so they carry
	// the same rounding the reference's per-sweep accumulation produces
	// (padding adds +0.0, which never changes a positive sum's bits).
	m.gTot = make([]float64, m.nNodes)
	for i := 0; i < sink; i++ {
		total := 0.0
		for _, e := range m.edges[i*edgesPerCell : (i+1)*edgesPerCell] {
			total += e.g
		}
		m.gTot[i] = total
	}
	sinkTot := 0.0
	for c := 0; c < m.nCells; c++ {
		sinkTot += m.gSpread
	}
	m.gTot[sink] = sinkTot + m.gSink
}

func (m *Model) node(layer, cell int) int { return layer*m.nCells + cell }

func (m *Model) sinkNode() int { return m.nLayers * m.nCells }

// ClearPower zeroes all power injection.
func (m *Model) ClearPower() {
	for i := range m.power {
		m.power[i] = 0
	}
}

// AddLayerPower distributes watts uniformly over all cells of a layer
// (0 = logic die, 1..DRAMDies = DRAM dies bottom-up).
func (m *Model) AddLayerPower(layer int, w units.Watt) {
	m.checkLayer(layer)
	per := float64(w) / float64(m.nCells)
	for c := 0; c < m.nCells; c++ {
		m.power[m.node(layer, c)] += per
	}
}

// AddLayerPowerWeighted distributes watts over a layer's cells with the
// given relative weights (length Cells(); weights are normalized). Zero
// total weight falls back to uniform.
func (m *Model) AddLayerPowerWeighted(layer int, w units.Watt, weights []float64) {
	m.checkLayer(layer)
	if len(weights) != m.nCells {
		panic(fmt.Sprintf("thermal: %d weights for %d cells", len(weights), m.nCells))
	}
	total := 0.0
	for _, wt := range weights {
		if wt < 0 {
			panic("thermal: negative cell weight")
		}
		total += wt
	}
	if total == 0 {
		m.AddLayerPower(layer, w)
		return
	}
	for c, wt := range weights {
		m.power[m.node(layer, c)] += float64(w) * wt / total
	}
}

// AddCellPower injects watts at a single cell of a layer.
func (m *Model) AddCellPower(layer, x, y int, w units.Watt) {
	m.checkLayer(layer)
	if x < 0 || x >= m.cfg.GridW || y < 0 || y >= m.cfg.GridH {
		panic(fmt.Sprintf("thermal: cell (%d,%d) outside %dx%d grid", x, y, m.cfg.GridW, m.cfg.GridH))
	}
	m.power[m.node(layer, y*m.cfg.GridW+x)] += float64(w)
}

func (m *Model) checkLayer(layer int) {
	if layer < 0 || layer >= m.nLayers {
		panic(fmt.Sprintf("thermal: layer %d outside stack of %d", layer, m.nLayers))
	}
}

// TotalPower returns the currently injected power.
func (m *Model) TotalPower() units.Watt {
	t := 0.0
	for _, p := range m.power {
		t += p
	}
	return units.Watt(t)
}

// substepSchedule splits d into nFull substeps of maxStep plus a final
// remainder, replicating the rounding behaviour of the historical
// `remaining -= dt` loop (iterated subtraction, so transient
// trajectories stay bit-identical to the reference model) while
// dropping the pure floating-point residue that loop could leave: when
// d is a real-arithmetic multiple of maxStep, iterated subtraction can
// terminate ~1e-18 above zero and trigger a physically meaningless
// near-zero extra substep. Residues below maxStep*1e-9 are far under
// the 1 ps resolution of units.Time and cannot be genuine remainders.
func substepSchedule(d units.Time, maxStep float64) (nFull int, rem float64) {
	remaining := d.Seconds()
	for remaining > maxStep {
		remaining -= maxStep
		nFull++
	}
	if remaining <= maxStep*1e-9 {
		remaining = 0
	}
	return nFull, remaining
}

// schedule returns the cached substep plan for d, computing it on first
// use or when the duration changes.
func (m *Model) schedule(d units.Time) (nFull int, rem float64) {
	if m.plan.valid && m.plan.d == d {
		return m.plan.nFull, m.plan.rem
	}
	nFull, rem = substepSchedule(d, m.maxStep)
	m.plan = stepPlan{d: d, valid: true, nFull: nFull, rem: rem}
	return nFull, rem
}

// Step advances the transient solution by d, subdividing into an
// integer count of stable Euler substeps plus one remainder substep.
//
//coolpim:hotpath
func (m *Model) Step(d units.Time) {
	nFull, rem := m.schedule(d)
	for s := 0; s < nFull; s++ {
		m.eulerStep(m.maxStep)
	}
	if rem > 0 {
		m.eulerStep(rem)
	}
}

// eulerStep advances every node by one explicit-Euler substep, writing
// the next field into the spare buffer and swapping. The cell loop
// also maintains the running DRAM peak (the i >= nCells test is
// monotone over the loop, so it predicts perfectly).
func (m *Model) eulerStep(dt float64) {
	t, next := m.temp, m.tnext
	edges := m.edges
	power := m.power
	nCells := m.nCells
	sink := m.nNodes - 1
	// Every cell node shares the same heat capacity; only the sink
	// differs. A scalar divisor keeps one load and one bounds check out
	// of the hot loop without changing a bit of the arithmetic.
	capCell := m.cfg.CellCap
	peak := math.Inf(-1)
	for i := 0; i < sink; i++ {
		// cellFlux, written out in place: the call does not inline
		// (the 8-term body exceeds the budget) and a call per node
		// costs more than the flux walk itself.
		e := edges[i*edgesPerCell : i*edgesPerCell+edgesPerCell : i*edgesPerCell+edgesPerCell]
		ti := t[i]
		f := e[0].g * (t[e[0].j] - ti)
		f += e[1].g * (t[e[1].j] - ti)
		f += e[2].g * (t[e[2].j] - ti)
		f += e[3].g * (t[e[3].j] - ti)
		f += e[4].g * (t[e[4].j] - ti)
		f += e[5].g * (t[e[5].j] - ti)
		f += e[6].g * (t[e[6].j] - ti)
		f += e[7].g * (t[e[7].j] - ti)
		v := ti + dt*(f+power[i])/capCell
		next[i] = v
		if i >= nCells && v > peak {
			peak = v
		}
	}
	next[sink] = t[sink] + dt*(m.sinkFlux(t)+power[sink])/m.cfg.SinkCap
	m.temp, m.tnext = next, t
	m.peakDRAM, m.peakValid = peak, true
}

// sinkFlux is the specialized heat-sink node walk: top-die cells in
// cell order, then ambient — the same order the reference model uses.
func (m *Model) sinkFlux(t []float64) float64 {
	sink := m.nNodes - 1
	ts := t[sink]
	gSpread := m.gSpread
	f := 0.0
	for j := sink - m.nCells; j < sink; j++ {
		f += gSpread * (t[j] - ts)
	}
	f += m.gSink * (t[m.nNodes] - ts)
	return f
}

// SolveSteady relaxes the network to its steady state for the current
// power injection using Gauss-Seidel iteration. It returns the number of
// sweeps performed, or -1 if the iteration did not converge (callers
// must surface that as an error rather than read a half-converged
// field). It is bit-identical to the reference solver.
//
// SolveSteady is the steady-state solver hot path, entered once per
// sweep point of the figure campaigns.
//
//coolpim:hotpath
func (m *Model) SolveSteady() int {
	const (
		tol       = 1e-6
		maxSweeps = 200000
	)
	t := m.temp
	edges := m.edges
	power, gTot := m.power, m.gTot
	sink := m.nNodes - 1
	m.peakValid = false
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDelta := 0.0
		for i := 0; i < sink; i++ {
			// T_i = (P_i + Σ G_ij T_j + G_amb T_amb) / Σ G. The flux
			// form gives the same fixed point: the update solves for
			// the T_i that zeroes flux + P_i. cellFlux is written out
			// in place — see eulerStep.
			e := edges[i*edgesPerCell : i*edgesPerCell+edgesPerCell : i*edgesPerCell+edgesPerCell]
			ti := t[i]
			f := e[0].g * (t[e[0].j] - ti)
			f += e[1].g * (t[e[1].j] - ti)
			f += e[2].g * (t[e[2].j] - ti)
			f += e[3].g * (t[e[3].j] - ti)
			f += e[4].g * (t[e[4].j] - ti)
			f += e[5].g * (t[e[5].j] - ti)
			f += e[6].g * (t[e[6].j] - ti)
			f += e[7].g * (t[e[7].j] - ti)
			delta := (f + power[i]) / gTot[i]
			t[i] += delta
			if d := math.Abs(delta); d > maxDelta {
				maxDelta = d
			}
		}
		// The sink node relaxes last, as in the reference sweep order.
		delta := (m.sinkFlux(t) + power[sink]) / gTot[sink]
		t[sink] += delta
		if d := math.Abs(delta); d > maxDelta {
			maxDelta = d
		}
		if maxDelta < tol {
			return sweep
		}
	}
	return -1
}

// Reset returns every node to ambient.
func (m *Model) Reset() {
	amb := float64(m.cfg.Ambient)
	for i := range m.temp {
		m.temp[i] = amb
	}
	m.peakDRAM, m.peakValid = amb, true
}

// CellTemp returns the temperature of one cell.
func (m *Model) CellTemp(layer, x, y int) units.Celsius {
	m.checkLayer(layer)
	return units.Celsius(m.temp[m.node(layer, y*m.cfg.GridW+x)])
}

// LayerPeak returns the hottest cell temperature of a layer.
func (m *Model) LayerPeak(layer int) units.Celsius {
	m.checkLayer(layer)
	peak := math.Inf(-1)
	for c := 0; c < m.nCells; c++ {
		peak = math.Max(peak, m.temp[m.node(layer, c)])
	}
	return units.Celsius(peak)
}

// PeakDRAM returns the hottest DRAM cell in the stack — the quantity the
// paper's operating phases and all of Figs. 4, 5, 13 are defined on. The
// transient integrator maintains it incrementally, so the per-tick
// coupling and sampler read it in O(1) instead of rescanning the stack.
func (m *Model) PeakDRAM() units.Celsius {
	if !m.peakValid {
		peak := math.Inf(-1)
		for i := m.nCells; i < m.nNodes-1; i++ {
			peak = math.Max(peak, m.temp[i])
		}
		m.peakDRAM, m.peakValid = peak, true
	}
	return units.Celsius(m.peakDRAM)
}

// PeakLogic returns the hottest logic-die cell.
func (m *Model) PeakLogic() units.Celsius { return m.LayerPeak(0) }

// Peak returns the hottest cell anywhere in the stack.
func (m *Model) Peak() units.Celsius {
	return units.Celsius(math.Max(float64(m.PeakLogic()), float64(m.PeakDRAM())))
}

// LayerMap returns a copy of a layer's temperature grid indexed [y][x].
func (m *Model) LayerMap(layer int) [][]units.Celsius {
	m.checkLayer(layer)
	out := make([][]units.Celsius, m.cfg.GridH)
	for y := range out {
		out[y] = make([]units.Celsius, m.cfg.GridW)
		for x := range out[y] {
			out[y][x] = m.CellTemp(layer, x, y)
		}
	}
	return out
}

// EstimatedSurface estimates the case-surface temperature a thermal
// camera would measure: the in-package peak minus the package offset
// (SurfaceOffsetR × total power).
func (m *Model) EstimatedSurface() units.Celsius {
	return m.Peak() - m.cfg.SurfaceOffsetR.Rise(m.TotalPower())
}

// EstimateDieFromSurface performs the inverse estimate the paper's
// Fig. 2 uses to validate its model: given a measured surface
// temperature and the package power, estimate the die temperature.
func EstimateDieFromSurface(surface units.Celsius, totalPower units.Watt, offsetR units.ThermalResistance) units.Celsius {
	return surface + offsetR.Rise(totalPower)
}
