// The relaxed-accuracy fast solver tier. The exact tier (Step,
// SolveSteady) is frozen bit-identical to the interpretive reference
// model and cannot get faster: its serial floating-point chain is the
// contract. The fast tier trades bit-identity for epsilon-bounded
// accuracy (the differential harness in accuracy_test.go pins the
// bound) and buys back throughput two ways:
//
//   - FastSolve relaxes the steady-state network with red-black-ordered
//     SOR at an over-relaxation factor tuned for the stack's spectral
//     radius, converging in far fewer sweeps than the reference
//     Gauss-Seidel solver.
//
//   - StepFast advances the transient solution over one large coalesced
//     interval with a few backward-Euler (implicit) substeps, each a
//     warm-started red-black relaxation. Implicit Euler is
//     unconditionally stable, so its substep width is bounded by
//     accuracy (the sink node's time constant), not stability — a
//     coalesced interval costs tens of sweeps instead of the hundreds
//     of stability-bounded explicit substeps the exact tier would need
//     (interval thermal coupling in system.thermalCoupler is built on
//     this).
//
// Red-black ordering is what makes the tier both deterministic and
// parallelizable: the stencil couples a node only to the opposite
// parity of (x + y + layer) — vertical neighbors flip the layer,
// lateral neighbors flip x or y, and the rim/sink couplings are handled
// outside the color sweeps — so every node update within one color
// reads only opposite-color (and boundary) values. Update order within
// a color therefore cannot change a single bit of the result, which
// means the parallel path (engaged only above parallelThreshold nodes)
// is bit-identical to the serial one; TestFastParallelBitIdentical
// pins that. The per-sweep max-|delta| reduction is a max over
// partition chunks combined in fixed chunk order — max is insensitive
// to grouping, so the reduction is deterministic too.
package thermal

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"coolpim/internal/units"
)

// fastTol is the default convergence tolerance of the steady fast
// solver, in °C of maximum per-node update. It is deliberately looser
// than the exact solver's 1e-6: the accuracy harness shows the
// end-to-end error it induces stays far inside the documented epsilon
// bound.
const fastTol = 1e-5

// fastStepTol is the default per-substep solve tolerance of the
// transient fast tier. Looser than fastTol on purpose: the backward-
// Euler discretization error (tenths of a °C mid-transient at the
// default substep width, see transientEpsilon) dwarfs anything below
// it, so iterating past 1e-3 buys sweeps, not accuracy.
const fastStepTol = 1e-3

// fastOmega is the SOR over-relaxation factor of the steady fast
// solver. The stack's iteration matrix is dominated by the lateral
// in-die Laplacian; from a cold start 1.9 is within a few sweeps of the
// empirically optimal factor for both HMC stacks across all four
// coolings (see the sweep in fast_test.go) while staying safely inside
// the (0, 2) convergence region.
const fastOmega = 1.9

// fastStepOmega is the relaxation factor of the warm-started implicit
// transient solve. Warm starts flip the trade-off: the asymptotic SOR
// rate matters less than the first few sweeps' overshoot, and the
// empirical sweet spot across the settling-transient sweep in
// fast_test.go sits near 1.4 (1.9 triples the sweep count there).
const fastStepOmega = 1.4

// parallelThreshold is the per-color node count below which the color
// sweeps stay serial: a goroutine round-trip costs more than relaxing a
// few thousand nodes, and the default HMC stacks (289 / 85 nodes) are
// far below it. Large synthetic grids cross it and fan out across
// GOMAXPROCS workers.
const parallelThreshold = 1 << 14

// buildColoring lays out the red-black node order: cell nodes with even
// (x + y + layer) parity first, then odd. The sink node is not colored;
// both solvers relax it once per sweep after the two color passes, in
// the same position the reference sweep order gives it.
func (m *Model) buildColoring() {
	m.rbOrder = make([]int32, 0, m.nNodes-1)
	sink := m.sinkNode()
	for parity := 0; parity <= 1; parity++ {
		for i := 0; i < sink; i++ {
			layer := i / m.nCells
			cell := i % m.nCells
			x, y := cell%m.cfg.GridW, cell/m.cfg.GridW
			if (x+y+layer)&1 == parity {
				m.rbOrder = append(m.rbOrder, int32(i))
			}
		}
		if parity == 0 {
			m.nRed = len(m.rbOrder)
		}
	}
}

// relaxSpan applies one relaxed update to each node in nodes and
// returns the span's max |delta|. bdiag folds the backward-Euler mass
// term C/dt and told the window-start temperatures; the steady solve
// passes bdiag = 0 with told aliased to the live field, which zeroes
// the mass terms without a per-node branch. The flux walk is written
// out in place for the same reason as eulerStep's: the 8-term body
// exceeds the inlining budget and a call per node costs more than the
// walk.
func (m *Model) relaxSpan(nodes []int32, omega, bdiag float64, told []float64) float64 {
	t := m.temp
	edges := m.edges
	power, gTot := m.power, m.gTot
	maxDelta := 0.0
	for _, n := range nodes {
		i := int(n)
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
		// Relax the node equation bdiag*(T - T_old) = flux(T) + P
		// toward its solution for the current neighbor field.
		delta := omega * ((f + power[i] + bdiag*(told[i]-ti)) / (gTot[i] + bdiag))
		t[i] = ti + delta
		if delta < 0 {
			delta = -delta
		}
		if delta > maxDelta {
			maxDelta = delta
		}
	}
	return maxDelta
}

// relaxColor sweeps one color class, serial or chunk-parallel, and
// returns the class's max |delta|.
func (m *Model) relaxColor(lo, hi int, omega, bdiag float64, told []float64) float64 {
	nodes := m.rbOrder[lo:hi]
	procs := runtime.GOMAXPROCS(0) //coolpim:allow hotalloc reads the scheduler's proc count; no allocation
	if len(nodes) < parallelThreshold || procs < 2 {
		return m.relaxSpan(nodes, omega, bdiag, told)
	}
	// Parallel tier: fixed chunking, one goroutine per chunk, per-chunk
	// maxima combined in chunk order. Within a color no node reads
	// another same-color node, so the values are bit-identical to the
	// serial sweep regardless of scheduling, and the max-reduction is
	// insensitive to chunk grouping. Everything below engages only above
	// parallelThreshold nodes, where each chunk amortizes its spawn cost
	// over thousands of node updates.
	chunks := procs * 2
	if max := (len(nodes) + parallelThreshold/4 - 1) / (parallelThreshold / 4); chunks > max {
		chunks = max
	}
	if len(m.chunkMax) < chunks {
		m.chunkMax = make([]float64, chunks) //coolpim:allow hotalloc one-time reduction-scratch growth, reused across sweeps
	}
	per := (len(nodes) + chunks - 1) / chunks
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		start := c * per
		end := start + per
		if end > len(nodes) {
			end = len(nodes)
		}
		if start >= end {
			m.chunkMax[c] = 0
			continue
		}
		wg.Add(1) //coolpim:allow hotalloc WaitGroup counter op; no allocation
		//coolpim:allow determinism worker goroutines touch disjoint same-color nodes and join before the sweep continues; values are order-independent (red-black) and the reduction is a chunk-ordered max
		go func(c int, span []int32) { //coolpim:allow hotalloc per-chunk worker closure, amortized over thousands of node updates above parallelThreshold
			defer wg.Done() //coolpim:allow hotalloc WaitGroup counter op; no allocation
			m.chunkMax[c] = m.relaxSpan(span, omega, bdiag, told)
		}(c, nodes[start:end])
	}
	wg.Wait() //coolpim:allow hotalloc joins the already-spawned chunk workers; no allocation
	maxDelta := 0.0
	for c := 0; c < chunks; c++ {
		if m.chunkMax[c] > maxDelta {
			maxDelta = m.chunkMax[c]
		}
	}
	return maxDelta
}

// FastSolve relaxes the network to steady state for the current power
// injection with red-black-ordered SOR — the fast-tier counterpart of
// SolveSteady. tol is the per-node max-update convergence tolerance in
// °C (tol <= 0 uses fastTol). It returns the number of sweeps,
// or -1 if the iteration did not converge; like SolveSteady, callers
// must surface -1 as an error rather than read a half-converged field.
//
// The result agrees with SolveSteady to within the epsilon bound pinned
// by the accuracy harness (they relax to the same fixed point; only the
// iteration path and stopping rule differ). It is not bit-identical —
// use SolveSteady where byte-stable outputs are required.
//
//coolpim:hotpath
func (m *Model) FastSolve(tol float64) int {
	if tol <= 0 {
		tol = fastTol
	}
	const maxSweeps = 200000
	sink := m.nNodes - 1
	m.peakValid = false
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDelta := m.relaxColor(0, m.nRed, fastOmega, 0, m.temp)
		if d := m.relaxColor(m.nRed, len(m.rbOrder), fastOmega, 0, m.temp); d > maxDelta {
			maxDelta = d
		}
		// The sink node relaxes last, un-relaxed (omega 1): it is the
		// stiffest node and over-relaxing it destabilizes the sweep.
		delta := (m.sinkFlux(m.temp) + m.power[sink]) / m.gTot[sink]
		m.temp[sink] += delta
		if d := math.Abs(delta); d > maxDelta {
			maxDelta = d
		}
		if maxDelta < tol {
			return sweep
		}
	}
	return -1
}

// StepFast advances the transient solution by d with backward-Euler
// (implicit) substeps, each solved by warm-started red-black SOR.
// Implicit Euler is unconditionally stable, so the substep width is
// bounded by accuracy (half the sink node's time constant, the slowest
// mode) rather than by the explicit tier's stability limit: a coalesced
// interval of many thermal ticks costs tens of sweeps instead of
// hundreds of explicit substeps, and a warm quasi-static interval costs
// just a few. tol is the per-node solve tolerance in °C (tol <= 0 uses
// the transient default of 1e-3, below which iteration buys sweeps, not
// accuracy); the total sweep count is returned, or -1 if any substep
// failed to converge (callers must surface that, not read the field).
//
// Accuracy: implicit steps damp sub-interval transient detail — that is
// exactly the bargain of interval coupling, and callers bound it by
// capping d (system.Config.MaxThermalInterval); the end-to-end error is
// pinned by the accuracy harness. Power is held at its current
// injection over the whole step, so callers folding a window of varying
// power must inject the window's time-average (see
// system.thermalCoupler).
//
//coolpim:hotpath
func (m *Model) StepFast(d units.Time, tol float64) int {
	if d <= 0 {
		return 0
	}
	if tol <= 0 {
		tol = fastStepTol
	}
	// Subdivide so no implicit substep exceeds the sink time constant:
	// backward Euler's first-order damping error scales with dt/tau, and
	// the slowest mode of the network is the sink node. The substeps are
	// equal-width, so the schedule is a pure function of d.
	nSub := 1
	if sec := d.Seconds(); sec > m.fastMaxStep {
		nSub = int(math.Ceil(sec / m.fastMaxStep))
	}
	sub := units.Time(int64(d) / int64(nSub))
	rem := d - sub.Times(nSub-1) // last substep absorbs the ps residue
	total := 0
	for s := 0; s < nSub; s++ {
		w := sub
		if s == nSub-1 {
			w = rem
		}
		sweeps := m.implicitStep(w, tol)
		if sweeps < 0 {
			return -1
		}
		total += sweeps
	}
	return total
}

// implicitStep performs one backward-Euler solve of width d with
// warm-started red-black SOR, returning the sweep count (-1 on
// non-convergence).
func (m *Model) implicitStep(d units.Time, tol float64) int {
	const maxSweeps = 100000
	dt := d.Seconds()
	// Window-start temperatures live in the spare buffer for the
	// duration of the solve (eulerStep's double-buffering never runs
	// concurrently with StepFast; the next swap just overwrites it).
	told := m.tnext
	copy(told, m.temp)
	sink := m.nNodes - 1
	bdiagCell := m.cfg.CellCap / dt
	bdiagSink := m.cfg.SinkCap / dt
	m.peakValid = false
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		maxDelta := m.relaxColor(0, m.nRed, fastStepOmega, bdiagCell, told)
		if d := m.relaxColor(m.nRed, len(m.rbOrder), fastStepOmega, bdiagCell, told); d > maxDelta {
			maxDelta = d
		}
		ts := m.temp[sink]
		delta := (m.sinkFlux(m.temp) + m.power[sink] + bdiagSink*(told[sink]-ts)) / (m.gTot[sink] + bdiagSink)
		m.temp[sink] = ts + delta
		if d := math.Abs(delta); d > maxDelta {
			maxDelta = d
		}
		if maxDelta < tol {
			return sweep
		}
	}
	return -1
}

// PowerInto copies the current per-node power injection into dst
// (grown when needed) and returns it. Interval coupling snapshots the
// injection at each real solve to detect later per-vault power breaks,
// and accumulates per-tick injections for window averaging.
func (m *Model) PowerInto(dst []float64) []float64 {
	if cap(dst) < len(m.power) {
		dst = make([]float64, len(m.power))
	}
	dst = dst[:len(m.power)]
	copy(dst, m.power)
	return dst
}

// LoadPower replaces the per-node power injection with src, the inverse
// of PowerInto. Interval coupling uses it to install a window's
// accumulated power before scaling it down to the window average.
func (m *Model) LoadPower(src []float64) {
	if len(src) != len(m.power) {
		panic(fmt.Sprintf("thermal: LoadPower with %d nodes, model has %d", len(src), len(m.power)))
	}
	copy(m.power, src)
}

// ScalePower multiplies every node's injected power by f. Interval
// coupling uses it to turn a window's accumulated energy (per-tick
// power × dt folded with AddLayerPower et al.) into the window's
// time-averaged power before the coalesced advance.
func (m *Model) ScalePower(f float64) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic(fmt.Sprintf("thermal: power scale factor %g", f))
	}
	for i := range m.power {
		m.power[i] *= f
	}
}
