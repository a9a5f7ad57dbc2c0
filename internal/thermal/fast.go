// The relaxed-accuracy fast solver tier. The exact tier (Step,
// SolveSteady) is frozen bit-identical to the interpretive reference
// model: its serial floating-point chain is the contract. StepFast
// trades bit-identity for epsilon-bounded accuracy (the differential
// harness in accuracy_test.go pins the bound): it advances the
// transient solution over one coalesced interval with a few
// backward-Euler (implicit) substeps, each a warm-started red-black
// relaxation. Implicit Euler is unconditionally stable, so the substep
// width is bounded by accuracy (the sink node's time constant), not
// stability — a coalesced interval costs tens of sweeps instead of the
// hundreds of explicit substeps the exact tier would need. Interval
// thermal coupling in system.thermalCoupler is built on this.
//
// Red-black ordering: the stencil couples a node only to the opposite
// parity of (x + y + layer) — vertical neighbors flip the layer,
// lateral neighbors flip x or y, and the rim/sink couplings are handled
// outside the color sweeps — so every node update within one color
// reads only opposite-color (and boundary) values, and each color
// relaxes in one pass over its half of rbOrder.
package thermal

import (
	"fmt"
	"math"

	"coolpim/internal/units"
)

// fastStepTol is the per-substep solve tolerance of the transient fast
// tier, in °C of maximum per-node update. The backward-Euler
// discretization error (tenths of a °C mid-transient at the default
// substep width, see transientEpsilon) dwarfs anything below it, so
// iterating past 1e-3 buys sweeps, not accuracy.
const fastStepTol = 1e-3

// fastStepOmega is the relaxation factor of the warm-started implicit
// transient solve. Warm starts favour a mild factor: the asymptotic SOR
// rate matters less than the first few sweeps' overshoot, and the
// empirical sweet spot across the settling-transient sweep in
// fast_test.go sits near 1.4 (1.9 triples the sweep count there).
const fastStepOmega = 1.4

// buildColoring lays out the red-black node order: cell nodes with even
// (x + y + layer) parity first, then odd. The sink node is not colored;
// implicitStep relaxes it once per sweep after the two color passes, in
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
// term C/dt and told the window-start temperatures. The flux walk is
// written out in place for the same reason as eulerStep's: the 8-term
// body exceeds the inlining budget and a call per node costs more than
// the walk.
func (m *Model) relaxSpan(nodes []int32, bdiag float64, told []float64) float64 {
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
		delta := fastStepOmega * ((f + power[i] + bdiag*(told[i]-ti)) / (gTot[i] + bdiag))
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

// StepFast advances the transient solution by d with backward-Euler
// (implicit) substeps no wider than half the sink node's time constant
// (the slowest mode), each solved to fastStepTol by warm-started
// red-black SOR: a coalesced interval of many thermal ticks costs tens
// of sweeps, and a warm quasi-static interval just a few. It returns
// the total sweep count, or -1 if any substep failed to converge
// (callers must surface that, not read the field).
//
// Implicit steps damp sub-interval transient detail — the bargain of
// interval coupling; system.thermalCoupler bounds it by folding at most
// ten thermal ticks, and the accuracy harness pins the end-to-end
// error. Power is held at its current injection over the whole step,
// so callers folding a window of varying power must inject the
// window's time-average.
//
//coolpim:hotpath
func (m *Model) StepFast(d units.Time) int {
	if d <= 0 {
		return 0
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
		sweeps := m.implicitStep(w)
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
func (m *Model) implicitStep(d units.Time) int {
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
		maxDelta := m.relaxSpan(m.rbOrder[:m.nRed], bdiagCell, told)
		if d := m.relaxSpan(m.rbOrder[m.nRed:], bdiagCell, told); d > maxDelta {
			maxDelta = d
		}
		ts := m.temp[sink]
		delta := (m.sinkFlux(m.temp) + m.power[sink] + bdiagSink*(told[sink]-ts)) / (m.gTot[sink] + bdiagSink)
		m.temp[sink] = ts + delta
		if d := math.Abs(delta); d > maxDelta {
			maxDelta = d
		}
		if maxDelta < fastStepTol {
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
