package thermal

import (
	"math"
	"math/rand"
	"testing"

	"coolpim/internal/units"
)

// fastStacks is the fast-tier test matrix: both stack geometries under
// every Table II cooling solution.
func fastStacks() []StackConfig { return []StackConfig{HMC20Stack(), HMC11Stack()} }

// injectRandomPower loads a randomized but reproducible power pattern:
// uniform static floors plus per-cell dynamic hotspots, the same shape
// the coupled system injects.
func injectRandomPower(m *Model, rng *rand.Rand) {
	m.ClearPower()
	cfg := m.cfg
	m.AddLayerPower(0, units.Watt(5+15*rng.Float64()))
	for l := 1; l <= cfg.DRAMDies; l++ {
		m.AddLayerPower(l, units.Watt(0.2+1.5*rng.Float64()))
	}
	for k := 0; k < 4; k++ {
		x, y := rng.Intn(cfg.GridW), rng.Intn(cfg.GridH)
		m.AddCellPower(0, x, y, units.Watt(2*rng.Float64()))
	}
}

// maxNodeDiff returns the largest per-node absolute temperature
// difference between two models of the same geometry.
func maxNodeDiff(a, b *Model) float64 {
	maxd := 0.0
	for i := range a.temp {
		if d := math.Abs(a.temp[i] - b.temp[i]); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// transientEpsilon is the pinned fast-tier transient accuracy bound:
// StepFast over coalesced windows must track the exact explicit
// trajectory within this per-node bound at every window boundary, even
// through the steepest settling transient. Backward Euler's first-order
// damping error scales with the slew rate, so the worst case here is
// the stress pattern below — maximal power density (HMC1.1's small
// grid) under the weakest cooling, slewing hundreds of °C — where the
// measured worst is ~2.0 °C. The bound is absolute for that stress
// level; at paper-figure operating points the same relative error is an
// order of magnitude smaller, and the adaptive coupler additionally
// forces the exact tier inside a guard band below WarnTemp so throttle
// decisions never ride on mid-transient fast-tier values.
const transientEpsilon = 2.5

// settledEpsilon bounds the residual fast-vs-exact difference once the
// trajectory reaches quasi-steady state (measured worst ~0.14 °C on the
// same stress pattern; ~6e-3 °C at figure-level powers).
const settledEpsilon = 0.2

func TestStepFastTracksExactTransient(t *testing.T) {
	for _, stack := range fastStacks() {
		for _, cool := range Coolings() {
			exact := New(stack, cool)
			fast := New(stack, cool)
			injectRandomPower(exact, rand.New(rand.NewSource(23)))
			copy(fast.power, exact.power)
			const tick = 10 * units.Microsecond
			const window = 100 * units.Microsecond
			worst := 0.0
			for w := 0; w < 100; w++ {
				for i := 0; i < 10; i++ {
					exact.Step(tick)
				}
				if sw := fast.StepFast(window); sw < 0 {
					t.Fatalf("%s/%s: StepFast did not converge in window %d", stack.Name, cool.Name, w)
				}
				if d := maxNodeDiff(exact, fast); d > worst {
					worst = d
				}
			}
			if worst > transientEpsilon {
				t.Errorf("%s/%s: trajectory max |dT| = %.3e exceeds the %.2f transient bound",
					stack.Name, cool.Name, worst, transientEpsilon)
			}
			if d := maxNodeDiff(exact, fast); d > settledEpsilon {
				t.Errorf("%s/%s: settled |dT| = %.3e exceeds the %.2f settled bound",
					stack.Name, cool.Name, d, settledEpsilon)
			}
		}
	}
}

// TestStepFastZeroWidth pins that a zero or negative advance is a
// no-op, not a degenerate solve.
func TestStepFastZeroWidth(t *testing.T) {
	m := New(HMC20Stack(), CommodityServer)
	m.AddLayerPower(0, 20)
	m.Step(10 * units.Microsecond)
	before := append([]float64(nil), m.temp...)
	if sw := m.StepFast(0); sw != 0 {
		t.Errorf("StepFast(0) performed %d sweeps", sw)
	}
	if sw := m.StepFast(-units.Microsecond); sw != 0 {
		t.Errorf("StepFast(-1us) performed %d sweeps", sw)
	}
	for i := range before {
		if m.temp[i] != before[i] {
			t.Fatalf("zero-width StepFast moved node %d", i)
		}
	}
}

// TestStepFastZeroAllocs pins the warm transient fast path at zero
// allocations per coalesced advance — it replaces the exact Step on the
// adaptive coupling's hot path and must not regress the zero-alloc
// thermal tick.
func TestStepFastZeroAllocs(t *testing.T) {
	m := New(HMC20Stack(), CommodityServer)
	m.AddLayerPower(0, 20)
	for l := 1; l <= 8; l++ {
		m.AddLayerPower(l, 1.3)
	}
	m.StepFast(100 * units.Microsecond) // warm
	if avg := testing.AllocsPerRun(50, func() {
		m.StepFast(100 * units.Microsecond)
	}); avg != 0 {
		t.Errorf("StepFast allocates %.1f per advance, want 0", avg)
	}
}

// TestScalePower pins the energy-folding primitive the interval coupler
// uses: scaling accumulated energy down to a window average.
func TestScalePower(t *testing.T) {
	m := New(HMC11Stack(), Passive)
	m.AddLayerPower(0, 12)
	m.AddLayerPower(2, 4)
	m.ScalePower(0.25)
	if got, want := float64(m.TotalPower()), 4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("scaled total power %.6f, want %.6f", got, want)
	}
	m.ScalePower(0)
	if got := float64(m.TotalPower()); got != 0 {
		t.Errorf("zero-scaled power %v, want 0", got)
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ScalePower(%v) did not panic", bad)
				}
			}()
			m.ScalePower(bad)
		}()
	}
}

// TestColoringIsBipartite verifies the red-black invariant the whole
// fast tier rests on: no stencil edge joins two nodes of the same
// color (padding self-edges and the uncolored sink/ambient boundary
// excepted).
func TestColoringIsBipartite(t *testing.T) {
	for _, stack := range fastStacks() {
		m := New(stack, CommodityServer)
		color := make([]int, m.nNodes-1)
		for pos, n := range m.rbOrder {
			if pos < m.nRed {
				color[n] = 0
			} else {
				color[n] = 1
			}
		}
		if len(m.rbOrder) != m.nNodes-1 {
			t.Fatalf("%s: coloring covers %d of %d cell nodes", stack.Name, len(m.rbOrder), m.nNodes-1)
		}
		sink := m.sinkNode()
		for i := 0; i < sink; i++ {
			for _, e := range m.edges[i*edgesPerCell : (i+1)*edgesPerCell] {
				j := int(e.j)
				if e.g == 0 || j >= sink { // padding, sink or ambient
					continue
				}
				if color[i] == color[j] {
					t.Fatalf("%s: edge %d-%d joins two %s nodes", stack.Name, i, j,
						[]string{"red", "black"}[color[i]])
				}
			}
		}
	}
}
