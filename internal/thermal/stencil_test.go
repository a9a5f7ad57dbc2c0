package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coolpim/internal/units"
)

// The stencil kernel's contract is bit-identity with the interpretive
// reference model in reference_test.go: same neighbors visited in the same
// accumulation order means the same float rounding, so the differential
// tests below compare math.Float64bits, not approximate values.

// injectRandom applies the same randomized power pattern — layer-wide,
// weighted and single-cell injections — to both models.
func injectRandom(rng *rand.Rand, m *Model, r *referenceModel) {
	cfg := m.Config()
	for layer := 0; layer < cfg.Layers(); layer++ {
		w := units.Watt(rng.Float64() * 25)
		m.AddLayerPower(layer, w)
		r.addLayerPower(layer, w)
	}
	weights := make([]float64, cfg.Cells())
	for i := range weights {
		weights[i] = rng.Float64()
	}
	wl := rng.Intn(cfg.Layers())
	ww := units.Watt(rng.Float64() * 10)
	m.AddLayerPowerWeighted(wl, ww, weights)
	r.addLayerPowerWeighted(wl, ww, weights)
	for n := 0; n < 4; n++ {
		layer := rng.Intn(cfg.Layers())
		x, y := rng.Intn(cfg.GridW), rng.Intn(cfg.GridH)
		w := units.Watt(rng.Float64() * 5)
		m.AddCellPower(layer, x, y, w)
		r.addCellPower(layer, x, y, w)
	}
}

// requireBitIdentical compares every network node of the two models
// bitwise (the stencil model's trailing ambient slot is excluded: the
// reference has no such node).
func requireBitIdentical(t *testing.T, m *Model, r *referenceModel, context string) {
	t.Helper()
	for i := 0; i < r.nNodes; i++ {
		if math.Float64bits(m.temp[i]) != math.Float64bits(r.temp[i]) {
			t.Fatalf("%s: node %d diverged: stencil %v (%#x) vs reference %v (%#x)",
				context, i, m.temp[i], math.Float64bits(m.temp[i]),
				r.temp[i], math.Float64bits(r.temp[i]))
		}
	}
}

func differentialCases() []struct {
	stack   StackConfig
	cooling Cooling
} {
	var cases []struct {
		stack   StackConfig
		cooling Cooling
	}
	for _, stack := range []StackConfig{HMC20Stack(), HMC11Stack()} {
		for _, cooling := range Coolings() {
			cases = append(cases, struct {
				stack   StackConfig
				cooling Cooling
			}{stack, cooling})
		}
	}
	return cases
}

// TestStencilTransientMatchesReference drives both implementations
// through randomized power injections and transient steps of varied
// duration and checks the temperature fields stay bit-identical.
func TestStencilTransientMatchesReference(t *testing.T) {
	for _, tc := range differentialCases() {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s", tc.stack.Name, tc.cooling.Name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			m := New(tc.stack, tc.cooling)
			r := newReference(tc.stack, tc.cooling)
			for round := 0; round < 5; round++ {
				m.ClearPower()
				r.clearPower()
				injectRandom(rng, m, r)
				// Durations straddle the substep size: shorter than one
				// maxStep, a paper-profile thermal tick, and a long step.
				for _, d := range []units.Time{
					500 * units.Nanosecond,
					10 * units.Microsecond,
					units.FromSeconds(float64(1+rng.Intn(3)) * 1e-4),
				} {
					m.Step(d)
					r.step(d)
					requireBitIdentical(t, m, r, fmt.Sprintf("round %d step %v", round, d))
				}
			}
		})
	}
}

// TestStencilSteadyMatchesReference checks SolveSteady performs the
// identical Gauss-Seidel iteration: same sweep count, bit-identical
// converged field, on every stack × cooling combination.
func TestStencilSteadyMatchesReference(t *testing.T) {
	for _, tc := range differentialCases() {
		tc := tc
		t.Run(fmt.Sprintf("%s/%s", tc.stack.Name, tc.cooling.Name), func(t *testing.T) {
			rng := rand.New(rand.NewSource(43))
			m := New(tc.stack, tc.cooling)
			r := newReference(tc.stack, tc.cooling)
			injectRandom(rng, m, r)
			ms := m.SolveSteady()
			rs := r.solveSteady()
			if ms != rs {
				t.Fatalf("sweep counts diverged: stencil %d vs reference %d", ms, rs)
			}
			if ms < 0 {
				t.Fatalf("solver did not converge")
			}
			requireBitIdentical(t, m, r, "steady state")
		})
	}
}

// TestStencilSteadyAfterTransient interleaves the two modes the way the
// experiment code does (warm start a steady solve from a transient
// field, then keep stepping).
func TestStencilSteadyAfterTransient(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	stack := HMC20Stack()
	m := New(stack, CommodityServer)
	r := newReference(stack, CommodityServer)
	injectRandom(rng, m, r)
	m.Step(units.Millisecond)
	r.step(units.Millisecond)
	if ms, rs := m.SolveSteady(), r.solveSteady(); ms != rs {
		t.Fatalf("sweep counts diverged: stencil %d vs reference %d", ms, rs)
	}
	m.Step(50 * units.Microsecond)
	r.step(50 * units.Microsecond)
	requireBitIdentical(t, m, r, "steady+transient interleave")
}

// TestSORMatchesGaussSeidelFixedPoint checks the relaxed solver reaches
// the same steady state (within the solver tolerance) in no more sweeps
// than plain Gauss-Seidel, and that omega=1 goes through the identical
// code path.
func TestSORMatchesGaussSeidelFixedPoint(t *testing.T) {
	stack := HMC20Stack()
	gs := New(stack, CommodityServer)
	sor := New(stack, CommodityServer)
	gs.AddLayerPower(0, 20.66)
	sor.AddLayerPower(0, 20.66)
	gsSweeps := gs.SolveSteady()
	sorSweeps := sor.SolveSteadySOR(1.5)
	if gsSweeps < 0 || sorSweeps < 0 {
		t.Fatalf("non-convergence: gs=%d sor=%d", gsSweeps, sorSweeps)
	}
	t.Logf("sweeps: Gauss-Seidel %d, SOR(1.5) %d", gsSweeps, sorSweeps)
	if diff := math.Abs(float64(gs.Peak() - sor.Peak())); diff > 1e-4 {
		t.Errorf("fixed points differ by %.2g °C", diff)
	}
	for _, bad := range []float64{0, -0.5, 2, 2.5} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SolveSteadySOR(%g) did not panic", bad)
				}
			}()
			New(stack, CommodityServer).SolveSteadySOR(bad)
		}()
	}
}

// TestSubstepScheduleAwkwardRatios pins the integer substep schedule on
// ratios where the historical `remaining -= dt` float loop could leave
// a ~1e-18 residue and run a physically meaningless extra substep.
func TestSubstepScheduleAwkwardRatios(t *testing.T) {
	d := 10 * units.Microsecond
	// maxStep = d/3 in real arithmetic; iterated subtraction of the
	// float value leaves a tiny positive residue after 3 subtractions.
	maxStep := d.Seconds() / 3
	if rem := d.Seconds() - maxStep - maxStep - maxStep; rem <= 0 {
		t.Skipf("d/3 subtraction is exact on this platform (residue %g)", rem)
	}
	nFull, rem := substepSchedule(d, maxStep)
	if nFull != 3 || rem != 0 {
		t.Errorf("d/3: got %d full substeps + %g remainder, want exactly 3 + 0", nFull, rem)
	}

	// A genuine remainder well above the residue threshold must survive.
	nFull, rem = substepSchedule(7*units.Microsecond, 2e-6)
	if nFull != 3 || math.Abs(rem-1e-6) > 1e-12 {
		t.Errorf("7us/2us: got %d + %g, want 3 + 1e-6", nFull, rem)
	}

	// Degenerate inputs: zero or negative durations take no substeps.
	for _, d := range []units.Time{0, -units.Microsecond} {
		if nFull, rem := substepSchedule(d, 1e-6); nFull != 0 || rem != 0 {
			t.Errorf("substepSchedule(%v): got %d + %g, want 0 + 0", d, nFull, rem)
		}
	}

	// d below one maxStep is a single remainder substep.
	if nFull, rem := substepSchedule(units.Microsecond, 5e-6); nFull != 0 || rem != 1e-6 {
		t.Errorf("1us/5us: got %d + %g, want 0 + 1e-6", nFull, rem)
	}

	// The schedule is cached per duration on the model.
	m := New(HMC20Stack(), CommodityServer)
	m.Step(10 * units.Microsecond)
	first := m.plan
	m.Step(10 * units.Microsecond)
	if m.plan != first {
		t.Errorf("plan recomputed for identical duration: %+v vs %+v", m.plan, first)
	}
	m.Step(20 * units.Microsecond)
	if m.plan.d != 20*units.Microsecond {
		t.Errorf("plan not refreshed on new duration: %+v", m.plan)
	}
}

// TestThermalStepZeroAllocs pins the transient hot path — Step plus the
// PeakDRAM read the coupling does every tick — at zero allocations, and
// the steady solver after its one-time construction likewise.
func TestThermalStepZeroAllocs(t *testing.T) {
	m := New(HMC20Stack(), CommodityServer)
	m.AddLayerPower(0, 20.66)
	for l := 1; l <= 8; l++ {
		m.AddLayerPower(l, 10.47/8)
	}
	m.Step(10 * units.Microsecond) // warm the schedule cache
	if avg := testing.AllocsPerRun(100, func() {
		m.Step(10 * units.Microsecond)
		_ = m.PeakDRAM()
	}); avg != 0 {
		t.Errorf("Step+PeakDRAM allocates %.1f per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() {
		m.Reset()
		if m.SolveSteady() < 0 {
			t.Fatal("steady solve did not converge")
		}
		_ = m.PeakDRAM()
	}); avg != 0 {
		t.Errorf("SolveSteady allocates %.1f per run, want 0", avg)
	}
}

// TestPeakDRAMIncrementalMatchesScan checks the incrementally tracked
// peak equals a fresh scan over the DRAM nodes after both transient and
// steady-state updates.
func TestPeakDRAMIncrementalMatchesScan(t *testing.T) {
	scan := func(m *Model) float64 {
		peak := math.Inf(-1)
		for i := m.nCells; i < m.nNodes-1; i++ {
			peak = math.Max(peak, m.temp[i])
		}
		return peak
	}
	m := New(HMC20Stack(), CommodityServer)
	m.AddLayerPower(0, 20.66)
	m.AddCellPower(3, 2, 1, 4)
	for i := 0; i < 20; i++ {
		m.Step(10 * units.Microsecond)
		if got, want := float64(m.PeakDRAM()), scan(m); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tick %d: incremental peak %v != scanned %v", i, got, want)
		}
	}
	if m.SolveSteady() < 0 {
		t.Fatal("steady solve did not converge")
	}
	if got, want := float64(m.PeakDRAM()), scan(m); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("steady: lazy peak %v != scanned %v", got, want)
	}
	m.Reset()
	if got := float64(m.PeakDRAM()); got != float64(m.cfg.Ambient) {
		t.Fatalf("after Reset: peak %v, want ambient", got)
	}
}
