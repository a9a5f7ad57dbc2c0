package system

import (
	"fmt"

	"coolpim/internal/hmc"
	"coolpim/internal/power"
	"coolpim/internal/telemetry"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// ThermalMode selects the power→temperature coupling tier.
type ThermalMode string

const (
	// ThermalExact steps the RC network every ThermalTick with the
	// frozen explicit operator — byte-identical outputs, the default.
	ThermalExact ThermalMode = "exact"
	// ThermalAdaptive is interval coupling: ticks whose power injection
	// stays within powerDeltaThreshold of the last real solve are folded
	// into one coalesced implicit advance (at most maxIntervalTicks
	// ticks), trading bit-identity for the epsilon bound pinned by the
	// accuracy harness.
	ThermalAdaptive ThermalMode = "adaptive"
)

// ParseThermalMode parses a -thermal-mode flag value ("" means exact).
func ParseThermalMode(s string) (ThermalMode, error) {
	switch ThermalMode(s) {
	case "", ThermalExact:
		return ThermalExact, nil
	case ThermalAdaptive:
		return ThermalAdaptive, nil
	}
	return "", fmt.Errorf("unknown thermal mode %q (want exact or adaptive)", s)
}

// powerDeltaThreshold is the adaptive breach threshold: the largest
// per-node (per vault cell) injection change, in watts, that still
// counts as quasi-static. The threshold is deliberately loose — 1 W per
// node — because energy below it is folded into the window average,
// never dropped: jitter under the threshold costs only sub-window
// timing detail (an equilibrated 1 W/node shift moves a cell ~0.2 °C
// given its ~5 W/K total conductance), while anything larger — kernel
// phase changes, throttle transitions — breaks the window and gets
// exact-tier latency. Activity-driven injection on the default stack
// jitters 0.3–0.7 W/node tick-to-tick (p50–p90 on the campaign
// workloads), so a tight threshold would disable interval coupling
// entirely; the end-to-end effect of the choice is pinned by the
// accuracy harness.
const powerDeltaThreshold = 1.0

// maxIntervalTicks caps the skip horizon: a pending window flushes once
// it holds this many thermal ticks (10 ticks = 100 µs at the default
// cadence, the sample interval), so throttle-reaction latency is never
// deferred past it.
const maxIntervalTicks = 10

// thermalGuardBand (°C) forces exact per-tick stepping whenever the
// last solved peak DRAM temperature is within this margin of the cube's
// WarnTemp. The fast tier's transient trajectory error is pinned well
// below this band (transientEpsilon in the thermal accuracy suite), so
// a throttle decision can never ride on a coalesced solve: by the time
// the stack is close enough to WarnTemp for the bound to matter, the
// coupler is already stepping exactly and reaction latency equals the
// exact tier's.
const thermalGuardBand = 5.0

// thermalCoupler drives the per-tick power→temperature feedback loop:
// cube activity counters → power budget → spatial power injection →
// transient thermal step → peak DRAM temperature. It owns the counter
// baseline and all scratch buffers, so a tick performs no allocations
// (pinned by TestApplyPowerTickZeroAllocs for both modes) — the
// coupling runs every ThermalTick of every closed-loop run, which makes
// it part of the simulator's hot path alongside the thermal kernel
// itself.
//
// In adaptive mode the coupler is an interval thermal simulator: each
// tick it computes the instantaneous injection, and while that stays
// within threshold of the snapshot taken at the last real solve it only
// accumulates (skipping the RC step entirely, returning the stale
// peak). The pending window is flushed — one coalesced StepFast over
// the window's time-averaged power — when the horizon is reached, when
// a power break is detected (the pending window solves first, then the
// breaking tick gets its own full-fidelity exact step, so a power step
// landing mid-window never smears into the average), or when the run
// drains. Near WarnTemp the guard band disables skipping outright.
type thermalCoupler struct {
	cube  *hmc.Cube
	model *thermal.Model
	power power.Model
	stack thermal.StackConfig
	prev  hmc.Counters
	// weights is the reusable vault-activity buffer; nil when the vault
	// count does not match the thermal grid (power then spreads
	// uniformly).
	weights []float64

	// Adaptive interval coupling (unused in exact mode).
	mode      ThermalMode
	guardTemp units.Celsius // peaks at/above this force exact ticks
	tickVec   []float64     // this tick's instantaneous injection
	refVec    []float64     // injection snapshot at the last real solve
	energy    []float64     // per-node sum of injections over the window
	pending   int           // ticks folded into the current window
	pendingT  units.Time    // width of the current window
	lastTick  units.Time    // end time of the last processed tick
	lastPeak  units.Celsius // peak DRAM at the last real solve
	stale     bool          // a skipped tick reported lastPeak

	// Telemetry (inert when spans is nil / disabled).
	spans     *telemetry.SpanTracer
	exactName telemetry.SpanName
	fastName  telemetry.SpanName
	ticks     uint64  // total coupling ticks
	skipped   uint64  // ticks folded without a solve
	solves    uint64  // real thermal advances (exact + fast)
	fast      uint64  // coalesced fast advances among solves
	staleErr  float64 // accumulated |ΔpeakDRAM| across stale windows
}

func newThermalCoupler(cube *hmc.Cube, model *thermal.Model, cfg Config) *thermalCoupler {
	c := &thermalCoupler{
		cube:  cube,
		model: model,
		power: cfg.Power,
		stack: cfg.Stack,
		mode:  cfg.ThermalMode,
	}
	if cube.Config().Vaults == c.stack.Cells() {
		c.weights = make([]float64, c.stack.Cells())
	}
	if c.mode == "" {
		c.mode = ThermalExact
	}
	if c.mode == ThermalAdaptive {
		c.guardTemp = cfg.HMC.WarnTemp - thermalGuardBand
		c.tickVec = model.PowerInto(nil)
		c.refVec = model.PowerInto(nil)
		c.energy = model.PowerInto(nil)
		c.lastPeak = model.PeakDRAM()
	}
	return c
}

// setSpans wires the solve spans (adaptive mode only records them; the
// exact tier keeps its byte-stable thermal.tick span stream untouched).
func (c *thermalCoupler) setSpans(spans *telemetry.SpanTracer) {
	c.spans = spans
	c.exactName = spans.Name("thermal.solve.exact")
	c.fastName = spans.Name("thermal.solve.fast")
}

// vaultWeights refreshes the scratch buffer with per-vault activity and
// returns it, or nil when the geometries don't line up (32 vaults ↔ 32
// cells) or no activity has accrued yet — both mean uniform spreading.
func (c *thermalCoupler) vaultWeights() []float64 {
	if c.weights == nil {
		return nil
	}
	w := c.cube.VaultActivityInto(c.weights)
	total := 0.0
	for _, x := range w {
		total += x
	}
	if total == 0 {
		return nil
	}
	return w
}

// inject loads the budget onto the stack (activity-weighted when vault
// geometry allows), on top of whatever the model currently holds —
// callers clear first.
func (c *thermalCoupler) inject(b power.Budget, weights []float64) {
	m := c.model
	m.AddLayerPower(0, b.StaticLogic)
	if weights != nil {
		m.AddLayerPowerWeighted(0, b.Logic+b.FU, weights)
	} else {
		m.AddLayerPower(0, b.Logic+b.FU)
	}
	dies := units.Watt(float64(c.stack.DRAMDies))
	for l := 1; l <= c.stack.DRAMDies; l++ {
		m.AddLayerPower(l, b.StaticDRAM/dies)
		dyn := b.DRAM / dies
		if weights != nil {
			m.AddLayerPowerWeighted(l, dyn, weights)
		} else {
			m.AddLayerPower(l, dyn)
		}
	}
}

// tick advances the coupling by one thermal tick ending at now: it
// converts the counter delta since the previous tick into a power
// budget, injects it onto the stack, advances the thermal model (every
// tick in exact mode; on window boundaries in adaptive mode) and
// returns the peak DRAM temperature — the live value after a real
// solve, the last solved value while a window is accumulating.
//
//coolpim:hotpath
func (c *thermalCoupler) tick(now, dt units.Time) units.Celsius {
	ctr := c.cube.Counters()
	d := deltaCounters(ctr, c.prev)
	c.prev = ctr
	b := c.power.Compute(activityFor(d, dt))
	weights := c.vaultWeights()
	m := c.model
	m.ClearPower()
	c.inject(b, weights)
	if c.mode != ThermalAdaptive {
		c.ticks++
		c.solves++
		m.Step(dt)
		return m.PeakDRAM()
	}
	return c.tickAdaptive(now, dt)
}

// tickAdaptive is the interval-coupling tick: the model already holds
// this tick's instantaneous injection.
func (c *thermalCoupler) tickAdaptive(now, dt units.Time) units.Celsius {
	c.ticks++
	c.lastTick = now
	c.tickVec = c.model.PowerInto(c.tickVec) //coolpim:allow hotalloc tickVec is pre-grown at construction; PowerInto's grow path never runs here
	if c.breach() || c.lastPeak >= c.guardTemp {
		// Flush the pending window at its own average, then give the
		// breaking tick a full-fidelity exact step so a power step (or
		// proximity to the throttle threshold) reacts with exact-tier
		// latency instead of smearing into the window average.
		c.flush(now - dt)
		c.model.LoadPower(c.tickVec)
		sp := c.spans.StartSpan(now-dt, c.exactName)
		c.model.Step(dt)
		sp.End(now)
		c.solves++
		c.settle()
		return c.lastPeak
	}
	// Quasi-static: fold the tick into the window.
	for i, p := range c.tickVec {
		c.energy[i] += p
	}
	c.pending++
	c.pendingT += dt
	// Horizon cap: every tick is one ThermalTick wide, so the window
	// flushes once it holds maxIntervalTicks of them.
	if c.pending == maxIntervalTicks {
		c.flush(now)
		c.settle()
		return c.lastPeak
	}
	c.skipped++
	c.stale = true
	return c.lastPeak
}

// breach reports whether this tick's injection moved more than
// powerDeltaThreshold on any node since the snapshot at the last real
// solve.
func (c *thermalCoupler) breach() bool {
	for i, p := range c.tickVec {
		d := p - c.refVec[i]
		if d < 0 {
			d = -d
		}
		if d > powerDeltaThreshold {
			return true
		}
	}
	return false
}

// flush advances the model over the pending window (ending at end) with
// its time-averaged power. No-op when nothing is pending.
func (c *thermalCoupler) flush(end units.Time) {
	if c.pending == 0 {
		return
	}
	m := c.model
	m.LoadPower(c.energy)
	m.ScalePower(1 / float64(c.pending))
	start := end - c.pendingT
	if c.pending == 1 {
		// A single-tick window gains nothing from the implicit solver;
		// use the exact explicit step so narrow windows cost nothing in
		// accuracy.
		sp := c.spans.StartSpan(start, c.exactName)
		m.Step(c.pendingT)
		sp.End(end)
	} else {
		sp := c.spans.StartSpan(start, c.fastName)
		if m.StepFast(c.pendingT) < 0 {
			// The implicit solve failed to converge (never observed, but
			// the -1 contract must be handled): fall back to exact
			// stepping. All folded ticks are equal-width, so the window
			// splits evenly.
			w := c.pendingT / units.Time(c.pending)
			for i := 0; i < c.pending; i++ {
				m.Step(w)
			}
		}
		sp.End(end)
		c.fast++
	}
	c.solves++
}

// settle resets the window state after a real solve.
func (c *thermalCoupler) settle() {
	peak := c.model.PeakDRAM()
	if c.stale {
		d := float64(peak - c.lastPeak)
		if d < 0 {
			d = -d
		}
		c.staleErr += d
		c.stale = false
	}
	c.lastPeak = peak
	copy(c.refVec, c.tickVec)
	for i := range c.energy {
		c.energy[i] = 0
	}
	c.pending = 0
	c.pendingT = 0
}

// observe flushes any pending window and returns the freshly solved
// peak DRAM temperature. The time-series sampler calls this instead of
// reading the model directly so every *plotted* temperature is a real
// solved value at (or within one tick of) the sample instant — without
// it, a sample landing mid-window reports a peak up to a full horizon
// stale, which during the cold-start ramp at campaign power (slew
// ~1e5 °C/s) is a double-digit °C artifact. Observation points are
// sparse (one per SampleInterval ≈ one horizon), so the extra flushes
// cost at most one solve per sample and the window state resets
// exactly as a horizon flush would. Exact mode reads straight through.
func (c *thermalCoupler) observe() units.Celsius {
	if c.mode != ThermalAdaptive {
		return c.model.PeakDRAM()
	}
	if c.pending > 0 {
		c.flush(c.lastTick)
		c.settle()
	}
	return c.lastPeak
}

// drain flushes any window still pending at end of run and returns the
// final peak DRAM temperature. Exact mode never accumulates, so this is
// a no-op there.
func (c *thermalCoupler) drain() units.Celsius {
	return c.observe()
}

// couplerStats is the adaptive tier's observability snapshot.
type couplerStats struct {
	Ticks    uint64
	Skipped  uint64
	Solves   uint64
	Fast     uint64
	StaleErr float64
}

func (c *thermalCoupler) stats() couplerStats {
	return couplerStats{Ticks: c.ticks, Skipped: c.skipped, Solves: c.solves, Fast: c.fast, StaleErr: c.staleErr}
}

// skipRate is the fraction of coupling ticks folded without a solve.
func (s couplerStats) skipRate() float64 {
	if s.Ticks == 0 {
		return 0
	}
	return float64(s.Skipped) / float64(s.Ticks)
}
