package core

import (
	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// This file implements the extension the paper sketches in Section IV
// footnote 4: "The current HMC 2.0 specification defines a single
// thermal error state, but it can trivially define multiple error states
// as multiple unused error status bits are available in the field."
//
// MultiLevelHWDynT drives the PCUs from a two-level warning: an ordinary
// warning (ERRSTAT 0x01, >85 °C) applies the normal control factor,
// while a critical warning (a second error state, >CriticalTemp) applies
// an emergency factor immediately — bypassing the delayed-control-update
// settle window, because a cube racing toward shutdown cannot afford to
// wait out Tthermal.

// WarningLevel classifies a thermal warning.
type WarningLevel int

// Warning levels.
const (
	// WarnNormal is the standard >85 °C ERRSTAT warning.
	WarnNormal WarningLevel = iota
	// WarnCritical is the extension's second error state (>95 °C by
	// default): the cube is one phase away from shutdown.
	WarnCritical
)

// MultiLevelConfig parametrizes the extension.
type MultiLevelConfig struct {
	Config
	// CriticalFactor is the PCU reduction applied on a critical
	// warning (per SM). Should be several times HWControlFactor.
	CriticalFactor int
	// CriticalSettle is the (short) lockout after an emergency step,
	// just long enough to let the intensity reduction reach the cube.
	CriticalSettle units.Time
}

// DefaultMultiLevelConfig returns the extension defaults.
func DefaultMultiLevelConfig() MultiLevelConfig {
	return MultiLevelConfig{
		Config:         DefaultConfig(),
		CriticalFactor: 48,
		CriticalSettle: 200 * units.Microsecond,
	}
}

// MultiLevelHWDynT is HW-DynT with the two-level warning extension.
type MultiLevelHWDynT struct {
	cfg      MultiLevelConfig
	eng      *sim.Engine
	pcus     []PCU
	gate     warningGate // normal-level gate
	critGate warningGate // emergency gate
	critical uint64
	// Spans, if set, records one "throttle.react.hw" (normal) or
	// "throttle.react.critical" (emergency) span per accepted warning,
	// and a pool.resize instant (reason "warning" or "critical") for
	// every control update.
	Spans *telemetry.SpanTracer
}

// NewMultiLevelHWDynT builds the extended hardware mechanism.
func NewMultiLevelHWDynT(eng *sim.Engine, cfg MultiLevelConfig, numSMs, warpsPerSM int) *MultiLevelHWDynT {
	if numSMs <= 0 || warpsPerSM <= 0 {
		panic("core: MultiLevelHWDynT with non-positive geometry")
	}
	h := &MultiLevelHWDynT{
		cfg:      cfg,
		eng:      eng,
		pcus:     make([]PCU, numSMs),
		gate:     warningGate{delay: cfg.HWThrottleDelay, settle: cfg.SettleTime},
		critGate: warningGate{delay: cfg.HWThrottleDelay, settle: cfg.CriticalSettle},
	}
	for i := range h.pcus {
		h.pcus[i].limit = warpsPerSM
	}
	return h
}

// WarpPIMEnabled implements the PCU decode check.
func (h *MultiLevelHWDynT) WarpPIMEnabled(sm, warpSlot int) bool {
	return h.pcus[sm].Enabled(warpSlot)
}

// Limit returns an SM's PIM-enabled warp count.
func (h *MultiLevelHWDynT) Limit(sm int) int { return h.pcus[sm].Limit() }

// OnWarning delivers a leveled thermal warning.
func (h *MultiLevelHWDynT) OnWarning(now units.Time, level WarningLevel) {
	if level == WarnCritical {
		h.critical++
		applyAt, ok := h.critGate.offer(now)
		if !ok {
			return
		}
		sp := h.Spans.StartSpan(now, h.Spans.Name("throttle.react.critical"))
		h.eng.AtNamed(applyAt, "throttle", func(at units.Time) {
			h.reduce(at, h.cfg.CriticalFactor, "critical")
			h.critGate.applied(at)
			// An emergency step satisfies the normal loop too.
			h.gate.lockout(at)
			sp.End(at)
		})
		return
	}
	applyAt, ok := h.gate.offer(now)
	if !ok {
		return
	}
	sp := h.Spans.StartSpan(now, h.Spans.Name("throttle.react.hw"))
	h.eng.AtNamed(applyAt, "throttle", func(at units.Time) {
		h.reduce(at, h.cfg.HWControlFactor, "warning")
		h.gate.applied(at)
		sp.End(at)
	})
}

func (h *MultiLevelHWDynT) reduce(at units.Time, cf int, reason string) {
	before := totalLimit(h.pcus)
	for i := range h.pcus {
		h.pcus[i].step(cf)
	}
	h.Spans.PoolResize(at, "hw-pcu", before, totalLimit(h.pcus), reason)
}

// ObserveWarpSlot mirrors HWDynT.ObserveWarpSlot.
func (h *MultiLevelHWDynT) ObserveWarpSlot(sm, warpSlot int) {
	if warpSlot+1 > h.pcus[sm].occupied {
		h.pcus[sm].occupied = warpSlot + 1
	}
}

// Warnings returns (normal-level seen, control updates applied,
// critical-level seen).
func (h *MultiLevelHWDynT) Warnings() (seen, applied, critical uint64) {
	return h.gate.warnings + h.critical, h.gate.updates + h.critGate.updates, h.critical
}

// mlPolicy adapts the extension to the Policy interface. It classifies
// warnings by the temperature the system reports through
// SetWarningLevelSource.
type mlPolicy struct {
	dynt  *MultiLevelHWDynT
	level func() WarningLevel
}

// NewCoolPIMHWMultiLevel wraps the extension as a Policy. level reports
// the current warning severity at delivery time (the system wires it to
// the thermal model's phase).
func NewCoolPIMHWMultiLevel(dynt *MultiLevelHWDynT, level func() WarningLevel) Policy {
	if level == nil {
		level = func() WarningLevel { return WarnNormal }
	}
	return &mlPolicy{dynt: dynt, level: level}
}

func (p *mlPolicy) Kind() PolicyKind   { return CoolPIMHW }
func (p *mlPolicy) BlockLaunch() bool  { return true }
func (p *mlPolicy) BlockComplete(bool) {}
func (p *mlPolicy) WarpPIMEnabled(sm, warpSlot int) bool {
	return p.dynt.WarpPIMEnabled(sm, warpSlot)
}
func (p *mlPolicy) OnThermalWarning(now units.Time) { p.dynt.OnWarning(now, p.level()) }

// ObserveWarpSlot implements OccupancyObserver.
func (p *mlPolicy) ObserveWarpSlot(sm, warpSlot int) { p.dynt.ObserveWarpSlot(sm, warpSlot) }
