// Package core implements CoolPIM itself: the thermal-aware source
// throttling mechanisms of Section IV. Both mechanisms close a feedback
// loop around the HMC's thermal-warning messages (ERRSTAT = 0x01 in
// response tails):
//
//   - SW-DynT throttles at CUDA-block granularity through a PIM token
//     pool (PTP) in the GPU runtime. Blocks that obtain a token run
//     PIM-enabled; every atomic of a block that doesn't executes as a
//     regular CUDA atomic, as the paper's pre-generated non-PIM kernel
//     would issue it. A thermal interrupt (delivered with the software
//     throttle delay, ~0.1 ms) shrinks the pool:
//     PTP = min(PTP − CF, #issuedTokens). The initial pool size comes
//     from the Eq. 1 static analysis plus a small margin.
//
//   - HW-DynT throttles at warp granularity through a per-SM PIM Control
//     Unit (PCU). All blocks run PIM-enabled; at decode, warps whose
//     slot index is not PIM-enabled have their PIM instructions
//     translated to regular CUDA atomics (Table III). Warnings reach the
//     PCU after only ~0.1 µs, and "delayed control updates" suppress
//     further reductions until the temperature has settled (~Tthermal),
//     preventing over-throttling. Given a warning-level source, it also
//     implements the two-level warning of Section IV footnote 4.
//
// SWDynT and HWDynT are the CoolPIM(SW) and CoolPIM(HW) policies.
package core

import (
	"fmt"
	"math"

	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// Config holds the throttling parameters shared by both mechanisms.
type Config struct {
	// ControlFactor (CF) is SW-DynT's reduction granularity per warning
	// (PIM token pool entries). Larger values cool faster but risk
	// under-tuning the pool.
	ControlFactor int
	// HWControlFactor is HW-DynT's reduction granularity: PIM-enabled
	// warps per SM per control step.
	HWControlFactor int
	// Margin is added to the Eq. 1 PTP estimate "in order to be not
	// conservative" (the feedback loop only down-tunes).
	Margin int
	// SWThrottleDelay is Tthrottle for the software mechanism: interrupt
	// handling plus waiting for ongoing CUDA blocks (~0.1 ms, Fig. 8).
	SWThrottleDelay units.Time
	// HWThrottleDelay is Tthrottle for the PCU (~0.1 µs, Fig. 8).
	HWThrottleDelay units.Time
	// SettleTime is the thermal response delay Tthermal (~1 ms): after a
	// control update, further warnings are ignored until the HMC
	// temperature has had time to react (HW-DynT's "delayed control
	// updates"; SW-DynT applies the same window to deduplicate the
	// warning stream into discrete interrupts).
	SettleTime units.Time
	// TargetPIMRate is the offloading rate that keeps the peak DRAM
	// temperature within the normal range (Section III-C: 1.3 op/ns).
	TargetPIMRate units.OpsPerNs
}

// DefaultConfig returns the parameters used in the evaluation.
func DefaultConfig() Config {
	return Config{
		ControlFactor:   16,
		HWControlFactor: 8,
		Margin:          4,
		SWThrottleDelay: 100 * units.Microsecond,
		HWThrottleDelay: 100 * units.Nanosecond,
		SettleTime:      units.Millisecond,
		TargetPIMRate:   1.3,
	}
}

// EstimatePIMRate evaluates Eq. 1 of the paper:
//
//	PIMRate = PIMPeakRate × PIMIntensity × (PTPSize/MaxBlk) × (1 − RatioDivergentWarp)
func EstimatePIMRate(peak units.OpsPerNs, intensity float64, ptpSize, maxBlocks int, divergentRatio float64) units.OpsPerNs {
	if maxBlocks <= 0 {
		return 0
	}
	frac := float64(ptpSize) / float64(maxBlocks)
	return units.OpsPerNs(float64(peak) * intensity * units.Clamp(frac, 0, 1) * (1 - units.Clamp(divergentRatio, 0, 1)))
}

// InitialPTPSize inverts Eq. 1 to compute the PTP initialization of
// SW-DynT: the largest number of concurrently PIM-enabled blocks whose
// estimated offloading rate stays at or below target, plus the margin.
// The result is clamped to [0, maxBlocks].
func InitialPTPSize(cfg Config, peak units.OpsPerNs, intensity float64, maxBlocks int, divergentRatio float64) int {
	if maxBlocks <= 0 {
		return 0
	}
	denom := float64(peak) * intensity * (1 - units.Clamp(divergentRatio, 0, 1))
	var size int
	if denom <= 0 {
		// A kernel with no PIM instructions can never overheat the cube
		// through offloading: every block may be PIM-enabled.
		size = maxBlocks
	} else {
		size = int(math.Floor(float64(cfg.TargetPIMRate) / denom * float64(maxBlocks)))
		size += cfg.Margin
	}
	if size > maxBlocks {
		size = maxBlocks
	}
	if size < 0 {
		size = 0
	}
	return size
}

// TokenPool is the PIM token pool (PTP) of SW-DynT. Tokens are acquired
// at block launch on a first-come-first-served basis and returned at
// block completion; Reduce implements the interrupt handler's
// PTP = min(PTP − CF, #issuedTokens) update.
type TokenPool struct {
	size   int
	issued int
	// maxIssued is the high-water mark of concurrently issued tokens
	// since the last reduction. The interrupt handler's
	// min(size−CF, #issued) clamp uses it rather than the instantaneous
	// count: between kernel launches the in-flight count transiently
	// drops toward zero, and clamping against it would collapse the pool
	// on an unlucky interrupt (the paper's formula implicitly assumes a
	// steadily occupied device).
	maxIssued int
	// stats
	acquired  uint64
	rejected  uint64
	reduced   uint64
	floorHits uint64
}

// NewTokenPool creates a pool with the given initial size.
func NewTokenPool(initial int) *TokenPool {
	if initial < 0 {
		initial = 0
	}
	return &TokenPool{size: initial}
}

// TryAcquire hands out a token if one is available.
func (p *TokenPool) TryAcquire() bool {
	if p.issued >= p.size {
		p.rejected++
		return false
	}
	p.issued++
	if p.issued > p.maxIssued {
		p.maxIssued = p.issued
	}
	p.acquired++
	return true
}

// Release returns a token to the pool. Releasing more tokens than were
// issued is a programming error and panics.
func (p *TokenPool) Release() {
	if p.issued <= 0 {
		panic("core: TokenPool.Release without a matching acquire")
	}
	p.issued--
}

// Reduce applies one control step: size = min(size − cf, peak issued
// since the previous step), floored at zero.
func (p *TokenPool) Reduce(cf int) {
	if cf <= 0 {
		return
	}
	newSize := p.size - cf
	if p.maxIssued < newSize {
		newSize = p.maxIssued
	}
	if newSize < 0 {
		newSize = 0
		p.floorHits++
	}
	p.size = newSize
	p.maxIssued = p.issued
	p.reduced++
}

// Size returns the current pool size.
func (p *TokenPool) Size() int { return p.size }

// Issued returns the number of outstanding tokens.
func (p *TokenPool) Issued() int { return p.issued }

// Stats returns (acquired, rejected, reductions).
func (p *TokenPool) Stats() (acquired, rejected, reductions uint64) {
	return p.acquired, p.rejected, p.reduced
}

// warningGate deduplicates the warning stream: warnings arrive on every
// response packet while the cube is hot, but each control step must wait
// out the throttle delay and then the thermal settle window.
type warningGate struct {
	delay      units.Time
	settle     units.Time
	nextAllow  units.Time
	pendingAt  units.Time
	hasPending bool
	warnings   uint64
	updates    uint64
}

// offer registers a warning observed at now. If a control step should be
// scheduled, it returns the time the step must execute at and true.
func (g *warningGate) offer(now units.Time) (applyAt units.Time, schedule bool) {
	g.warnings++
	if g.hasPending || now < g.nextAllow {
		return 0, false
	}
	g.hasPending = true
	g.pendingAt = now + g.delay
	return g.pendingAt, true
}

// applied marks the scheduled step as executed at now and opens the
// settle window.
func (g *warningGate) applied(now units.Time) {
	g.hasPending = false
	g.nextAllow = now + g.settle
	g.updates++
}

// lockout opens the settle window without counting a control update
// (used when another mechanism's step satisfies this gate's purpose).
func (g *warningGate) lockout(now units.Time) {
	if t := now + g.settle; t > g.nextAllow {
		g.nextAllow = t
	}
}

// SWDynT is the software-based dynamic throttling mechanism, and the
// CoolPIM(SW) policy.
type SWDynT struct {
	cfg  Config
	eng  *sim.Engine
	pool *TokenPool
	gate warningGate
	// Spans, if set, records one "throttle.react.sw" span per accepted
	// warning, from warning delivery to the applied control update — the
	// causal edge closing the paper's feedback loop — and a pool.resize
	// instant for every control update. Nil disables tracing at zero
	// cost.
	Spans *telemetry.SpanTracer
}

// NewSWDynT builds the software mechanism with an already-initialized
// token pool size (see InitialPTPSize).
func NewSWDynT(eng *sim.Engine, cfg Config, initialPTP int) *SWDynT {
	return &SWDynT{
		cfg:  cfg,
		eng:  eng,
		pool: NewTokenPool(initialPTP),
		gate: warningGate{delay: cfg.SWThrottleDelay, settle: cfg.SettleTime},
	}
}

// Kind implements Policy.
func (s *SWDynT) Kind() PolicyKind { return CoolPIMSW }

// BlockLaunch implements Policy: a block runs PIM-enabled if it obtains
// a token.
func (s *SWDynT) BlockLaunch() bool { return s.pool.TryAcquire() }

// BlockComplete implements Policy: a PIM-enabled block returns its
// token.
func (s *SWDynT) BlockComplete(wasPIM bool) {
	if wasPIM {
		s.pool.Release()
	}
}

// WarpPIMEnabled implements Policy: within a PIM-enabled block every
// warp offloads (the software mechanism controls only the block
// granularity).
func (s *SWDynT) WarpPIMEnabled(int, int) bool { return true }

// OnThermalWarning handles a warning observed in a response at now. The
// actual pool reduction executes after the software throttle delay
// (interrupt handling + draining ongoing blocks).
func (s *SWDynT) OnThermalWarning(now units.Time) {
	applyAt, ok := s.gate.offer(now)
	if !ok {
		return
	}
	sp := s.Spans.StartSpan(now, s.Spans.Name("throttle.react.sw"))
	s.eng.AtNamed(applyAt, "throttle", func(at units.Time) {
		before := s.pool.Size()
		s.pool.Reduce(s.cfg.ControlFactor)
		s.gate.applied(at)
		s.Spans.PoolResize(at, "sw-ptp", before, s.pool.Size(), "warning")
		sp.End(at)
	})
}

// PoolSize returns the token pool's size.
func (s *SWDynT) PoolSize() int { return s.pool.Size() }

// Warnings returns (warnings observed, control updates applied,
// critical warnings); the software mechanism has no critical level.
func (s *SWDynT) Warnings() (seen, applied, critical uint64) {
	return s.gate.warnings, s.gate.updates, 0
}

// PCU is the per-SM PIM Control Unit of HW-DynT: it tracks how many warp
// slots of its SM are PIM-enabled, and the highest warp slot it has seen
// occupied (reductions clamp against real occupancy, the warp-granular
// analogue of the token pool's min(size−CF, #issued)).
type PCU struct {
	limit    int
	occupied int // high-water mark of occupied warp slots + 1
}

// Enabled reports whether a warp slot may offload PIM instructions.
func (p *PCU) Enabled(warpSlot int) bool { return warpSlot < p.limit }

// Limit returns the current number of PIM-enabled warp slots.
func (p *PCU) Limit() int { return p.limit }

// step applies one control reduction: the limit first clamps to the
// observed occupancy (if any), then drops by cf, flooring at zero.
func (p *PCU) step(cf int) {
	l := p.limit
	if p.occupied > 0 && p.occupied < l {
		l = p.occupied
	}
	l -= cf
	if l < 0 {
		l = 0
	}
	p.limit = l
}

// WarningLevel classifies a thermal warning.
//
// Section IV footnote 4: "The current HMC 2.0 specification defines a
// single thermal error state, but it can trivially define multiple error
// states as multiple unused error status bits are available in the
// field." HW-DynT given a warning-level source treats a second error
// state as critical.
type WarningLevel int

// Warning levels.
const (
	// WarnNormal is the standard >85 °C ERRSTAT warning.
	WarnNormal WarningLevel = iota
	// WarnCritical is the second error state: the cube is one phase away
	// from shutdown.
	WarnCritical
)

// The critical-warning reaction. A cube racing toward shutdown cannot
// afford to wait out Tthermal, so a critical warning applies a larger
// reduction behind its own short settle window.
const (
	// CriticalFactor is the PCU reduction (warps per SM) applied on a
	// critical warning, several times DefaultConfig's HWControlFactor.
	CriticalFactor = 48
	// CriticalSettle is the lockout after an emergency step, just long
	// enough to let the intensity reduction reach the cube.
	CriticalSettle = 200 * units.Microsecond
)

// HWDynT is the hardware-based dynamic throttling mechanism, and the
// CoolPIM(HW) policy: one PCU per SM, fast warning reaction, delayed
// control updates.
type HWDynT struct {
	cfg  Config
	eng  *sim.Engine
	pcus []PCU
	gate warningGate
	// level, if set, classifies each warning; critGate gates the
	// critical ones.
	level    func() WarningLevel
	critGate warningGate
	// Spans, if set, records one "throttle.react.hw" (normal) or
	// "throttle.react.critical" span per accepted warning, from warning
	// delivery to the applied control update, and a pool.resize instant
	// (with the aggregate PIM-enabled warp count across all PCUs, reason
	// "warning" or "critical") for every control update.
	Spans *telemetry.SpanTracer
}

// NewHWDynT builds the hardware mechanism. Every PCU starts with all
// warp slots PIM-enabled (no initialization analysis is needed thanks to
// the fast reaction). level reports the severity of a warning at
// delivery; nil means the single ERRSTAT state, every warning normal.
func NewHWDynT(eng *sim.Engine, cfg Config, numSMs, warpsPerSM int, level func() WarningLevel) *HWDynT {
	if numSMs <= 0 || warpsPerSM <= 0 {
		panic(fmt.Sprintf("core: HWDynT with %d SMs × %d warps", numSMs, warpsPerSM))
	}
	h := &HWDynT{
		cfg:      cfg,
		eng:      eng,
		pcus:     make([]PCU, numSMs),
		gate:     warningGate{delay: cfg.HWThrottleDelay, settle: cfg.SettleTime},
		level:    level,
		critGate: warningGate{delay: cfg.HWThrottleDelay, settle: CriticalSettle},
	}
	for i := range h.pcus {
		h.pcus[i].limit = warpsPerSM
	}
	return h
}

// Kind implements Policy.
func (h *HWDynT) Kind() PolicyKind { return CoolPIMHW }

// BlockLaunch implements Policy: all blocks run PIM-enabled; throttling
// happens at decode via the PCUs.
func (h *HWDynT) BlockLaunch() bool { return true }

// BlockComplete implements Policy.
func (h *HWDynT) BlockComplete(bool) {}

// WarpPIMEnabled reports whether the given warp slot of an SM may
// offload (the decode-stage translation check).
func (h *HWDynT) WarpPIMEnabled(sm, warpSlot int) bool {
	return h.pcus[sm].Enabled(warpSlot)
}

// ObserveWarpSlot informs an SM's PCU that a warp slot is occupied. The
// GPU's thread-block manager reports slots at block launch; without this
// a grid that occupies only part of the SM would make the first control
// steps cut into empty headroom and waste whole settle windows.
func (h *HWDynT) ObserveWarpSlot(sm, warpSlot int) {
	if warpSlot+1 > h.pcus[sm].occupied {
		h.pcus[sm].occupied = warpSlot + 1
	}
}

// PoolSize returns the PIM-enabled warp count summed over all SMs.
func (h *HWDynT) PoolSize() int {
	total := 0
	for i := range h.pcus {
		total += h.pcus[i].Limit()
	}
	return total
}

// OnThermalWarning handles a warning at now: after the (short) hardware
// throttle delay every PCU reduces its PIM-enabled warp count by CF;
// subsequent warnings are ignored until the settle window closes. A
// critical warning instead reduces by CriticalFactor behind its own
// CriticalSettle window, inside the normal window too, and then locks
// the normal window out.
func (h *HWDynT) OnThermalWarning(now units.Time) {
	gate, cf, name, reason := &h.gate, h.cfg.HWControlFactor, "throttle.react.hw", "warning"
	critical := h.level != nil && h.level() == WarnCritical
	if critical {
		gate, cf, name, reason = &h.critGate, CriticalFactor, "throttle.react.critical", "critical"
	}
	applyAt, ok := gate.offer(now)
	if !ok {
		return
	}
	sp := h.Spans.StartSpan(now, h.Spans.Name(name))
	h.eng.AtNamed(applyAt, "throttle", func(at units.Time) {
		before := h.PoolSize()
		for i := range h.pcus {
			h.pcus[i].step(cf)
		}
		gate.applied(at)
		if critical {
			// An emergency step satisfies the normal loop too.
			h.gate.lockout(at)
		}
		h.Spans.PoolResize(at, "hw-pcu", before, h.PoolSize(), reason)
		sp.End(at)
	})
}

// Warnings returns (warnings observed, control updates applied,
// critical warnings observed). The first two count both levels.
func (h *HWDynT) Warnings() (seen, applied, critical uint64) {
	critical = h.critGate.warnings
	return h.gate.warnings + critical, h.gate.updates + h.critGate.updates, critical
}
