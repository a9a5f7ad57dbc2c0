package core

import (
	"math/rand"
	"testing"

	"coolpim/internal/sim"
	"coolpim/internal/units"
)

func TestEstimatePIMRateEq1(t *testing.T) {
	// Eq. 1 with PTP = MaxBlk, no divergence, full intensity: rate = peak.
	if got := EstimatePIMRate(6.5, 1.0, 32, 32, 0); got != 6.5 {
		t.Errorf("full rate = %v, want 6.5", got)
	}
	// Half the blocks -> half the rate.
	if got := EstimatePIMRate(6.5, 1.0, 16, 32, 0); got != 3.25 {
		t.Errorf("half rate = %v", got)
	}
	// Divergence scales down.
	if got := EstimatePIMRate(4, 0.5, 32, 32, 0.5); got != 1 {
		t.Errorf("divergent rate = %v, want 1", got)
	}
	if got := EstimatePIMRate(4, 1, 10, 0, 0); got != 0 {
		t.Errorf("maxBlocks=0 rate = %v", got)
	}
	// PTP above MaxBlk clamps.
	if got := EstimatePIMRate(4, 1, 64, 32, 0); got != 4 {
		t.Errorf("overfull PTP rate = %v", got)
	}
}

func TestInitialPTPSize(t *testing.T) {
	cfg := DefaultConfig()
	// peak 6.5 op/ns, full intensity, no divergence, 32 blocks:
	// target 1.3/6.5 × 32 = 6.4 -> floor 6 + margin 4 = 10.
	if got := InitialPTPSize(cfg, 6.5, 1.0, 32, 0); got != 10 {
		t.Errorf("PTP init = %d, want 10", got)
	}
	// High divergence halves the effective rate -> a larger pool fits.
	withDiv := InitialPTPSize(cfg, 6.5, 1.0, 32, 0.5)
	if withDiv <= 10 {
		t.Errorf("divergent PTP init = %d, want > 10", withDiv)
	}
	// Zero-intensity kernels get every block.
	if got := InitialPTPSize(cfg, 6.5, 0, 32, 0); got != 32 {
		t.Errorf("zero-intensity PTP = %d, want 32", got)
	}
	// Never exceeds maxBlocks, never negative.
	if got := InitialPTPSize(cfg, 0.1, 1, 8, 0); got != 8 {
		t.Errorf("low-peak PTP = %d, want clamp to 8", got)
	}
	if got := InitialPTPSize(cfg, 6.5, 1, 0, 0); got != 0 {
		t.Errorf("maxBlocks=0 PTP = %d", got)
	}
}

// TestEq1RoundTrip (property): the initialized PTP size (without margin)
// keeps the Eq. 1 estimated rate at or below target.
func TestEq1RoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Margin = 0
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		peak := units.OpsPerNs(0.5 + rng.Float64()*8)
		intensity := rng.Float64()
		div := rng.Float64() * 0.9
		maxBlk := 1 + rng.Intn(64)
		ptp := InitialPTPSize(cfg, peak, intensity, maxBlk, div)
		rate := EstimatePIMRate(peak, intensity, ptp, maxBlk, div)
		// Allow the one-block quantization slack.
		slack := EstimatePIMRate(peak, intensity, 1, maxBlk, div)
		if rate > cfg.TargetPIMRate+slack {
			t.Fatalf("peak=%v int=%.2f div=%.2f maxBlk=%d: ptp=%d rate=%v exceeds target",
				peak, intensity, div, maxBlk, ptp, rate)
		}
	}
}

func TestTokenPoolBasics(t *testing.T) {
	p := NewTokenPool(2)
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("could not acquire initial tokens")
	}
	if p.TryAcquire() {
		t.Fatal("acquired beyond pool size")
	}
	if p.Issued() != 2 || p.Size() != 2 {
		t.Errorf("issued=%d size=%d", p.Issued(), p.Size())
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("token not reusable after release")
	}
	acq, rej, _ := p.Stats()
	if acq != 3 || rej != 1 {
		t.Errorf("stats acq=%d rej=%d", acq, rej)
	}
}

func TestTokenPoolReduce(t *testing.T) {
	p := NewTokenPool(10)
	for i := 0; i < 3; i++ {
		p.TryAcquire()
	}
	// size=10, issued=3: min(10-4, 3) = 3.
	p.Reduce(4)
	if p.Size() != 3 {
		t.Errorf("size after reduce = %d, want 3 (clamped to issued)", p.Size())
	}
	// size=3, issued=3: min(3-4, 3) = -1 -> floor 0.
	p.Reduce(4)
	if p.Size() != 0 {
		t.Errorf("size after second reduce = %d, want 0", p.Size())
	}
	if p.TryAcquire() {
		t.Error("acquired from empty pool")
	}
	// Outstanding tokens can still be returned.
	p.Release()
	p.Release()
	p.Release()
	if p.Issued() != 0 {
		t.Errorf("issued = %d after full release", p.Issued())
	}
	p.Reduce(0) // no-op
	if p.Size() != 0 {
		t.Error("Reduce(0) changed size")
	}
}

func TestTokenPoolReleasePanics(t *testing.T) {
	p := NewTokenPool(1)
	defer func() {
		if recover() == nil {
			t.Error("unmatched Release did not panic")
		}
	}()
	p.Release()
}

func TestTokenPoolNegativeInitial(t *testing.T) {
	p := NewTokenPool(-5)
	if p.Size() != 0 || p.TryAcquire() {
		t.Error("negative initial size not clamped")
	}
}

// TestTokenPoolInvariant (property): issued never exceeds max(size,
// issued-at-reduction) and never goes negative across random op
// sequences.
func TestTokenPoolInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		p := NewTokenPool(rng.Intn(20))
		outstanding := 0
		for i := 0; i < 500; i++ {
			switch rng.Intn(3) {
			case 0:
				if p.TryAcquire() {
					outstanding++
				}
			case 1:
				if outstanding > 0 {
					p.Release()
					outstanding--
				}
			case 2:
				p.Reduce(1 + rng.Intn(4))
			}
			if p.Issued() != outstanding {
				t.Fatalf("issued %d != outstanding %d", p.Issued(), outstanding)
			}
			if p.Size() < 0 || p.Issued() < 0 {
				t.Fatalf("negative pool state: size=%d issued=%d", p.Size(), p.Issued())
			}
		}
	}
}

func TestSWDynTWarningReducesAfterDelay(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.ControlFactor = 4
	sw := NewSWDynT(eng, cfg, 12)
	for i := 0; i < 12; i++ { // blocks in flight hold the tokens
		sw.BlockLaunch()
	}
	sw.OnThermalWarning(0)
	// The reduction happens only after SWThrottleDelay.
	eng.RunUntil(cfg.SWThrottleDelay - 1)
	if sw.PoolSize() != 12 {
		t.Errorf("pool reduced before throttle delay: %d", sw.PoolSize())
	}
	eng.RunUntil(cfg.SWThrottleDelay)
	if sw.PoolSize() != 8 {
		t.Errorf("pool = %d after warning, want 12-CF=8", sw.PoolSize())
	}
}

func TestSWDynTWarningStormDeduplicated(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.ControlFactor = 4
	sw := NewSWDynT(eng, cfg, 20)
	for i := 0; i < 20; i++ {
		sw.BlockLaunch()
	}
	// 1000 warnings in the first 50 µs (every response is flagged while
	// hot) must coalesce into a single control step.
	for i := 0; i < 1000; i++ {
		eng.At(units.Time(i)*50*units.Nanosecond, func(now units.Time) {
			sw.OnThermalWarning(now)
		})
	}
	eng.RunUntil(cfg.SWThrottleDelay + 60*units.Microsecond)
	if sw.PoolSize() != 20-cfg.ControlFactor {
		t.Errorf("pool = %d, want exactly one reduction to %d", sw.PoolSize(), 20-cfg.ControlFactor)
	}
	seen, applied, _ := sw.Warnings()
	if seen != 1000 || applied != 1 {
		t.Errorf("warnings seen=%d applied=%d", seen, applied)
	}
}

func TestSWDynTSecondStepAfterSettle(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.ControlFactor = 4
	sw := NewSWDynT(eng, cfg, 20)
	for i := 0; i < 20; i++ {
		sw.BlockLaunch()
	}
	sw.OnThermalWarning(0)
	eng.RunUntil(cfg.SWThrottleDelay)
	// Warning during the settle window: ignored.
	sw.OnThermalWarning(eng.Now())
	eng.RunUntil(eng.Now() + cfg.SettleTime/2)
	if sw.PoolSize() != 16 {
		t.Errorf("pool = %d during settle, want 16", sw.PoolSize())
	}
	// Warning after the settle window: applied.
	after := cfg.SWThrottleDelay + cfg.SettleTime + units.Microsecond
	eng.At(after, func(now units.Time) { sw.OnThermalWarning(now) })
	eng.RunUntil(after + cfg.SWThrottleDelay)
	if sw.PoolSize() != 12 {
		t.Errorf("pool = %d after settle, want 12", sw.PoolSize())
	}
}

// pcuLimit returns SM sm's PIM-enabled warp count.
func pcuLimit(h *HWDynT, sm int) int { return h.pcus[sm].Limit() }

func TestHWDynTStartsAtMaximum(t *testing.T) {
	eng := sim.New()
	h := NewHWDynT(eng, DefaultConfig(), 16, 32, nil)
	for sm := 0; sm < 16; sm++ {
		if pcuLimit(h, sm) != 32 {
			t.Fatalf("SM %d limit = %d, want 32", sm, pcuLimit(h, sm))
		}
		if !h.WarpPIMEnabled(sm, 31) {
			t.Fatalf("warp 31 not enabled at start")
		}
	}
}

func TestHWDynTFastReaction(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.HWControlFactor = 4
	h := NewHWDynT(eng, cfg, 4, 16, nil)
	h.OnThermalWarning(0)
	eng.RunUntil(cfg.HWThrottleDelay)
	for sm := 0; sm < 4; sm++ {
		if pcuLimit(h, sm) != 16-cfg.HWControlFactor {
			t.Errorf("SM %d limit = %d, want %d", sm, pcuLimit(h, sm), 16-cfg.HWControlFactor)
		}
	}
	if h.WarpPIMEnabled(0, 15) || !h.WarpPIMEnabled(0, 11) {
		t.Error("PCU slot gating wrong after reduction")
	}
}

func TestHWDynTDelayedControlUpdates(t *testing.T) {
	// Warnings during the settle window must not stack reductions (the
	// "delayed control updates" of Section IV-C).
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.HWControlFactor = 4
	h := NewHWDynT(eng, cfg, 1, 32, nil)
	for i := 0; i < 150; i++ {
		eng.At(units.Time(i)*10*units.Microsecond, func(now units.Time) {
			h.OnThermalWarning(now)
		})
	}
	eng.RunUntil(990 * units.Microsecond) // within first settle window
	if pcuLimit(h, 0) != 32-cfg.HWControlFactor {
		t.Errorf("limit = %d, want one reduction", pcuLimit(h, 0))
	}
	eng.Run()
	// After the settle window closes (~1 ms), the first subsequent
	// warning applies a second reduction; the rest fall inside the next
	// settle window and are dropped.
	if pcuLimit(h, 0) != 32-2*cfg.HWControlFactor {
		t.Errorf("limit = %d, want two reductions total", pcuLimit(h, 0))
	}
}

func TestHWDynTFloorsAtZero(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.SettleTime = units.Microsecond
	h := NewHWDynT(eng, cfg, 1, 4, nil)
	for i := 0; i < 10; i++ {
		at := units.Time(i) * 10 * units.Microsecond
		eng.At(at, func(now units.Time) { h.OnThermalWarning(now) })
	}
	eng.Run()
	if pcuLimit(h, 0) != 0 {
		t.Errorf("limit = %d, want floor 0", pcuLimit(h, 0))
	}
	if h.WarpPIMEnabled(0, 0) {
		t.Error("warp 0 enabled at zero limit")
	}
}

func TestHWDynTPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry accepted")
		}
	}()
	NewHWDynT(sim.New(), DefaultConfig(), 0, 32, nil)
}

func TestPolicyKinds(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 5 {
		t.Fatalf("%d kinds", len(kinds))
	}
	names := map[PolicyKind]string{
		NonOffloading:   "Non-Offloading",
		NaiveOffloading: "Naive-Offloading",
		CoolPIMSW:       "CoolPIM(SW)",
		CoolPIMHW:       "CoolPIM(HW)",
		IdealThermal:    "IdealThermal",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d name = %q, want %q", int(k), k.String(), want)
		}
	}
	if !IdealThermal.ThermalEffectsDisabled() || NaiveOffloading.ThermalEffectsDisabled() {
		t.Error("ThermalEffectsDisabled wrong")
	}
}

func TestStaticPolicies(t *testing.T) {
	non := NewNonOffloading()
	if non.BlockLaunch() || non.WarpPIMEnabled(0, 0) || non.Kind() != NonOffloading {
		t.Error("non-offloading policy offloads")
	}
	naive := NewNaiveOffloading()
	if !naive.BlockLaunch() || !naive.WarpPIMEnabled(3, 31) {
		t.Error("naive policy throttles")
	}
	ideal := NewIdealThermal()
	if !ideal.BlockLaunch() || ideal.Kind() != IdealThermal {
		t.Error("ideal policy wrong")
	}
	// Warnings are no-ops for static policies.
	naive.OnThermalWarning(0)
	non.BlockComplete(true)
}

func TestSWPolicyTokenFlow(t *testing.T) {
	eng := sim.New()
	var p Policy = NewSWDynT(eng, DefaultConfig(), 2)
	if p.Kind() != CoolPIMSW {
		t.Error("kind wrong")
	}
	a, b, c := p.BlockLaunch(), p.BlockLaunch(), p.BlockLaunch()
	if !a || !b || c {
		t.Errorf("launch decisions = %v %v %v, want true,true,false", a, b, c)
	}
	p.BlockComplete(true)  // returns a token
	p.BlockComplete(false) // non-PIM block: no token to return
	if !p.BlockLaunch() {
		t.Error("token not recycled")
	}
	if !p.WarpPIMEnabled(0, 99) {
		t.Error("SW policy must not gate warps")
	}
}

func TestHWPolicyDelegation(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.HWControlFactor = 4
	hw := NewHWDynT(eng, cfg, 2, 8, nil)
	var p Policy = hw
	if p.Kind() != CoolPIMHW || !p.BlockLaunch() {
		t.Error("HW policy basics wrong")
	}
	p.OnThermalWarning(0)
	eng.Run()
	if p.WarpPIMEnabled(1, 7) || !p.WarpPIMEnabled(1, 3) {
		t.Error("HW policy not reflecting PCU state")
	}
	if got := hw.PoolSize(); got != 2*4 {
		t.Errorf("pool size = %d, want 2 SMs x 4 warps", got)
	}
}

// levelOf returns a warning-level source that always reports l.
func levelOf(l WarningLevel) func() WarningLevel { return func() WarningLevel { return l } }

func TestMultiLevelNormalWarningsBehaveLikeHWDynT(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	h := NewHWDynT(eng, cfg, 4, 64, levelOf(WarnNormal))
	h.OnThermalWarning(0)
	eng.Run()
	for sm := 0; sm < 4; sm++ {
		if pcuLimit(h, sm) != 64-cfg.HWControlFactor {
			t.Errorf("SM %d limit = %d", sm, pcuLimit(h, sm))
		}
	}
}

func TestMultiLevelCriticalAppliesEmergencyFactor(t *testing.T) {
	eng := sim.New()
	h := NewHWDynT(eng, DefaultConfig(), 2, 64, levelOf(WarnCritical))
	h.OnThermalWarning(0)
	eng.Run()
	if pcuLimit(h, 0) != 64-CriticalFactor {
		t.Errorf("limit = %d, want %d", pcuLimit(h, 0), 64-CriticalFactor)
	}
	_, applied, critical := h.Warnings()
	if applied != 1 || critical != 1 {
		t.Errorf("applied=%d critical=%d", applied, critical)
	}
}

func TestMultiLevelCriticalBypassesSettle(t *testing.T) {
	// A critical warning inside the normal settle window still acts
	// (after only the short critical settle).
	eng := sim.New()
	cfg := DefaultConfig()
	level := WarnNormal
	h := NewHWDynT(eng, cfg, 1, 64, func() WarningLevel { return level })
	h.OnThermalWarning(0)
	eng.RunUntil(cfg.HWThrottleDelay)
	after := pcuLimit(h, 0)
	if after != 64-cfg.HWControlFactor {
		t.Fatalf("normal step missing: %d", after)
	}
	// Within the 1 ms normal settle, escalate.
	level = WarnCritical
	eng.At(100*units.Microsecond, func(now units.Time) { h.OnThermalWarning(now) })
	eng.RunUntil(150 * units.Microsecond)
	if pcuLimit(h, 0) != after-CriticalFactor {
		t.Errorf("critical step inside settle window: limit = %d, want %d",
			pcuLimit(h, 0), after-CriticalFactor)
	}
}

func TestMultiLevelCriticalStormDeduplicated(t *testing.T) {
	eng := sim.New()
	h := NewHWDynT(eng, DefaultConfig(), 1, 256, levelOf(WarnCritical))
	for i := 0; i < 50; i++ {
		eng.At(units.Time(i)*units.Microsecond, func(now units.Time) {
			h.OnThermalWarning(now)
		})
	}
	eng.RunUntil(60 * units.Microsecond)
	// All 50 critical warnings fall within one CriticalSettle window:
	// exactly one emergency step.
	if pcuLimit(h, 0) != 256-CriticalFactor {
		t.Errorf("limit = %d, want one emergency step", pcuLimit(h, 0))
	}
}

func TestMultiLevelFloorsAtZero(t *testing.T) {
	eng := sim.New()
	h := NewHWDynT(eng, DefaultConfig(), 1, 16, levelOf(WarnCritical))
	h.OnThermalWarning(0)
	eng.Run()
	if pcuLimit(h, 0) != 0 {
		t.Errorf("limit = %d, want 0", pcuLimit(h, 0))
	}
	if h.WarpPIMEnabled(0, 0) {
		t.Error("warp enabled at zero limit")
	}
}

func TestMultiLevelPolicyClassification(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	level := WarnNormal
	h := NewHWDynT(eng, cfg, 1, 64, func() WarningLevel { return level })
	var p Policy = h
	if p.Kind() != CoolPIMHW || !p.BlockLaunch() || !p.WarpPIMEnabled(0, 63) {
		t.Fatal("policy basics wrong")
	}
	p.OnThermalWarning(0)
	eng.Run()
	if pcuLimit(h, 0) != 64-cfg.HWControlFactor {
		t.Errorf("normal classification: limit = %d", pcuLimit(h, 0))
	}
	level = WarnCritical
	eng.At(eng.Now()+2*units.Millisecond, func(now units.Time) { p.OnThermalWarning(now) })
	eng.Run()
	if pcuLimit(h, 0) != 64-cfg.HWControlFactor-CriticalFactor {
		t.Errorf("critical classification: limit = %d", pcuLimit(h, 0))
	}
}

// TestMultiLevelNilLevelFunc: without a level source every warning is
// the single ERRSTAT state.
func TestMultiLevelNilLevelFunc(t *testing.T) {
	eng := sim.New()
	cfg := DefaultConfig()
	h := NewHWDynT(eng, cfg, 1, 64, nil)
	h.OnThermalWarning(0) // must not panic
	eng.Run()
	if pcuLimit(h, 0) != 64-cfg.HWControlFactor {
		t.Errorf("limit = %d, want one normal step", pcuLimit(h, 0))
	}
	if _, _, critical := h.Warnings(); critical != 0 {
		t.Errorf("%d critical warnings without a level source", critical)
	}
}

func TestMultiLevelBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry accepted")
		}
	}()
	NewHWDynT(sim.New(), DefaultConfig(), 1, 0, levelOf(WarnCritical))
}
