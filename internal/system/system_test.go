package system

import (
	"math"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// testGraph is shared across tests (generation dominates small-test cost).
var testGraph = graph.GenRMAT(13, 8, graph.LDBCLikeParams(), 7)

// thrashCfg scales the caches down to the paper's property-to-L2 ratio
// for the small test graph, so offloading economics resemble the real
// campaign's.
func thrashCfg() Config {
	cfg := DefaultConfig()
	cfg.GPU.L2.SizeBytes = 8 << 10
	cfg.GPU.L1.SizeBytes = 4 << 10
	return cfg
}

func mustRun(t *testing.T, wl string, pol core.PolicyKind, cfg Config) *Result {
	t.Helper()
	res, err := Run(wl, pol, cfg, testGraph)
	if err != nil {
		t.Fatalf("%s/%v: %v", wl, pol, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%s/%v: verification failed: %v", wl, pol, res.VerifyErr)
	}
	return res
}

func TestAllPoliciesRunAndVerify(t *testing.T) {
	cfg := thrashCfg()
	for _, pol := range core.Kinds() {
		res := mustRun(t, "dc", pol, cfg)
		if res.Runtime <= 0 || res.Launches == 0 {
			t.Errorf("%v: empty run %+v", pol, res)
		}
		if pol == core.NonOffloading && res.PIMOps != 0 {
			t.Errorf("baseline executed %d PIM ops", res.PIMOps)
		}
		if pol == core.NaiveOffloading && res.PIMOps == 0 {
			t.Errorf("naive offloading executed no PIM ops")
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := thrashCfg()
	a := mustRun(t, "pagerank", core.CoolPIMHW, cfg)
	b := mustRun(t, "pagerank", core.CoolPIMHW, cfg)
	if a.Runtime != b.Runtime || a.PIMOps != b.PIMOps || a.ExtDataBytes != b.ExtDataBytes {
		t.Errorf("non-deterministic: %v/%d/%d vs %v/%d/%d",
			a.Runtime, a.PIMOps, a.ExtDataBytes, b.Runtime, b.PIMOps, b.ExtDataBytes)
	}
	if a.PeakDRAM != b.PeakDRAM {
		t.Errorf("thermal trace diverged: %v vs %v", a.PeakDRAM, b.PeakDRAM)
	}
}

// TestOffloadingWinsWhenCacheThrashes reproduces the core performance
// effect: with the property array far larger than the L2, PIM offloading
// beats the baseline (the Fig. 10 ideal-thermal column).
func TestOffloadingWinsWhenCacheThrashes(t *testing.T) {
	cfg := thrashCfg()
	base := mustRun(t, "dc", core.NonOffloading, cfg)
	ideal := mustRun(t, "dc", core.IdealThermal, cfg)
	if sp := ideal.Speedup(base); sp < 1.1 {
		t.Errorf("ideal offloading speedup = %.2f, want > 1.1", sp)
	}
	// And it saves external bandwidth per unit of work: offloaded bytes
	// per edge must be below baseline's (Fig. 11 mechanism).
	baseBytesPerNs := float64(base.ExtDataBytes) / base.Runtime.Nanoseconds()
	idealBytesPerNs := float64(ideal.ExtDataBytes) / ideal.Runtime.Nanoseconds()
	_ = baseBytesPerNs
	_ = idealBytesPerNs
	if ideal.ExtDataBytes >= base.ExtDataBytes {
		t.Errorf("offloading moved more data: %d vs %d", ideal.ExtDataBytes, base.ExtDataBytes)
	}
}

func TestCoolingAffectsTemperature(t *testing.T) {
	hot := thrashCfg()
	hot.Cooling = thermal.Passive
	cold := thrashCfg()
	cold.Cooling = thermal.HighEndActive
	a := mustRun(t, "dc", core.NaiveOffloading, hot)
	b := mustRun(t, "dc", core.NaiveOffloading, cold)
	if a.PeakDRAM <= b.PeakDRAM {
		t.Errorf("passive run (%v) not hotter than high-end (%v)", a.PeakDRAM, b.PeakDRAM)
	}
}

// TestThrottlingReactsToHeat: with the inlet air at 80 °C the naive
// run overheats past the 85 °C warning threshold, while CoolPIM(HW)
// receives warnings, shrinks its PIM-enabled warp pool and offloads at
// a lower rate than naive.
func TestThrottlingReactsToHeat(t *testing.T) {
	cfg := thrashCfg()
	cfg.Stack.Ambient = 80
	naive := mustRun(t, "dc", core.NaiveOffloading, cfg)
	if naive.PeakDRAM <= cfg.HMC.WarnTemp {
		t.Fatalf("naive run only reached %v at 80 °C ambient; the test no longer heats", naive.PeakDRAM)
	}
	hw := mustRun(t, "dc", core.CoolPIMHW, cfg)
	if hw.WarningsSeen == 0 {
		t.Error("CoolPIM(HW) saw no warnings despite an overheating workload")
	}
	if hw.ControlUpdates == 0 {
		t.Error("CoolPIM(HW) applied no control updates")
	}
	if hw.FinalPoolSize >= hw.InitialPoolSize {
		t.Errorf("PCU state did not shrink: %d -> %d", hw.InitialPoolSize, hw.FinalPoolSize)
	}
	if hw.AvgPIMRate >= naive.AvgPIMRate {
		t.Errorf("throttled rate %v not below naive %v", hw.AvgPIMRate, naive.AvgPIMRate)
	}
}

// TestMultiLevelHWAvertsShutdown makes the footnote-4 claim executable.
// On sssp-twc with the inlet air at 80 °C, plain CoolPIM(HW) steps once
// per settle window and the cube shuts down. The multi-level variant
// answers the critical warnings with its emergency step, and the run
// completes.
func TestMultiLevelHWAvertsShutdown(t *testing.T) {
	if raceEnabled {
		t.Skip("two heated sssp-twc runs; kept out of the race subset, as the heated golden cases are")
	}
	cfg := thrashCfg()
	cfg.Stack.Ambient = 80
	plain := mustRun(t, "sssp-twc", core.CoolPIMHW, cfg)
	if !plain.Shutdown {
		t.Fatalf("plain CoolPIM(HW) peaked at %v and did not shut down; the fixture no longer tests the claim", plain.PeakDRAM)
	}
	cfg.MultiLevelHW = true
	multi := mustRun(t, "sssp-twc", core.CoolPIMHW, cfg)
	if multi.Shutdown {
		t.Errorf("multi-level CoolPIM(HW) shut down at %v (peak %v)", multi.Runtime, multi.PeakDRAM)
	}
	if multi.CriticalWarnings == 0 {
		t.Error("multi-level run recorded no critical warnings")
	}
	if multi.ControlUpdates <= plain.ControlUpdates {
		t.Errorf("multi-level applied %d control updates, plain HW %d: want more", multi.ControlUpdates, plain.ControlUpdates)
	}
	if multi.PeakDRAM > plain.PeakDRAM {
		t.Errorf("multi-level peak %v above plain HW's %v", multi.PeakDRAM, plain.PeakDRAM)
	}
}

// TestShutdownOnExtremeHeat: with the inlet air at 104 °C the first
// thermal ticks push DRAM past the 105 °C shutdown limit, on a single
// cube and on a 2-cube chain alike, and the run ends there.
func TestShutdownOnExtremeHeat(t *testing.T) {
	single := thrashCfg()
	chain := mcConfig(hmc.TopoChain, 2, 0)
	for _, tc := range []struct {
		name string
		cfg  Config
		g    *graph.Graph
	}{{"single", single, testGraph}, {"chain2", chain, mcGraph}} {
		tc.cfg.Stack.Ambient = 104
		res, err := Run("dc", core.NaiveOffloading, tc.cfg, tc.g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !res.Shutdown {
			t.Errorf("%s: no shutdown at peak %v", tc.name, res.PeakDRAM)
		}
		if res.PeakDRAM <= dram.ShutdownLimit {
			t.Errorf("%s: shutdown recorded at %v", tc.name, res.PeakDRAM)
		}
		if last := res.Series[len(res.Series)-1]; last.At != res.Runtime {
			t.Errorf("%s: series ends at %v, shutdown at %v", tc.name, last.At, res.Runtime)
		}
	}
}

// TestIdealThermalNeverDerates: IdealThermal ignores the cube's thermal
// state, so even heated past the shutdown limit it neither shuts down
// nor raises warnings, and its result still verifies.
func TestIdealThermalNeverDerates(t *testing.T) {
	cfg := thrashCfg()
	cfg.Stack.Ambient = 104
	res, err := Run("dc", core.IdealThermal, cfg, testGraph)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakDRAM <= dram.ShutdownLimit {
		t.Fatalf("ideal-thermal run only reached %v; the test no longer heats", res.PeakDRAM)
	}
	if res.Shutdown {
		t.Error("ideal-thermal run shut down")
	}
	if res.VerifyErr != nil {
		t.Error(res.VerifyErr)
	}
	if res.WarningsSeen != 0 {
		t.Errorf("ideal-thermal run saw %d warnings", res.WarningsSeen)
	}
}

func TestSeriesSamplesAreConsistent(t *testing.T) {
	cfg := thrashCfg()
	res := mustRun(t, "pagerank", core.NaiveOffloading, cfg)
	if len(res.Series) == 0 {
		t.Skip("run shorter than one sample interval")
	}
	var last units.Time
	for _, s := range res.Series {
		if s.At <= last {
			t.Fatalf("series not monotonic: %v after %v", s.At, last)
		}
		last = s.At
		if s.PIMRate < 0 || s.PeakDRAM < 20 {
			t.Fatalf("implausible sample %+v", s)
		}
	}
}

// TestSamplerFlushesTailWindow pins the fix for the dropped final
// partial sampling window: with a sampling period that does not divide
// the runtime, the series must end exactly at Runtime with a final
// sample scaled to the partial window's true width, and the windowed
// rates must reconstruct the run totals.
func TestSamplerFlushesTailWindow(t *testing.T) {
	cfg := thrashCfg()
	// A deliberately awkward period: prime in nanoseconds, so no
	// realistic runtime is a multiple of it.
	cfg.SampleInterval = 7309 * units.Nanosecond
	res := mustRun(t, "dc", core.NaiveOffloading, cfg)
	if len(res.Series) < 2 {
		t.Fatalf("run too short to sample: %d samples", len(res.Series))
	}
	last := res.Series[len(res.Series)-1]
	if last.At != res.Runtime {
		t.Fatalf("series ends at %v, runtime is %v: tail window dropped", last.At, res.Runtime)
	}
	if res.Runtime%cfg.SampleInterval == 0 {
		t.Fatalf("runtime %v is a multiple of the sample interval; test lost its awkward ratio", res.Runtime)
	}
	// The windows tile [0, Runtime]: integrating rate and bandwidth
	// over them must recover the run totals.
	var ops, bytes float64
	var prev units.Time
	for i, s := range res.Series {
		dt := s.At - prev
		if dt <= 0 {
			t.Fatalf("sample %d: non-positive window %v", i, dt)
		}
		ops += float64(s.PIMRate) * dt.Nanoseconds()
		bytes += float64(s.ExtBW) * dt.Seconds()
		prev = s.At
	}
	if diff := math.Abs(ops - float64(res.PIMOps)); diff > 0.5 {
		t.Errorf("windowed rates reconstruct %.2f PIM ops, run total %d", ops, res.PIMOps)
	}
	if diff := math.Abs(bytes - float64(res.ExtDataBytes)); diff > 0.5 {
		t.Errorf("windowed bandwidth reconstructs %.2f bytes, run total %d", bytes, res.ExtDataBytes)
	}
}

func TestSWInitialPoolFromEq1(t *testing.T) {
	cfg := thrashCfg()
	res := mustRun(t, "sssp-dtc", core.CoolPIMSW, cfg)
	maxBlocks := cfg.GPU.NumSMs * cfg.GPU.MaxBlocksPerSM
	if res.InitialPoolSize <= 0 || res.InitialPoolSize > maxBlocks {
		t.Errorf("initial PTP = %d, want in (0, %d]", res.InitialPoolSize, maxBlocks)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run("nope", core.NonOffloading, DefaultConfig(), testGraph); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestResultHelpers(t *testing.T) {
	a := &Result{Runtime: 100, AvgExtBW: 50}
	b := &Result{Runtime: 200, AvgExtBW: 100}
	if a.Speedup(b) != 2 {
		t.Errorf("speedup = %v", a.Speedup(b))
	}
	if a.NormalizedBW(b) != 0.5 {
		t.Errorf("norm bw = %v", a.NormalizedBW(b))
	}
	zero := &Result{}
	if zero.Speedup(b) != 0 || a.NormalizedBW(zero) != 0 {
		t.Error("zero guards wrong")
	}
}

// TestAllWorkloadsVerifyOnSystem drives every workload through the full
// timing stack under an offloading policy and checks device results
// against the sequential references — the end-to-end guard that the
// GPU's PIM/host atomic paths are functionally exact.
func TestAllWorkloadsVerifyOnSystem(t *testing.T) {
	cfg := thrashCfg()
	for _, wl := range append(kernels.Names(), kernels.ExtraNames()...) {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			mustRun(t, wl, core.NaiveOffloading, cfg)
		})
	}
}
