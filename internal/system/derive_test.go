package system

import (
	"errors"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/simt"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// syntheticNaive is a two-node naive result with series, per-cube
// entries and links, peaking at peak.
func syntheticNaive(peak units.Celsius) *Result {
	series := func(n int) []Sample {
		s := make([]Sample, n)
		for i := range s {
			s[i] = Sample{At: units.Time(i+1) * units.Microsecond, PeakDRAM: peak, PoolSize: -1}
		}
		return s
	}
	return &Result{
		Workload: "dc", Policy: core.NaiveOffloading, Runtime: 3 * units.Microsecond,
		PeakDRAM: peak, InitialPoolSize: -1, FinalPoolSize: -1,
		Series: series(3),
		PerCube: []CubeResult{
			{Node: 0, PeakDRAM: peak, InitialPoolSize: -1, FinalPoolSize: -1, Series: series(3)},
			{Node: 1, PeakDRAM: peak, InitialPoolSize: -1, FinalPoolSize: -1, Series: series(2)},
		},
		Links: []hmc.LinkStat{{Src: 0, Dst: 1}},
	}
}

// withPeakBlocks sets a naive result's peak resident block count.
func withPeakBlocks(r *Result, blocks int) *Result {
	r.GPU.PeakResidentBlocks = blocks
	return r
}

// twoCubeNaive aggregates a cool two-node naive run whose nodes held at
// most a and b blocks at once.
func twoCubeNaive(a, b int) *Result {
	nodes := make([]*nodeState, 2)
	for i, blocks := range []int{a, b} {
		nodes[i] = &nodeState{res: CubeResult{Node: i, PeakDRAM: 40, InitialPoolSize: -1, FinalPoolSize: -1}}
		nodes[i].res.GPU.PeakResidentBlocks = blocks
	}
	res := &Result{Workload: "dc", Policy: core.NaiveOffloading}
	aggregate(res, nodes)
	return res
}

// TestDeriveInertPreconditions pins each policy's precondition at its
// boundary and the cases that never derive. SW's pool below the GPU's
// 256 blocks derives only from a naive run whose peak resident blocks
// it covers; a peak of 0, as a ledger entry written before the field
// existed reports, does not count, and a multi-cube run's peak is its
// larger node's, not the sum.
func TestDeriveInertPreconditions(t *testing.T) {
	cfg := DefaultConfig()
	warn := cfg.HMC.WarnTemp
	cool := kernels.Profile{PIMIntensity: 0.08, DivergenceRatio: 0.6} // Eq. 1 pool clamps to 256
	intense := kernels.Profile{PIMIntensity: 0.65, DivergenceRatio: 0.15}
	pool, maxBlocks := swInitialPool(&cfg, intense)
	if pool < 2 || pool >= maxBlocks {
		t.Fatalf("intense profile's pool %d of %d blocks: the SW rows need 1 < pool < %d", pool, maxBlocks, maxBlocks)
	}
	instrumented := cfg
	instrumented.Telemetry = telemetry.New()
	failed := syntheticNaive(40)
	failed.VerifyErr = errors.New("mismatch")
	shutdown := syntheticNaive(40)
	shutdown.Shutdown = true
	notNaive := syntheticNaive(40)
	notNaive.Policy = core.NonOffloading
	narrow := cfg
	narrow.GPU.MaxWarpsPerSM = kernels.BlockDim/simt.WarpSize - 1

	for _, tc := range []struct {
		name  string
		naive *Result
		kind  core.PolicyKind
		cfg   Config
		prof  kernels.Profile
		want  bool
	}{
		{"hw at warn", syntheticNaive(warn), core.CoolPIMHW, cfg, cool, true},
		{"hw above warn", syntheticNaive(warn + 0.01), core.CoolPIMHW, cfg, cool, false},
		{"hw block wider than an SM", syntheticNaive(40), core.CoolPIMHW, narrow, cool, false},
		{"sw full pool", syntheticNaive(warn), core.CoolPIMSW, cfg, cool, true},
		{"sw above warn", syntheticNaive(warn + 0.01), core.CoolPIMSW, cfg, cool, false},
		{"sw small pool, peak at the pool", withPeakBlocks(syntheticNaive(warn), pool), core.CoolPIMSW, cfg, intense, true},
		{"sw small pool, peak above the pool", withPeakBlocks(syntheticNaive(40), pool+1), core.CoolPIMSW, cfg, intense, false},
		{"sw small pool, peak above warn", withPeakBlocks(syntheticNaive(warn+0.01), 1), core.CoolPIMSW, cfg, intense, false},
		{"sw small pool, no peak recorded", syntheticNaive(40), core.CoolPIMSW, cfg, intense, false},
		{"sw small pool, 2 cubes at the pool", twoCubeNaive(pool-1, pool), core.CoolPIMSW, cfg, intense, true},
		{"sw small pool, 2 cubes, one above", twoCubeNaive(pool+1, 1), core.CoolPIMSW, cfg, intense, false},
		{"ideal at normal", syntheticNaive(dram.NormalLimit), core.IdealThermal, cfg, cool, true},
		{"ideal derated", syntheticNaive(dram.NormalLimit + 0.01), core.IdealThermal, cfg, cool, false},
		{"ideal shutdown", shutdown, core.IdealThermal, cfg, cool, false},
		{"baseline", syntheticNaive(40), core.NonOffloading, cfg, cool, false},
		{"naive", syntheticNaive(40), core.NaiveOffloading, cfg, cool, false},
		{"nil naive", nil, core.CoolPIMHW, cfg, cool, false},
		{"failed naive", failed, core.CoolPIMHW, cfg, cool, false},
		{"not naive", notNaive, core.CoolPIMHW, cfg, cool, false},
		{"telemetry", syntheticNaive(40), core.CoolPIMHW, instrumented, cool, false},
	} {
		if _, ok := DeriveInert(tc.naive, tc.kind, tc.cfg, tc.prof); ok != tc.want {
			t.Errorf("%s: derived = %v, want %v", tc.name, ok, tc.want)
		}
	}
}

// TestDeriveInertRelabels: the derived result carries the policy's
// label and constant pool everywhere a pool is reported, and shares no
// slice with the naive result.
func TestDeriveInertRelabels(t *testing.T) {
	cfg := DefaultConfig()
	naive := syntheticNaive(40)
	hwPool := cfg.GPU.NumSMs * cfg.GPU.MaxWarpsPerSM
	res, ok := DeriveInert(naive, core.CoolPIMHW, cfg, kernels.Profile{})
	if !ok {
		t.Fatal("HW not derived from a cool naive run")
	}
	if res.Policy != core.CoolPIMHW || res.InitialPoolSize != hwPool || res.FinalPoolSize != hwPool {
		t.Errorf("relabel: policy %v, pools %d -> %d", res.Policy, res.InitialPoolSize, res.FinalPoolSize)
	}
	for i, c := range res.PerCube {
		if c.InitialPoolSize != hwPool || c.FinalPoolSize != hwPool {
			t.Errorf("node %d pools %d -> %d", i, c.InitialPoolSize, c.FinalPoolSize)
		}
		for _, s := range c.Series {
			if s.PoolSize != hwPool {
				t.Errorf("node %d sample at %v: pool %d", i, s.At, s.PoolSize)
			}
		}
	}
	// The merged series sums the nodes sampled at each index.
	for i, want := range []int{2 * hwPool, 2 * hwPool, hwPool} {
		if got := res.Series[i].PoolSize; got != want {
			t.Errorf("merged sample %d: pool %d, want %d", i, got, want)
		}
	}

	res.Series[0].PeakDRAM = 99
	res.PerCube[0].Series[0].PeakDRAM = 99
	res.PerCube[1].PeakDRAM = 99
	res.Links[0].Src = 7
	if naive.Series[0].PeakDRAM != 40 || naive.PerCube[0].Series[0].PeakDRAM != 40 ||
		naive.PerCube[1].PeakDRAM != 40 || naive.Links[0].Src != 0 {
		t.Error("derived result shares memory with the naive result")
	}
	for _, s := range naive.Series {
		if s.PoolSize != -1 {
			t.Errorf("naive series relabelled: pool %d", s.PoolSize)
		}
	}
}
