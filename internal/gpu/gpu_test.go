package gpu

import (
	"testing"

	"coolpim/internal/cache"
	"coolpim/internal/core"
	"coolpim/internal/hmc"
	"coolpim/internal/mem"
	"coolpim/internal/sim"
	"coolpim/internal/simt"
	"coolpim/internal/units"
)

// rig is a minimal GPU+HMC test bench.
type rig struct {
	eng   *sim.Engine
	space *mem.Space
	cube  *hmc.Cube
	gpu   *GPU
}

func newRig(t *testing.T, policy core.Policy) *rig {
	t.Helper()
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, hmc.DefaultConfig())
	g := New(eng, space, cube, policy, DefaultConfig())
	return &rig{eng, space, cube, g}
}

// runKernel launches a kernel and runs the engine dry.
func (r *rig) runKernel(t *testing.T, l *Launch) units.Time {
	t.Helper()
	var done units.Time = -1
	l.OnComplete = func(at units.Time) { done = at }
	r.gpu.RunKernel(l)
	r.eng.Run()
	if done < 0 {
		t.Fatal("kernel never completed")
	}
	return done
}

func simpleLaunch(k simt.KernelFunc, blocks int) *Launch {
	return &Launch{Name: "test", Kernel: k, Blocks: blocks, BlockDim: 128}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.NumSMs = 0
	if bad.Validate() == nil {
		t.Error("zero SMs accepted")
	}
	bad = DefaultConfig()
	bad.L1.LineBytes = 60
	if bad.Validate() == nil {
		t.Error("bad L1 accepted")
	}
}

func TestCycleTime(t *testing.T) {
	c := DefaultConfig()
	got := c.CycleTime()
	sec := float64(units.Second)
	want := units.Time(sec / 1.4e9)
	if got < want-1 || got > want+1 {
		t.Errorf("cycle time = %v, want ~%v", got, want)
	}
}

func TestComputeOnlyKernel(t *testing.T) {
	r := newRig(t, core.NewNonOffloading())
	end := r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		c.Compute(100)
	}, 1))
	// 4 warps × ~100 cycles at 1.4GHz ≈ 71ns (pipelined, overlapping).
	if end < units.FromNanoseconds(70) || end > units.FromNanoseconds(300) {
		t.Errorf("compute kernel took %v", end)
	}
	s := r.gpu.Stats()
	if s.ComputeOps != 4 || s.WarpOps != 4 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLoadsGoThroughCachesAndMemory(t *testing.T) {
	r := newRig(t, core.NewNonOffloading())
	buf := r.space.Alloc("data", 4096, false)
	for i := 0; i < 4096; i++ {
		r.space.Store32(buf.Addr(i), uint32(i))
	}
	var got [simt.WarpSize]uint32
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr(l * 16) // one distinct line per lane
		}
		got = c.Load(simt.FullMask, addr)
		// Second load of the same lines: L1 hits.
		got = c.Load(simt.FullMask, addr)
	}, 1))
	for l := 0; l < simt.WarpSize; l++ {
		if got[l] != uint32(l*16) {
			t.Fatalf("lane %d loaded %d, want %d", l, got[l], l*16)
		}
	}
	s := r.gpu.Stats()
	if s.LoadLines != 64 {
		t.Errorf("load lines = %d, want 64 (32 per load op)", s.LoadLines)
	}
	// First load misses everywhere (32 HMC reads); second hits L1.
	if c := r.cube.Counters(); c.Reads != 32 {
		t.Errorf("HMC reads = %d, want 32", c.Reads)
	}
}

func TestCoalescingMergesSameLine(t *testing.T) {
	r := newRig(t, core.NewNonOffloading())
	buf := r.space.Alloc("data", 1024, false)
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr(l) // 32 consecutive words = 2 lines
		}
		c.Load(simt.FullMask, addr)
	}, 1))
	if s := r.gpu.Stats(); s.LoadLines != 2 {
		t.Errorf("coalesced lines = %d, want 2", s.LoadLines)
	}
}

func TestStoresAreWriteBack(t *testing.T) {
	r := newRig(t, core.NewNonOffloading())
	buf := r.space.Alloc("data", 1024, false)
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		var val [simt.WarpSize]uint32
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr(l)
			val[l] = uint32(l + 1)
		}
		c.Store(simt.FullMask, addr, val)
	}, 1))
	if got := r.space.Load32(buf.Addr(5)); got != 6 {
		t.Errorf("stored value = %d", got)
	}
	// Write-back caches: a couple of fetch-on-write-miss reads, no
	// eager write-through to the cube.
	if c := r.cube.Counters(); c.Writes != 0 {
		t.Errorf("HMC writes = %d, want 0 (dirty lines stay cached)", c.Writes)
	}
}

// atomicKernel issues one atomicAdd per lane into the target buffer.
func atomicKernel(buf mem.Buffer, needReturn bool) simt.KernelFunc {
	return func(c *simt.Ctx) {
		var addr [simt.WarpSize]uint64
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr((c.ThreadID(l)) % buf.Words)
		}
		c.Atomic(mem.AtomicAdd, simt.FullMask, addr, splatOnes(), [simt.WarpSize]uint32{}, needReturn)
	}
}

func splatOnes() [simt.WarpSize]uint32 {
	var v [simt.WarpSize]uint32
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestAtomicPolicyRouting(t *testing.T) {
	// Under naive offloading, atomics to the PIM region become PIM
	// packets; under the baseline they execute as host atomics.
	for _, tc := range []struct {
		policy  core.Policy
		offload bool
	}{
		{core.NewNonOffloading(), false},
		{core.NewNaiveOffloading(), true},
		{core.NewIdealThermal(), true},
	} {
		r := newRig(t, tc.policy)
		if r.gpu.pimOffload != tc.offload {
			t.Errorf("%v: PIM-region offload flag = %v", tc.policy.Kind(), r.gpu.pimOffload)
		}
		buf := r.space.Alloc("ctrs", 4096, true)
		r.runKernel(t, simpleLaunch(atomicKernel(buf, false), 4))
		s := r.gpu.Stats()
		c := r.cube.Counters()
		if tc.offload {
			if s.PIMLaneOps != 512 || s.HostLaneOps != 0 {
				t.Errorf("%v: pim=%d host=%d, want all PIM", tc.policy.Kind(), s.PIMLaneOps, s.HostLaneOps)
			}
			if c.PIMOps == 0 {
				t.Errorf("%v: cube saw no PIM ops", tc.policy.Kind())
			}
		} else {
			if s.PIMLaneOps != 0 || s.HostLaneOps != 512 {
				t.Errorf("%v: pim=%d host=%d, want all host", tc.policy.Kind(), s.PIMLaneOps, s.HostLaneOps)
			}
			if c.PIMOps != 0 {
				t.Errorf("%v: cube saw %d PIM ops", tc.policy.Kind(), c.PIMOps)
			}
		}
		// Functional result identical either way: every word gets
		// blocks×blockDim/words increments.
		want := uint32(4 * 128 / 4096)
		if want == 0 {
			want = 1 // 512 threads over 4096 words -> only low words hit
		}
		sum := uint32(0)
		for i := 0; i < buf.Words; i++ {
			sum += r.space.Load32(buf.Addr(i))
		}
		if sum != 512 {
			t.Errorf("%v: total increments = %d, want 512", tc.policy.Kind(), sum)
		}
	}
}

func TestPIMAggregationSameAddress(t *testing.T) {
	// All 32 lanes add to ONE address with no return: the warp-level
	// aggregator must emit a single combined packet.
	r := newRig(t, core.NewNaiveOffloading())
	buf := r.space.Alloc("ctr", 64, true)
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr(0)
		}
		c.Atomic(mem.AtomicAdd, simt.FullMask, addr, splatOnes(), [simt.WarpSize]uint32{}, false)
	}, 1))
	if c := r.cube.Counters(); c.PIMOps != 1 {
		t.Errorf("cube PIM ops = %d, want 1 (aggregated)", c.PIMOps)
	}
	if got := r.space.Load32(buf.Addr(0)); got != 32 {
		t.Errorf("counter = %d, want 32", got)
	}
}

func TestPIMWithReturnNotAggregated(t *testing.T) {
	r := newRig(t, core.NewNaiveOffloading())
	buf := r.space.Alloc("ctr", 64, true)
	var olds [simt.WarpSize]uint32
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr(0)
		}
		olds, _ = c.Atomic(mem.AtomicAdd, simt.FullMask, addr, splatOnes(), [simt.WarpSize]uint32{}, true)
	}, 1))
	if c := r.cube.Counters(); c.PIMOps != 32 {
		t.Errorf("cube PIM ops = %d, want 32 (per-lane, with return)", c.PIMOps)
	}
	// Each lane received a distinct old value 0..31.
	seen := map[uint32]bool{}
	for _, o := range olds {
		seen[o] = true
	}
	if len(seen) != 32 {
		t.Errorf("old values not distinct: %v", olds)
	}
}

func TestAtomicSubEncodesAsAdd(t *testing.T) {
	r := newRig(t, core.NewNaiveOffloading())
	buf := r.space.Alloc("ctr", 64, true)
	r.space.Store32(buf.Addr(0), 100)
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		addr[0] = buf.Addr(0)
		var val [simt.WarpSize]uint32
		val[0] = 7
		c.Atomic(mem.AtomicSub, simt.LaneMask(0), addr, val, [simt.WarpSize]uint32{}, false)
	}, 1))
	if got := r.space.Load32(buf.Addr(0)); got != 93 {
		t.Errorf("after sub: %d, want 93", got)
	}
}

func TestSWPolicyBlockSplit(t *testing.T) {
	// A 2-token pool over 8 blocks: exactly 2 concurrent blocks run the
	// PIM path; the rest run the shadow path. Totals must still verify.
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, hmc.DefaultConfig())
	g := New(eng, space, cube, core.NewSWDynT(eng, core.DefaultConfig(), 2), DefaultConfig())
	buf := space.Alloc("ctrs", 4096, true)

	var done bool
	l := simpleLaunch(atomicKernel(buf, false), 8)
	l.OnComplete = func(units.Time) { done = true }
	g.RunKernel(l)
	eng.Run()
	if !done {
		t.Fatal("kernel incomplete")
	}
	s := g.Stats()
	if s.PIMBlocks == 0 || s.NonPIMBlocks == 0 {
		t.Fatalf("block split = %d PIM / %d non-PIM, want a mix", s.PIMBlocks, s.NonPIMBlocks)
	}
	if s.PIMBlocks+s.NonPIMBlocks != 8 {
		t.Errorf("total blocks = %d", s.PIMBlocks+s.NonPIMBlocks)
	}
	sum := uint32(0)
	for i := 0; i < buf.Words; i++ {
		sum += space.Load32(buf.Addr(i))
	}
	if sum != 8*128 {
		t.Errorf("total increments = %d, want 1024", sum)
	}
}

func TestHWPolicyWarpGating(t *testing.T) {
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, hmc.DefaultConfig())
	cfg := core.DefaultConfig()
	hw := core.NewHWDynT(eng, cfg, DefaultConfig().NumSMs, DefaultConfig().MaxWarpsPerSM, nil)
	// Pre-throttle every PCU to zero: all atomics must take the host path.
	// Each 2 ms gap outlasts the settle window, so every warning applies.
	for i := 0; i < 10; i++ {
		hw.OnThermalWarning(eng.Now())
		eng.RunUntil(eng.Now() + 2*units.Millisecond)
	}
	if n := hw.PoolSize(); n != 0 {
		t.Fatalf("pre-throttled pool holds %d warps, want 0", n)
	}
	g := New(eng, space, cube, hw, DefaultConfig())
	buf := space.Alloc("ctrs", 4096, true)
	var done bool
	l := simpleLaunch(atomicKernel(buf, false), 4)
	l.OnComplete = func(units.Time) { done = true }
	g.RunKernel(l)
	eng.Run()
	if !done {
		t.Fatal("kernel incomplete")
	}
	s := g.Stats()
	if s.PIMLaneOps != 0 {
		t.Errorf("PIM lanes = %d with fully throttled PCUs", s.PIMLaneOps)
	}
	if s.HostLaneOps != 512 {
		t.Errorf("host lanes = %d, want 512", s.HostLaneOps)
	}
}

func TestAsyncLoadOverlap(t *testing.T) {
	// Software pipelining: N dependent-load iterations with prefetch
	// must be faster than N blocking loads.
	run := func(async bool) units.Time {
		r := newRig(t, core.NewNonOffloading())
		buf := r.space.Alloc("data", 1<<16, false)
		return r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
			if c.BlockID != 0 || c.WarpInBlock != 0 {
				return
			}
			mk := func(i int) [simt.WarpSize]uint64 {
				var a [simt.WarpSize]uint64
				for l := 0; l < simt.WarpSize; l++ {
					a[l] = buf.Addr((i*32 + l) * 16 % buf.Words)
				}
				return a
			}
			const iters = 50
			if async {
				c.LoadAsync(simt.FullMask, mk(0))
				for i := 0; i < iters; i++ {
					if i+1 < iters {
						vals := c.Wait()
						c.LoadAsync(simt.FullMask, mk(i+1))
						_ = vals
						c.Compute(20)
					} else {
						c.Wait()
						c.Compute(20)
					}
				}
			} else {
				for i := 0; i < iters; i++ {
					c.Load(simt.FullMask, mk(i))
					c.Compute(20)
				}
			}
		}, 1))
	}
	blocking := run(false)
	pipelined := run(true)
	if pipelined >= blocking {
		t.Errorf("pipelined %v not faster than blocking %v", pipelined, blocking)
	}
}

func TestDivergenceAccounting(t *testing.T) {
	r := newRig(t, core.NewNonOffloading())
	buf := r.space.Alloc("data", 1024, false)
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr(l)
		}
		c.Load(simt.FullMask, addr)     // convergent
		c.Load(simt.FirstN(5), addr)    // divergent
		c.Load(simt.LaneMask(31), addr) // divergent
	}, 1))
	s := r.gpu.Stats()
	if s.DivergentOps != 2 {
		t.Errorf("divergent ops = %d, want 2", s.DivergentOps)
	}
}

func TestThermalWarningForwarding(t *testing.T) {
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, hmc.DefaultConfig())
	cube.SetTemperature(0, 90) // hot: every response carries the warning
	cfg := core.DefaultConfig()
	sw := core.NewSWDynT(eng, cfg, 64)
	g := New(eng, space, cube, sw, DefaultConfig())
	buf := space.Alloc("ctrs", 4096, true)
	var done bool
	l := simpleLaunch(atomicKernel(buf, false), 8)
	l.OnComplete = func(units.Time) { done = true }
	g.RunKernel(l)
	eng.Run()
	if !done {
		t.Fatal("kernel incomplete")
	}
	if seen, _, _ := sw.Warnings(); seen == 0 {
		t.Error("no warnings reached the policy despite a hot cube")
	}
}

func TestOccupancyLimits(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.New()
	space := mem.NewSpace(1 << 20)
	cube := hmc.New(eng, space, hmc.DefaultConfig())
	g := New(eng, space, cube, core.NewNonOffloading(), cfg)
	// 4-warp blocks: per-SM limit = min(MaxBlocksPerSM, MaxWarps/4).
	g.launch = &Launch{Blocks: 1, BlockDim: 128}
	limit := g.blocksPerSMLimit()
	wantByWarps := cfg.MaxWarpsPerSM / 4
	if wantByWarps > cfg.MaxBlocksPerSM {
		wantByWarps = cfg.MaxBlocksPerSM
	}
	if limit != wantByWarps {
		t.Errorf("blocksPerSMLimit = %d, want %d", limit, wantByWarps)
	}
	g.launch = nil
}

func TestLaunchValidation(t *testing.T) {
	r := newRig(t, core.NewNonOffloading())
	for name, l := range map[string]*Launch{
		"zero blocks": {Kernel: func(*simt.Ctx) {}, Blocks: 0, BlockDim: 128},
		"bad dim":     {Kernel: func(*simt.Ctx) {}, Blocks: 1, BlockDim: 100},
		"nil kernel":  {Blocks: 1, BlockDim: 128},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			r.gpu.RunKernel(l)
		}()
	}
}

func TestPIMRegionBypassesL1(t *testing.T) {
	r := newRig(t, core.NewNaiveOffloading())
	buf := r.space.Alloc("props", 4096, true)
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		for l := 0; l < simt.WarpSize; l++ {
			addr[l] = buf.Addr(l)
		}
		c.Load(simt.FullMask, addr)
		c.Load(simt.FullMask, addr) // would be an L1 hit if cached there
	}, 1))
	if s := r.gpu.Stats(); s.UncachedLines != 4 {
		t.Errorf("volatile-path lines = %d, want 4 (2 per load, no L1)", s.UncachedLines)
	}
	// Second load hits L2, so the cube sees only the first fetches.
	if c := r.cube.Counters(); c.Reads != 2 {
		t.Errorf("HMC reads = %d, want 2", c.Reads)
	}
}

// TestPIMNoReturnCASCarriesCompare is a regression test: a posted
// (no-return) PIM compare-and-swap must ship its compare operand in the
// packet — dropping it silently compares against zero and never swaps.
func TestPIMNoReturnCASCarriesCompare(t *testing.T) {
	r := newRig(t, core.NewNaiveOffloading())
	buf := r.space.Alloc("lv", 64, true)
	const inf = ^uint32(0)
	r.space.Store32(buf.Addr(0), inf)
	r.space.Store32(buf.Addr(1), 7) // must NOT be swapped (cmp mismatch)
	r.runKernel(t, simpleLaunch(func(c *simt.Ctx) {
		if c.BlockID != 0 || c.WarpInBlock != 0 {
			return
		}
		var addr [simt.WarpSize]uint64
		var val, cmp [simt.WarpSize]uint32
		addr[0], val[0], cmp[0] = buf.Addr(0), 3, inf
		addr[1], val[1], cmp[1] = buf.Addr(1), 3, inf
		c.Atomic(mem.AtomicCAS, simt.FirstN(2), addr, val, cmp, false)
	}, 1))
	if got := r.space.Load32(buf.Addr(0)); got != 3 {
		t.Errorf("CAS(inf->3) left %d, want 3", got)
	}
	if got := r.space.Load32(buf.Addr(1)); got != 7 {
		t.Errorf("CAS with mismatched compare overwrote %d", got)
	}
}

// TestMissPathZeroAllocs pins the pooled miss path: once the missState
// freelist, the cube's request pool and the event queue have grown to a
// scenario's in-flight depth, every L2-missing line and every returning
// PIM lane makes its HMC round trip without allocating. Each case runs
// one warp that repeats its op over a buffer eight times the L2, so
// every line misses; a round advances the engine by a fixed window.
func TestMissPathZeroAllocs(t *testing.T) {
	load := func(c *simt.Ctx, addr [simt.WarpSize]uint64) { c.Load(simt.FullMask, addr) }
	atomic := func(needReturn bool) func(*simt.Ctx, [simt.WarpSize]uint64) {
		return func(c *simt.Ctx, addr [simt.WarpSize]uint64) {
			c.Atomic(mem.AtomicAdd, simt.FullMask, addr, splatOnes(), [simt.WarpSize]uint32{}, needReturn)
		}
	}
	for _, tc := range []struct {
		name   string
		policy core.Policy
		pim    bool // buffer in the offloading (uncacheable) region
		op     func(*simt.Ctx, [simt.WarpSize]uint64)
		check  func(Stats) uint64 // the traffic the case must issue
	}{
		{"cacheable load miss", core.NewNonOffloading(), false, load,
			func(s Stats) uint64 { return s.LoadLines - s.UncachedLines }},
		{"uncacheable load miss", core.NewNaiveOffloading(), true, load,
			func(s Stats) uint64 { return s.UncachedLines }},
		{"posted host atomic", core.NewNonOffloading(), false, atomic(false),
			func(s Stats) uint64 { return s.HostLaneOps }},
		{"returning host atomic", core.NewNonOffloading(), false, atomic(true),
			func(s Stats) uint64 { return s.HostLaneOps }},
		{"with-return PIM lanes", core.NewNaiveOffloading(), true, atomic(true),
			func(s Stats) uint64 { return s.PIMLaneOps }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			space := mem.NewSpace(1 << 16)
			cube := hmc.New(eng, space, hmc.DefaultConfig())
			cfg := DefaultConfig()
			cfg.L1 = cache.Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 4}
			cfg.L2 = cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Ways: 16}
			g := New(eng, space, cube, tc.policy, cfg)
			buf := space.Alloc("lines", 16<<10, tc.pim) // 64 KB: 1,024 lines

			stop, done := false, false
			kernel := func(c *simt.Ctx) {
				var addr [simt.WarpSize]uint64
				for i := 0; !stop; i++ {
					for l := range addr {
						addr[l] = buf.Addr((i*simt.WarpSize + l) * 16 % buf.Words) // one line per lane
					}
					tc.op(c, addr)
				}
			}
			g.RunKernel(&Launch{Name: "miss", Kernel: kernel, Blocks: 1, BlockDim: simt.WarpSize,
				OnComplete: func(units.Time) { done = true }})
			window := units.FromNanoseconds(5000)
			round := func() { eng.RunUntil(eng.Now() + window) }
			for i := 0; i < 40; i++ { // grow the pools: several sweeps of the buffer
				round()
			}
			before := tc.check(g.Stats())
			const runs = 100
			if avg := testing.AllocsPerRun(runs, round); avg != 0 {
				t.Errorf("miss round trip allocates %.1f per round, want 0", avg)
			}
			if moved := tc.check(g.Stats()) - before; moved < runs+1 {
				t.Fatalf("only %d lines or lanes in %d rounds: the case is not exercising its path", moved, runs+1)
			}
			stop = true
			eng.Run()
			if !done {
				t.Fatal("kernel did not finish after stop")
			}
		})
	}
}
