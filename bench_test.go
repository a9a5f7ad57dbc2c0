// Package coolpim's top-level benchmark harness: one bench per table and
// figure of the paper (regenerating its rows under testing.B and
// reporting the headline quantity as a custom metric), plus
// micro-benchmarks of the substrate components.
//
// The figure benches run on the reduced test profile so `go test
// -bench=.` completes in minutes; `cmd/figures` regenerates the full
// committed numbers (see EXPERIMENTS.md).
package coolpim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"coolpim/internal/cache"
	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/experiments"
	"coolpim/internal/flit"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/mem"
	"coolpim/internal/power"
	"coolpim/internal/sim"
	"coolpim/internal/system"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// ---- Tables ----

func BenchmarkTable1FlitAccounting(b *testing.B) {
	total := 0
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Table1() {
			total += r.ReqFlits + r.RespFlits
		}
	}
	if total == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkTable2CoolingTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) != 4 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable3InstructionMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table3()) != 10 {
			b.Fatal("bad table")
		}
	}
}

// ---- Analytic figures (thermal model sweeps) ----

func BenchmarkFig1PrototypeThermal(b *testing.B) {
	var last units.Celsius
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		last = pts[len(pts)-1].Die
	}
	b.ReportMetric(float64(last), "peakC")
}

func BenchmarkFig2ModelValidation(b *testing.B) {
	var diff float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			d := float64(r.DieModeled - r.DieEstimated)
			if d < 0 {
				d = -d
			}
			diff = d
		}
	}
	b.ReportMetric(diff, "absErrC")
}

func BenchmarkFig3HeatMap(b *testing.B) {
	var peak units.Celsius
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3()
		if err != nil {
			b.Fatal(err)
		}
		peak = res.LayerPeaks[1]
	}
	b.ReportMetric(float64(peak), "peakDRAMC")
}

func BenchmarkFig4BandwidthSweep(b *testing.B) {
	var pts []experiments.Fig4Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig4(9)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pts[len(pts)-1].PeakDRAM), "highEnd320C")
}

func BenchmarkFig5PIMRateSweep(b *testing.B) {
	var thr units.OpsPerNs
	for i := 0; i < b.N; i++ {
		var err error
		thr, err = experiments.MaxSafePIMRate()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(thr), "safeOpPerNs")
}

// ---- System figures (coupled GPU+HMC runs, reduced profile) ----

// benchProfile is the reduced campaign configuration for benches.
func benchProfile() experiments.Profile { return experiments.TestProfile() }

func runSystem(b *testing.B, workload string, pol core.PolicyKind) *system.Result {
	b.Helper()
	p := benchProfile()
	g := p.Graph()
	b.ResetTimer() // graph generation is setup, not simulation
	var res *system.Result
	for i := 0; i < b.N; i++ {
		w, err := kernels.NewSized(workload, p.Reps)
		if err != nil {
			b.Fatal(err)
		}
		res, err = system.RunWorkload(w, pol, p.Sys, g)
		if err != nil {
			b.Fatal(err)
		}
		if res.VerifyErr != nil {
			b.Fatal(res.VerifyErr)
		}
	}
	return res
}

// BenchmarkFig10Speedup regenerates the Fig. 10 rows: each sub-benchmark
// runs one workload under one configuration and reports its speedup over
// the baseline as a custom metric.
func BenchmarkFig10Speedup(b *testing.B) {
	pols := []core.PolicyKind{core.NaiveOffloading, core.CoolPIMHW, core.IdealThermal}
	for _, wl := range kernels.Names() {
		wl := wl
		var base *system.Result
		b.Run(wl+"/Non-Offloading", func(b *testing.B) {
			base = runSystem(b, wl, core.NonOffloading)
		})
		for _, pol := range pols {
			pol := pol
			b.Run(fmt.Sprintf("%s/%v", wl, pol), func(b *testing.B) {
				res := runSystem(b, wl, pol)
				if base != nil {
					b.ReportMetric(res.Speedup(base), "speedup")
				}
			})
		}
	}
}

// BenchmarkFig11Bandwidth reports normalized bandwidth for the naive
// configuration of each workload.
func BenchmarkFig11Bandwidth(b *testing.B) {
	for _, wl := range []string{"dc", "bfs-twc", "sssp-dwc", "pagerank"} {
		wl := wl
		b.Run(wl, func(b *testing.B) {
			var norm float64
			p := benchProfile()
			g := p.Graph()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base, err := system.Run(wl, core.NonOffloading, p.Sys, g)
				if err != nil {
					b.Fatal(err)
				}
				res, err := system.Run(wl, core.NaiveOffloading, p.Sys, g)
				if err != nil {
					b.Fatal(err)
				}
				norm = res.NormalizedBW(base)
			}
			b.ReportMetric(norm, "normBW")
		})
	}
}

// BenchmarkFig12PIMRate reports the average offloading rate of the naive
// configuration per workload.
func BenchmarkFig12PIMRate(b *testing.B) {
	for _, wl := range kernels.Names() {
		wl := wl
		b.Run(wl, func(b *testing.B) {
			res := runSystem(b, wl, core.NaiveOffloading)
			b.ReportMetric(float64(res.AvgPIMRate), "opPerNs")
		})
	}
}

// BenchmarkFig13PeakTemp reports the peak DRAM temperature of naive and
// CoolPIM(HW) runs.
func BenchmarkFig13PeakTemp(b *testing.B) {
	for _, wl := range []string{"dc", "bfs-twc", "kcore"} {
		for _, pol := range []core.PolicyKind{core.NaiveOffloading, core.CoolPIMHW} {
			wl, pol := wl, pol
			b.Run(fmt.Sprintf("%s/%v", wl, pol), func(b *testing.B) {
				res := runSystem(b, wl, pol)
				b.ReportMetric(float64(res.PeakDRAM), "peakC")
			})
		}
	}
}

// BenchmarkFig14RateSeries regenerates the closed-loop time series: the
// naive, SW and HW cells of the Fig. 14 workload, as a 3-cell matrix.
func BenchmarkFig14RateSeries(b *testing.B) {
	p := benchProfile()
	p.Graph() // warm the cache so generation stays out of the timed region
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunMatrixOpts(context.Background(), p, experiments.MatrixOpts{
			Workloads: []string{experiments.Fig14Workload},
			Policies:  []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW},
			Parallel:  3,
		})
		if err != nil {
			b.Fatal(err)
		}
		n = len(rows[0].Results[core.NaiveOffloading].Series)
	}
	b.ReportMetric(float64(n), "samples")
}

// ---- Substrate micro-benchmarks ----

func BenchmarkEventEngine(b *testing.B) {
	eng := sim.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(units.Time(i%64), func(units.Time) {})
		if i%1024 == 1023 {
			eng.Run()
		}
	}
	eng.Run()
}

// queueMixHistogram is the push-delta histogram of the paper profile's
// CoolPIM(HW) sssp-twc cell (22.8 M pushes): parts per 10,000 of the
// pushes whose delta lies in [lo, 2·lo) ps, or is 0 where lo is 0.
var queueMixHistogram = []struct {
	lo     units.Time
	weight int
}{
	{0, 4}, {512, 194}, {1024, 300}, {2048, 4}, {8192, 839},
	{16384, 1110}, {32768, 512}, {65536, 831}, {131072, 4022},
	{262144, 1189}, {524288, 568}, {1048576, 411}, {2097152, 8},
	{4194304, 2}, {8388608, 4},
}

// queueMixDeltas draws n push deltas from queueMixHistogram with a fixed
// seed: a bin by weight, then a uniform delta inside it.
func queueMixDeltas(n int) []units.Time {
	total := 0
	for _, bin := range queueMixHistogram {
		total += bin.weight
	}
	rng := rand.New(rand.NewSource(1))
	out := make([]units.Time, n)
	for i := range out {
		w := rng.Intn(total)
		for _, bin := range queueMixHistogram {
			if w -= bin.weight; w < 0 {
				if bin.lo > 0 {
					out[i] = bin.lo + units.Time(rng.Int63n(int64(bin.lo)))
				}
				break
			}
		}
	}
	return out
}

// BenchmarkEventQueueMix measures the event queue on the traffic real
// runs produce, which BenchmarkEventEngine's 0-63 ps pushes into a
// near-empty queue do not: it holds 800 and then 2,000 events pending
// (the mean depths measured on the test- and paper-profile sssp-twc
// cells) and draws every push's delta from queueMixHistogram. One op is
// one event: its pop, its handler and the push that replaces it.
func BenchmarkEventQueueMix(b *testing.B) {
	deltas := queueMixDeltas(1 << 16)
	for _, depth := range []int{800, 2000} {
		b.Run(fmt.Sprintf("pending=%d", depth), func(b *testing.B) {
			eng := sim.New()
			left := b.N
			next := 0
			var ev sim.Event
			ev = func(now units.Time) {
				if left--; left < 0 {
					if left == -1 {
						b.StopTimer() // the drain below is not timed
					}
					return
				}
				next++
				eng.At(now+deltas[next&(len(deltas)-1)], ev)
			}
			for next < depth {
				next++
				eng.At(deltas[next], ev)
			}
			b.ReportAllocs()
			b.ResetTimer()
			eng.Run()
		})
	}
}

func BenchmarkCubeReadThroughput(b *testing.B) {
	eng := sim.New()
	space := mem.NewSpace(1 << 22)
	cube := hmc.New(eng, space, hmc.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube.Submit(eng.Now(), flit.Request{Cmd: flit.CmdRead64, Addr: uint64(i) * 64}, func(flit.Response, units.Time) {})
		if i%4096 == 4095 {
			eng.Run()
		}
	}
	eng.Run()
	b.SetBytes(64)
}

func BenchmarkCubePIMThroughput(b *testing.B) {
	eng := sim.New()
	space := mem.NewSpace(1 << 22)
	cube := hmc.New(eng, space, hmc.DefaultConfig())
	buf := space.Alloc("x", 1<<20, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cube.Submit(eng.Now(), flit.Request{Cmd: flit.CmdPIMSignedAdd, Addr: buf.Addr(i % (1 << 20)), Imm: 1},
			func(flit.Response, units.Time) {})
		if i%4096 == 4095 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkThermalStep measures one paper-profile thermal tick (10 µs of
// simulated time ≈ 12 Euler substeps over the 289-node HMC 2.0 network)
// on a warm model — the stencil kernel's closed-loop hot path.
func BenchmarkThermalStep(b *testing.B) {
	m := thermal.New(thermal.HMC20Stack(), thermal.CommodityServer)
	m.AddLayerPower(0, 20)
	for l := 1; l <= 8; l++ {
		m.AddLayerPower(l, 1.3)
	}
	m.Step(10 * units.Microsecond) // warm the substep-schedule cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(10 * units.Microsecond)
	}
}

// BenchmarkSolveSteady measures a full Gauss-Seidel relaxation from
// ambient under the calibration power budget (model construction is
// setup, not solving).
func BenchmarkSolveSteady(b *testing.B) {
	m := thermal.New(thermal.HMC20Stack(), thermal.CommodityServer)
	m.AddLayerPower(0, 20.66)
	for l := 1; l <= 8; l++ {
		m.AddLayerPower(l, 10.47/8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		if m.SolveSteady() < 0 {
			b.Fatal("steady solve did not converge")
		}
	}
}

// BenchmarkStepFast measures the implicit-Euler transient covering the
// same 10 µs window as BenchmarkThermalStep: one backward substep versus
// ~12 forward ones.
func BenchmarkStepFast(b *testing.B) {
	m := thermal.New(thermal.HMC20Stack(), thermal.CommodityServer)
	m.AddLayerPower(0, 20)
	for l := 1; l <= 8; l++ {
		m.AddLayerPower(l, 1.3)
	}
	m.StepFast(10 * units.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.StepFast(10 * units.Microsecond)
	}
}

func BenchmarkDRAMBankSchedule(b *testing.B) {
	var bank dram.Bank
	tm := dram.DefaultTiming()
	now := units.Time(0)
	for i := 0; i < b.N; i++ {
		_, free := bank.Schedule(now, dram.AccessKind(i%3), tm)
		now = free
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.L2Config())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*64) % (1 << 22)
		if !c.Access(addr, i%4 == 0) {
			c.Fill(addr, false)
		}
	}
}

// BenchmarkCacheFill times the L2 miss path: an access stream over four
// times the L2's capacity misses on every access and fills, and every
// fourth op invalidates a line filled 8,192 ops earlier, leaving the
// hole behind valid ways that invalidateForPIM leaves on PIM packets,
// so Fill's victim search sees both full sets and sets with a hole.
func BenchmarkCacheFill(b *testing.B) {
	c := cache.New(cache.L2Config())
	const span = 1 << 22
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i*64) % span
		if !c.Access(addr, false) {
			c.Fill(addr, i%2 == 0)
		}
		if i%4 == 0 {
			c.Invalidate((addr + span - 8192*64) % span)
		}
	}
}

// BenchmarkRMATGeneration regenerates the graphs of the two campaign
// profiles, as each campaign's set-up and perfbench's setup_s do: the
// test profile's (scale 13) and the paper profile's (scale 16).
func BenchmarkRMATGeneration(b *testing.B) {
	for _, p := range []experiments.Profile{experiments.TestProfile(), experiments.PaperProfile()} {
		b.Run(fmt.Sprintf("scale%d", p.Scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := graph.GenRMAT(p.Scale, p.EdgeFactor, graph.LDBCLikeParams(), p.Seed)
				if g.NumE() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

func BenchmarkPowerModel(b *testing.B) {
	m := power.HMC20()
	act := power.FullBandwidth()
	act.PIMRate = 3
	var total units.Watt
	for i := 0; i < b.N; i++ {
		total = m.Compute(act).Total()
	}
	b.ReportMetric(float64(total), "watts")
}

func BenchmarkBFSReference(b *testing.B) {
	g := graph.GenRMAT(14, 8, graph.LDBCLikeParams(), 3)
	src, _ := g.MaxOutDegree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BFSLevels(g, src)
	}
}

// BenchmarkShardedEngine measures the conservative-parallel cluster on
// synthetic traffic: each of 4 domains runs a self-rescheduling local
// event chain and sends a cross-shard message every 16th event. The
// serial sub-bench runs every domain on the calling goroutine
// (shards=1), the sharded one one worker per domain; results are
// byte-identical between the two by construction, so the pair isolates
// the barrier's hand-off cost. On a single-core host the
// sharded variant only measures barrier overhead — see DESIGN.md §12.
func BenchmarkShardedEngine(b *testing.B) {
	const domains = 4
	const lookahead = 32 * units.Nanosecond
	run := func(b *testing.B, shards int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl, err := sim.NewCluster(lookahead, domains)
			if err != nil {
				b.Fatal(err)
			}
			cl.SetShards(shards)
			var fired [domains]int
			for d := 0; d < domains; d++ {
				d := d
				var step func(now units.Time)
				step = func(now units.Time) {
					fired[d]++
					if fired[d]%16 == 0 {
						cl.Send(d, (d+1)%domains, now+lookahead, func(units.Time) {})
					}
					if fired[d] < 4096 {
						cl.Domain(d).At(now+10*units.Nanosecond, step)
					}
				}
				cl.Domain(d).At(units.Time(d+1)*units.Nanosecond, step)
			}
			cl.RunUntil(1 * units.Millisecond)
			for d := 0; d < domains; d++ {
				if fired[d] != 4096 {
					b.Fatalf("domain %d fired %d events", d, fired[d])
				}
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("sharded", func(b *testing.B) { run(b, 0) })
}

// BenchmarkMultiCubeSystem runs the full 4-cube chain platform (one dc
// workload replica per cube, CoolPIM-HW policy) end to end, on one shard
// and on one shard per cube. The numbers in DESIGN.md §12 come from
// perfbench's multicube-net workload, not from this benchmark.
func BenchmarkMultiCubeSystem(b *testing.B) {
	g := graph.GenRMAT(11, 8, graph.LDBCLikeParams(), 7)
	cfg := experiments.ScaledConfig(11)
	cfg.Net = hmc.DefaultNetworkConfig()
	cfg.Net.Cubes = 4
	run := func(b *testing.B, shards int) {
		cfg := cfg
		cfg.Net.Shards = shards
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := system.Run("dc", core.CoolPIMHW, cfg, g)
			if err != nil {
				b.Fatal(err)
			}
			if res.VerifyErr != nil {
				b.Fatal(res.VerifyErr)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("sharded", func(b *testing.B) { run(b, 0) })
}
