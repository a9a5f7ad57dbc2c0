package system

import (
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/sim"
	"coolpim/internal/simt"
	"coolpim/internal/telemetry"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// RunWorkloads executes one run on cfg.Net.Nodes() cube nodes, each a
// full platform replica: GPU + cube + thermal stack + policy + its own
// workload instance (ws holds one per node, each with its own
// functional memory). A single cube is one node on a plain engine; N
// cubes are joined by the cfg.Net link topology, each node on its own
// engine domain under the cluster's conservative barrier.
func RunWorkloads(ws []kernels.Workload, policy core.PolicyKind, cfg Config, g *graph.Graph) (*Result, error) {
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	cubes := cfg.Net.Nodes()
	if len(ws) != cubes {
		return nil, fmt.Errorf("system: %d workload replicas for %d cubes", len(ws), cubes)
	}
	engines := []*sim.Engine{sim.New()}
	runUntil := engines[0].RunUntil
	var cl *sim.Cluster
	var net *hmc.Network
	if cubes > 1 {
		var err error
		if cl, err = sim.NewCluster(cfg.Net.LinkLatency, cubes); err != nil {
			return nil, err
		}
		cl.SetShards(cfg.Net.Shards)
		if net, err = hmc.NewNetwork(cl, cfg.Net); err != nil {
			return nil, err
		}
		engines = make([]*sim.Engine, cubes)
		for i := range engines {
			engines[i] = cl.Domain(i)
		}
		runUntil = cl.RunUntil
	}

	// Node 0 owns the telemetry plane: its engine is profiled, and the
	// span and flight instruments attach to its components only.
	tel := cfg.Telemetry
	var spans *telemetry.SpanTracer
	var flight *telemetry.FlightRecorder
	if tel.Enabled() {
		spans, flight = tel.Spans, tel.Flight
		engines[0].SetObserver(tel.Profile())
		// The cube opens one span per request (the network one per remote
		// round trip and link transit), and backpressure can fire per
		// request; at full scale that floods the capped store within the
		// first few hundred microseconds and silently evicts the rare
		// control-plane spans (throttle reactions) that only arrive once
		// the stack heats up. Keep one representative record per thermal
		// tick per family and count the rest.
		families := []string{"hmc.read", "hmc.write", "hmc.pim", "link.backpressure"}
		if net != nil {
			families = append(families, net.SpanNames()...)
		}
		for _, name := range families {
			spans.SetMinGap(spans.Name(name), cfg.ThermalTick)
		}
		// The flight recorder (when attached) shadows the stream so a
		// crashing run carries its recent history.
		spans.SetFlight(flight)
	}
	if net != nil {
		net.SetSpans(spans)
	}

	nodes := make([]*nodeState, cubes)
	for i := range nodes {
		n := &nodeState{id: i, cfg: &cfg, eng: engines[i], w: ws[i], res: CubeResult{Node: i}}
		if i == 0 {
			n.spans, n.flight = spans, flight
		}
		if err := n.build(policy, g, cl, net); err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	// A run that ends early (a shutdown, a halted cluster, MaxSimTime)
	// leaves warps parked mid-kernel, whose coroutines would keep each
	// node's state reachable; stop them on every return path.
	defer func() {
		for _, n := range nodes {
			n.dev.StopWarps()
		}
	}()
	if tel.Enabled() {
		reg := tel.Registry
		scope := ""
		if cubes > 1 {
			scope = " (node 0)"
		}
		nodes[0].tempHist = reg.Histogram("coolpim_dram_temp_celsius",
			"peak DRAM temperature sampled every thermal tick"+scope,
			telemetry.LinearBounds(60, 2.5, 20))
		nodes[0].rateHist = reg.Histogram("coolpim_pim_rate_ops_per_ns",
			"windowed PIM offloading rate per sample interval"+scope,
			telemetry.LinearBounds(0.25, 0.25, 16))
		for _, n := range nodes {
			n.register(reg, cubes > 1)
		}
	}
	for _, n := range nodes {
		n.start(tel)
	}

	end := runUntil(cfg.MaxSimTime)

	shutdown := false
	for _, n := range nodes {
		shutdown = shutdown || n.res.Shutdown
	}
	res := &Result{Workload: ws[0].Name(), Policy: policy, Cooling: cfg.Cooling.Name}
	for _, n := range nodes {
		if !n.finished && !shutdown {
			return nil, fmt.Errorf("system: %s/%v node %d did not finish within %v (simulated %v)",
				n.w.Name(), policy, n.id, cfg.MaxSimTime, n.eng.Now())
		}
		if !n.finished || n.res.Shutdown {
			// A shutdown halted the run (possibly on the trailing tick
			// after this node's workload finished): the node ends at its
			// halt time, its series closed by the final partial window.
			n.res.Runtime = n.eng.Now()
			n.flushTail(n.res.Runtime)
		}
	}
	for _, n := range nodes {
		n.finish()
		if !shutdown && res.VerifyErr == nil {
			if err := n.w.Verify(); err != nil {
				res.VerifyErr = err
				if cubes > 1 {
					res.VerifyErr = fmt.Errorf("node %d: %w", n.id, err)
				}
			}
		}
	}
	aggregate(res, nodes)
	if net != nil {
		res.Links = net.Links()
	}
	// Final snapshot so a held-open diag server shows end-of-run state.
	tel.Publish(end)
	return res, nil
}

// nodeState is one cube node's full platform — GPU, cube, thermal
// coupling, policy and workload — scheduled exclusively on its engine.
type nodeState struct {
	id      int
	cfg     *Config
	eng     *sim.Engine
	w       kernels.Workload
	cube    *hmc.Cube
	dev     *gpu.GPU
	ctl     controller // SW-DynT or HW-DynT; nil for the static policies
	coupler *thermalCoupler

	// Node 0's instruments; nil on the other nodes and without telemetry.
	spans              *telemetry.SpanTracer
	flight             *telemetry.FlightRecorder
	tempHist, rateHist *telemetry.Histogram
	tickSpan           telemetry.SpanName
	// published holds the node's metric view on multi-node instrumented
	// runs (nil otherwise: a one-node run's metrics read it live).
	published *atomic.Pointer[nodeView]

	res          CubeResult
	finished     bool
	prevSample   hmc.Counters
	lastSampleAt units.Time
}

// build wires the node's platform on its engine: cube, thermal model,
// throttling policy, GPU and workload.
func (n *nodeState) build(kind core.PolicyKind, g *graph.Graph, cl *sim.Cluster, net *hmc.Network) error {
	cfg := n.cfg
	// Peak queue depths measured with 16 SMs x 64 resident warps: 4,125
	// events on the test-profile sssp-twc cells and 8,053 on the
	// paper-profile CoolPIM(HW) sssp-twc cell, so 8 per resident warp
	// covers both without regrowing the queue's node arena. Deeper cells
	// (test sssp-dtc 8,655; paper dc 33,686 and sssp-dtc 46,662, most of
	// the latter past the ring's horizon in the heap) grow the arena and
	// heap by amortized doubling.
	n.eng.Reserve(8 * cfg.GPU.NumSMs * cfg.GPU.MaxWarpsPerSM)
	space := kernels.SpaceFor(g)
	n.cube = hmc.New(n.eng, space, cfg.HMC)
	n.cube.DisableThermalEffects = kind.ThermalEffectsDisabled()
	n.cube.SetSpans(n.spans)
	if net != nil {
		net.AttachNode(n.id, n.cube)
	}
	model := thermal.New(cfg.Stack, cfg.Cooling)
	pol, err := n.buildPolicy(kind, model)
	if err != nil {
		return err
	}
	n.dev = gpu.New(n.eng, space, n.cube, pol, cfg.GPU)
	if net != nil {
		n.dev.SetNetwork(net, n.id)
	}
	n.dev.SetSpans(n.spans)
	n.w.Setup(space, g)
	n.coupler = newThermalCoupler(n.cube, model, *cfg)
	n.coupler.setSpans(n.spans)
	n.tickSpan = n.spans.Name("thermal.tick")
	n.cube.OnShutdown = func(units.Time) {
		// Per-node flag (domain-owned), run-wide stop: the node's own
		// engine halts immediately, the other domains at the barrier.
		n.res.Shutdown = true
		if cl != nil {
			cl.Halt()
		}
		n.eng.Halt()
	}
	return nil
}

// controller is a dynamic throttling policy, SW-DynT or HW-DynT, whose
// pool and warning counts the node reports.
type controller interface {
	core.Policy
	PoolSize() int
	Warnings() (seen, applied, critical uint64)
}

// buildPolicy constructs the node's throttling policy, attached to the
// node's instruments. Under MultiLevelHW, HW-DynT classifies a warning
// as critical while model's peak DRAM temperature is past the extended
// range.
func (n *nodeState) buildPolicy(kind core.PolicyKind, model *thermal.Model) (core.Policy, error) {
	cfg := n.cfg
	n.res.InitialPoolSize = -1
	var mechanism string
	switch kind {
	case core.NonOffloading:
		return core.NewNonOffloading(), nil
	case core.NaiveOffloading:
		return core.NewNaiveOffloading(), nil
	case core.IdealThermal:
		return core.NewIdealThermal(), nil
	case core.CoolPIMSW:
		pool, _ := swInitialPool(cfg, n.w.Profile())
		sw := core.NewSWDynT(n.eng, cfg.Throttle, pool)
		sw.Spans = n.spans
		n.ctl, mechanism = sw, "sw-ptp"
	case core.CoolPIMHW:
		var level func() core.WarningLevel
		if cfg.MultiLevelHW {
			level = func() core.WarningLevel {
				if model.PeakDRAM() > dram.ExtendedLimit {
					return core.WarnCritical
				}
				return core.WarnNormal
			}
		}
		hw := core.NewHWDynT(n.eng, cfg.Throttle, cfg.GPU.NumSMs, cfg.GPU.MaxWarpsPerSM, level)
		hw.Spans = n.spans
		n.ctl, mechanism = hw, "hw-pcu"
	default:
		return nil, fmt.Errorf("system: unknown policy %v", kind)
	}
	n.res.InitialPoolSize = n.ctl.PoolSize()
	n.spans.PoolInit(0, mechanism, n.res.InitialPoolSize)
	return n.ctl, nil
}

// swInitialPool is SW-DynT's Eq. 1 initial PTP size for a workload,
// and the most blocks the GPU can hold at once.
func swInitialPool(cfg *Config, prof kernels.Profile) (pool, maxBlocks int) {
	maxBlocks = cfg.GPU.NumSMs * cfg.GPU.MaxBlocksPerSM
	return core.InitialPTPSize(cfg.Throttle, cfg.PIMPeakRate,
		prof.PIMIntensity, maxBlocks, prof.DivergenceRatio), maxBlocks
}

// DeriveInert returns the run of policy kind relabelled from naive, the
// naive-offloading run of the same workload (profile prof) under cfg,
// when kind is provably inert on that run: it would make naive's
// decision at every step, so its run repeats naive's event for event.
// The preconditions (DESIGN.md §10a):
//
//   - CoolPIM(HW): naive's PeakDRAM is at most cfg.HMC.WarnTemp, so no
//     response carried a thermal warning; every PCU keeps all its warp
//     slots enabled, and a workload block fits in an SM's warp slots.
//   - CoolPIM(SW): the same, and the Eq. 1 initial pool equals the most
//     blocks the GPU can hold, or naive's GPU.PeakResidentBlocks (the
//     larger node's on a multi-cube run) is above 0 and at most the
//     pool. Either way TryAcquire never fails. A peak of 0, as a naive
//     result recorded before the field existed reports, leaves only the
//     first rule.
//   - IdealThermal: naive's PeakDRAM is at most dram.NormalLimit and it
//     did not shut down, so the cube never derated; naive ignores
//     warnings.
//
// Nothing derives from a failed naive run (nil or VerifyErr set) or
// when cfg.Telemetry is set, since the run's trace and metrics are
// outputs too. The copy shares no slice with naive.
func DeriveInert(naive *Result, kind core.PolicyKind, cfg Config, prof kernels.Profile) (*Result, bool) {
	if naive == nil || naive.Policy != core.NaiveOffloading || naive.VerifyErr != nil || cfg.Telemetry != nil {
		return nil, false
	}
	noWarning := naive.PeakDRAM <= cfg.HMC.WarnTemp
	pool := -1
	switch kind {
	case core.CoolPIMHW:
		// A block wider than an SM's warp slots would put warps past
		// the PCU limit, which HW translates to host atomics.
		if !noWarning || kernels.BlockDim/simt.WarpSize > cfg.GPU.MaxWarpsPerSM {
			return nil, false
		}
		pool = cfg.GPU.NumSMs * cfg.GPU.MaxWarpsPerSM // every warp slot of every SM
	case core.CoolPIMSW:
		var maxBlocks int
		pool, maxBlocks = swInitialPool(&cfg, prof)
		peak := naive.GPU.PeakResidentBlocks
		if !noWarning || (pool != maxBlocks && (peak == 0 || peak > pool)) {
			return nil, false
		}
	case core.IdealThermal:
		if naive.PeakDRAM > dram.NormalLimit || naive.Shutdown {
			return nil, false
		}
	default:
		return nil, false
	}
	res := *naive
	res.Policy = kind
	res.InitialPoolSize, res.FinalPoolSize = pool, pool
	res.Series = withPool(naive.Series, pool)
	res.Links = slices.Clone(naive.Links)
	if naive.PerCube != nil {
		res.PerCube = make([]CubeResult, len(naive.PerCube))
		for i, c := range naive.PerCube {
			c.InitialPoolSize, c.FinalPoolSize = pool, pool
			c.Series = withPool(c.Series, pool)
			res.PerCube[i] = c
		}
		if pool >= 0 {
			// The merged series sums the pools of the nodes sampled at
			// each index (see aggregate).
			for i := range res.Series {
				sum := 0
				for _, c := range res.PerCube {
					if i < len(c.Series) {
						sum += pool
					}
				}
				res.Series[i].PoolSize = sum
			}
		}
	}
	return &res, true
}

// withPool copies series with every sample's PoolSize set to pool.
func withPool(series []Sample, pool int) []Sample {
	out := slices.Clone(series)
	for i := range out {
		out[i].PoolSize = pool
	}
	return out
}

// poolSize is SW-DynT's PTP size or HW-DynT's total PIM-enabled warp
// count; -1 for static policies.
func (n *nodeState) poolSize() int {
	if n.ctl == nil {
		return -1
	}
	return n.ctl.PoolSize()
}

// start schedules the node's thermal tick, Result.Series sampler and
// (node 0) diag publication, then its first kernel launch.
func (n *nodeState) start(tel *telemetry.Telemetry) {
	cfg := n.cfg
	n.eng.EveryNamed(cfg.ThermalTick, "thermal", func(now units.Time) bool {
		n.thermalTick(now)
		return !n.finished
	})
	// Windows tile [0, Runtime] exactly: the ticker records full
	// SampleInterval windows while the workload runs, and flushTail the
	// final partial window at workload end or shutdown, scaled to its
	// true width.
	n.eng.EveryNamed(cfg.SampleInterval, "sampler", func(now units.Time) bool {
		if n.finished {
			return false
		}
		n.sample(now, cfg.SampleInterval)
		return true
	})
	if n.id == 0 && tel.Enabled() && tel.Sink != nil {
		// The "diag" ticker's events do not perturb determinism: they
		// only read state, and the relative (at, seq) order of all other
		// events is unchanged — the race-enabled byte-identity test in
		// diagserver pins this.
		publishEvery := tel.PublishEvery
		if publishEvery <= 0 {
			publishEvery = cfg.SampleInterval
		}
		n.eng.EveryNamed(publishEvery, "diag", func(now units.Time) bool {
			tel.Publish(now)
			return !n.finished
		})
	}
	n.eng.AfterNamed(0, "driver", n.runNext)
}

// thermalTick is the per-tick power→thermal feedback: coupler solve,
// peak tracking, cube temperature (warnings, derating, shutdown), node
// 0's instruments and the published metric view.
//
//coolpim:hotpath
func (n *nodeState) thermalTick(now units.Time) {
	// tickSpan is zero when spans are disabled; StartSpan on the nil
	// tracer then returns an inert Span, keeping the tick allocation-free.
	sp := n.spans.StartSpan(now, n.tickSpan)
	temp := n.coupler.tick(now, n.cfg.ThermalTick)
	if temp > n.res.PeakDRAM {
		n.res.PeakDRAM = temp
	}
	n.tempHist.Observe(float64(temp))
	n.flight.Thermal(now, temp)
	n.cube.SetTemperature(now, temp)
	n.publish()
	sp.End(now)
}

// sample records one Result.Series window of width dt ending at now.
func (n *nodeState) sample(now, dt units.Time) {
	ctr := n.cube.Counters()
	d := deltaCounters(ctr, n.prevSample)
	n.prevSample = ctr
	rate := units.OpsPerNs(float64(d.PIMOps) / dt.Nanoseconds())
	n.rateHist.Observe(float64(rate))
	n.res.Series = append(n.res.Series, Sample{
		At:      now,
		PIMRate: rate,
		ExtBW:   units.BytesPerSecond(float64(d.ExtDataBytes) / dt.Seconds()),
		// observe, not the raw model: in adaptive mode the model is up to
		// a skip horizon stale; plotted samples must be freshly solved.
		PeakDRAM: n.coupler.observe(),
		PoolSize: n.poolSize(),
	})
	n.lastSampleAt = now
}

// flushTail records the final partial window ending at now, if any.
func (n *nodeState) flushTail(now units.Time) {
	if dt := now - n.lastSampleAt; dt > 0 {
		n.sample(now, dt)
	}
}

// runNext launches the workload's next kernel, chaining launches
// through OnComplete; when none is left the node has finished.
func (n *nodeState) runNext(units.Time) {
	l, ok := n.w.NextLaunch()
	if !ok {
		n.finished = true
		n.res.Runtime = n.eng.Now()
		n.flushTail(n.res.Runtime)
		return
	}
	n.res.Launches++
	l.OnComplete = func(units.Time) {
		n.eng.AfterNamed(n.cfg.LaunchOverhead, "driver", n.runNext)
	}
	n.dev.RunKernel(l)
}

// finish assembles the node's end-of-run result.
func (n *nodeState) finish() {
	// Flush any thermal window the adaptive coupler still holds so the
	// reported peak reflects every joule injected (no-op in exact mode).
	if temp := n.coupler.drain(); temp > n.res.PeakDRAM {
		n.res.PeakDRAM = temp
	}
	v, r := n.liveView(), &n.res
	r.HMC, r.GPU, r.L2 = v.hmc, v.gpu, n.dev.L2Stats()
	r.PIMOps, r.ExtDataBytes = v.hmc.PIMOps, v.hmc.ExtDataBytes
	if r.Runtime > 0 {
		r.AvgPIMRate = units.OpsPerNs(float64(r.PIMOps) / r.Runtime.Nanoseconds())
		r.AvgExtBW = units.BytesPerSecond(float64(r.ExtDataBytes) / r.Runtime.Seconds())
	}
	r.FinalPoolSize = v.pool
	r.WarningsSeen, r.ControlUpdates, r.CriticalWarnings = v.seen, v.applied, v.critical
}

// nodeView is the state a node's metrics read. A one-node run reads it
// live. With several nodes, node 0's registry callbacks (export, diag
// snapshots) may run while other shards are mid-window, so every node
// publishes an immutable copy on its thermal tick and the metrics read
// only those.
type nodeView struct {
	hmc                     hmc.Counters
	gpu                     gpu.Stats
	thermal                 couplerStats
	peak                    units.Celsius
	pool                    int
	seen, applied, critical uint64
}

func (n *nodeState) liveView() nodeView {
	v := nodeView{hmc: n.cube.Counters(), gpu: n.dev.Stats(), thermal: n.coupler.stats(),
		peak: n.res.PeakDRAM, pool: n.poolSize()}
	if n.ctl != nil {
		v.seen, v.applied, v.critical = n.ctl.Warnings()
	}
	return v
}

// publish stores the node's current view for readers on other shards.
//
//coolpim:hotpath nilfast one-node and uninstrumented runs publish nothing
func (n *nodeState) publish() {
	if n.published == nil {
		return
	}
	v := n.liveView()
	n.published.Store(&v)
}

// view returns the node's metric view: live on a one-node run, the last
// published one otherwise.
func (n *nodeState) view() *nodeView {
	if n.published != nil {
		return n.published.Load()
	}
	v := n.liveView()
	return &v
}

// nodeMetrics is the per-node metric list.
var nodeMetrics = []struct {
	name, help string
	gauge      bool
	read       func(*nodeView) float64
}{
	{"coolpim_pim_ops_total", "PIM operations executed in the cube's vault ALUs", false,
		func(v *nodeView) float64 { return float64(v.hmc.PIMOps) }},
	{"coolpim_ext_data_bytes_total", "data bytes moved over the external SerDes links", false,
		func(v *nodeView) float64 { return float64(v.hmc.ExtDataBytes) }},
	{"coolpim_req_flits_total", "request-link FLITs transferred", false,
		func(v *nodeView) float64 { return float64(v.hmc.ReqFlits) }},
	{"coolpim_resp_flits_total", "response-link FLITs transferred", false,
		func(v *nodeView) float64 { return float64(v.hmc.RespFlits) }},
	{"coolpim_thermal_warnings_total", "thermal-warning responses delivered to the source throttle", false,
		func(v *nodeView) float64 { return float64(v.seen) }},
	{"coolpim_control_updates_total", "delayed control updates the throttling mechanism applied", false,
		func(v *nodeView) float64 { return float64(v.applied) }},
	{"coolpim_gpu_warp_ops_total", "warp instructions issued by the GPU", false,
		func(v *nodeView) float64 { return float64(v.gpu.WarpOps) }},
	{"coolpim_gpu_pim_blocks_total", "thread blocks launched on the PIM-enabled kernel", false,
		func(v *nodeView) float64 { return float64(v.gpu.PIMBlocks) }},
	{"coolpim_gpu_nonpim_blocks_total", "thread blocks launched on the non-PIM shadow kernel", false,
		func(v *nodeView) float64 { return float64(v.gpu.NonPIMBlocks) }},
	{"coolpim_pool_size", "SW-DynT token-pool size or HW-DynT total PIM-enabled warps (-1 for static policies)", true,
		func(v *nodeView) float64 { return float64(v.pool) }},
	{"coolpim_peak_dram_celsius", "hottest DRAM temperature observed so far", true,
		func(v *nodeView) float64 { return float64(v.peak) }},
	{"coolpim_thermal_skipped_ticks_total", "thermal ticks folded into a coalesced window without a solve (adaptive mode)", false,
		func(v *nodeView) float64 { return float64(v.thermal.Skipped) }},
	{"coolpim_thermal_solves_total", "real thermal advances, exact steps plus coalesced fast solves", false,
		func(v *nodeView) float64 { return float64(v.thermal.Solves) }},
	{"coolpim_thermal_fast_solves_total", "coalesced implicit (fast-tier) thermal advances", false,
		func(v *nodeView) float64 { return float64(v.thermal.Fast) }},
	{"coolpim_thermal_skip_rate", "fraction of coupling ticks skipped by the adaptive tier", true,
		func(v *nodeView) float64 { return v.thermal.skipRate() }},
	{"coolpim_thermal_stale_peak_error_celsius", "accumulated |peak-DRAM| staleness introduced by skipped thermal ticks", true,
		func(v *nodeView) float64 { return v.thermal.StaleErr }},
}

// register adds the node's metrics to reg: unlabeled and read live on a
// one-node run, one cube="i" series per family read from the published
// view otherwise.
func (n *nodeState) register(reg *telemetry.Registry, labeled bool) {
	if labeled {
		n.published = new(atomic.Pointer[nodeView])
		n.publish()
	}
	id := strconv.Itoa(n.id) // interned once: no per-scrape formatting
	for _, m := range nodeMetrics {
		read := m.read
		fn := func() float64 { return read(n.view()) }
		switch {
		case labeled && m.gauge:
			reg.GaugeFuncLabeled(m.name, m.help, "cube", id, fn)
		case labeled:
			reg.CounterFuncLabeled(m.name, m.help, "cube", id, fn)
		case m.gauge:
			reg.GaugeFunc(m.name, m.help, fn)
		default:
			reg.CounterFunc(m.name, m.help, fn)
		}
	}
}

// aggregate folds the per-node results into the run-level totals: sums
// for activity counters, max for runtime and temperature, index-aligned
// merge for the time series. A one-node run reports its node's values
// and series, without PerCube.
func aggregate(res *Result, nodes []*nodeState) {
	for _, n := range nodes {
		r := &n.res
		res.Runtime = max(res.Runtime, r.Runtime)
		res.Launches += r.Launches
		res.PIMOps += r.PIMOps
		res.ExtDataBytes += r.ExtDataBytes
		res.ReqFlits += r.HMC.ReqFlits
		res.RespFlits += r.HMC.RespFlits
		res.PeakDRAM = max(res.PeakDRAM, r.PeakDRAM)
		res.WarningsSeen += r.WarningsSeen
		res.ControlUpdates += r.ControlUpdates
		res.CriticalWarnings += r.CriticalWarnings
		res.Shutdown = res.Shutdown || r.Shutdown
		addCounters(&res.HMC, r.HMC)
		addGPUStats(&res.GPU, r.GPU)
		res.L2.Hits += r.L2.Hits
		res.L2.Misses += r.L2.Misses
		res.L2.Fills += r.L2.Fills
		res.L2.Evictions += r.L2.Evictions
		res.L2.Writebacks += r.L2.Writebacks
	}
	res.InitialPoolSize = nodes[0].res.InitialPoolSize
	res.FinalPoolSize = nodes[0].res.FinalPoolSize
	if res.Runtime > 0 {
		res.AvgPIMRate = units.OpsPerNs(float64(res.PIMOps) / res.Runtime.Nanoseconds())
		res.AvgExtBW = units.BytesPerSecond(float64(res.ExtDataBytes) / res.Runtime.Seconds())
	}
	if len(nodes) == 1 {
		res.Series = nodes[0].res.Series
		return
	}

	// Merged series: index-aligned across nodes (they sample on one
	// shared cadence) — rates and bandwidth sum, temperature takes the
	// hottest cube, pool size sums across dynamic policies. Timestamps
	// come from the longest node's series.
	res.PerCube = make([]CubeResult, len(nodes))
	longest := 0
	for i, n := range nodes {
		res.PerCube[i] = n.res
		if len(n.res.Series) > len(nodes[longest].res.Series) {
			longest = i
		}
	}
	ref := nodes[longest].res.Series
	res.Series = make([]Sample, len(ref))
	for i := range ref {
		s := Sample{At: ref[i].At, PoolSize: -1}
		pool := 0
		dynamic := false
		for _, n := range nodes {
			if i >= len(n.res.Series) {
				continue
			}
			p := n.res.Series[i]
			s.PIMRate += p.PIMRate
			s.ExtBW += p.ExtBW
			s.PeakDRAM = max(s.PeakDRAM, p.PeakDRAM)
			if p.PoolSize >= 0 {
				pool += p.PoolSize
				dynamic = true
			}
		}
		if dynamic {
			s.PoolSize = pool
		}
		res.Series[i] = s
	}
}

func addCounters(dst *hmc.Counters, d hmc.Counters) {
	dst.Reads += d.Reads
	dst.Writes += d.Writes
	dst.PIMOps += d.PIMOps
	dst.ExtDataBytes += d.ExtDataBytes
	dst.InternalRegularBytes += d.InternalRegularBytes
	dst.ReqFlits += d.ReqFlits
	dst.RespFlits += d.RespFlits
	dst.ReadLatencySum += d.ReadLatencySum
	dst.WriteLatencySum += d.WriteLatencySum
	dst.PIMLatencySum += d.PIMLatencySum
	dst.BankQueueSum += d.BankQueueSum
	dst.LinkQueueSum += d.LinkQueueSum
	dst.BusQueueSum += d.BusQueueSum
	dst.RespQueueSum += d.RespQueueSum
}

func addGPUStats(dst *gpu.Stats, d gpu.Stats) {
	dst.WarpOps += d.WarpOps
	dst.DivergentOps += d.DivergentOps
	dst.ComputeOps += d.ComputeOps
	dst.LoadOps += d.LoadOps
	dst.StoreOps += d.StoreOps
	dst.AtomicOps += d.AtomicOps
	dst.PIMLaneOps += d.PIMLaneOps
	dst.HostLaneOps += d.HostLaneOps
	dst.PIMBlocks += d.PIMBlocks
	dst.NonPIMBlocks += d.NonPIMBlocks
	dst.LoadLines += d.LoadLines
	dst.StoreLines += d.StoreLines
	dst.UncachedLines += d.UncachedLines
	dst.LoadWaitTotal += d.LoadWaitTotal
	dst.AtomicStall += d.AtomicStall
	dst.AtomicWait += d.AtomicWait
	dst.ComputeBusy += d.ComputeBusy
	dst.PeakResidentBlocks = max(dst.PeakResidentBlocks, d.PeakResidentBlocks)
}
