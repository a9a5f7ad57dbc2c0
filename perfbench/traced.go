package main

import (
	"encoding/json"
	"fmt"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/graph"
	"coolpim/internal/kernels"
	"coolpim/internal/system"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// engineLabels are the simulator's engine-event labels the per-layer
// split reports. "telemetry" and "diag" events exist only in traced
// runs and are left out of every event count.
var engineLabels = []string{"hmc", "gpu", "thermal", "driver", "sampler", "throttle"}

var tracingOnlyLabels = map[string]bool{"telemetry": true, "diag": true}

// tracedCell is one cell of the traced pass.
type tracedCell struct {
	cellOutcome
	verifyS float64
	labels  map[string]telemetry.LabelStat
	ticks   tickSink
	solves  int // thermal.solve.* spans (adaptive tier only)
	fast    int // thermal.solve.fast spans
}

// tickSink collects the wall stamps of thermal.tick spans from the
// telemetry snapshots a run publishes. A snapshot carries the most
// recent spans, so publishing every thermal tick sees each tick span
// closed at least once; span IDs deduplicate across snapshots.
type tickSink struct {
	seen     map[uint32]bool
	wallNs   int64
	captured int
	err      error
}

func (s *tickSink) PublishSnapshot(snap *telemetry.Snapshot) {
	var rows []struct {
		ID          uint32 `json:"id"`
		Name        string `json:"name"`
		Open        bool   `json:"open"`
		WallStartNs int64  `json:"wall_start_ns"`
		WallEndNs   int64  `json:"wall_end_ns"`
	}
	if err := json.Unmarshal(snap.Spans, &rows); err != nil {
		s.err = err
		return
	}
	for _, r := range rows {
		if r.Name != "thermal.tick" || r.Open || s.seen[r.ID] {
			continue
		}
		s.seen[r.ID] = true
		s.wallNs += r.WallEndNs - r.WallStartNs
		s.captured++
	}
}

// runTracedCell runs one cell with its own Telemetry, a wall clock on
// its span tracer and a snapshot sink for the thermal tick spans, then
// times the workload's Verify.
func runTracedCell(p experiments.Profile, g *graph.Graph, wl string, pol core.PolicyKind) tracedCell {
	c := tracedCell{cellOutcome: cellOutcome{key: cellKey(wl, pol), pol: pol}, ticks: tickSink{seen: map[uint32]bool{}}}
	tel := telemetry.New()
	tel.Spans.SetWallClock(func() int64 { return time.Now().UnixNano() })
	tel.Sink = &c.ticks
	tel.PublishEvery = p.Sys.ThermalTick
	sys := p.Sys
	sys.Telemetry = tel

	n := 1
	if sys.Net.Enabled() {
		n = sys.Net.Cubes
	}
	ws := make([]kernels.Workload, n)
	for i := range ws {
		w, err := kernels.NewSized(wl, p.Reps)
		if err != nil {
			c.err = err
			return c
		}
		ws[i] = w
	}
	t0 := time.Now()
	c.res, c.err = system.RunWorkloads(ws, pol, sys, g)
	c.wallS = time.Since(t0).Seconds()
	if c.err != nil {
		return c
	}
	t0 = time.Now()
	for _, w := range ws {
		if err := w.Verify(); err != nil && c.res.VerifyErr == nil {
			c.res.VerifyErr = err
		}
	}
	c.verifyS = time.Since(t0).Seconds()
	if c.ticks.err != nil {
		c.err = fmt.Errorf("reading span snapshots: %w", c.ticks.err)
	}

	c.labels = map[string]telemetry.LabelStat{}
	for _, s := range tel.Profile().Stats() {
		c.labels[s.Label] = s
	}
	for _, s := range tel.Spans.Export() {
		switch s.Name {
		case "thermal.solve.exact":
			c.solves++
		case "thermal.solve.fast":
			c.solves++
			c.fast++
		}
	}
	return c
}

// traceReport is everything the per-layer table is computed from.
type traceReport struct {
	w        workload
	p        experiments.Profile
	setups   []setup
	untraced repetition
	traced   []tracedCell
	allocMB  float64
	gcCycles uint32
}

// layerMetrics derives the per-layer table. Engine labels cover node 0
// of a multi-cube run only: only that domain has an observer.
func (t *traceReport) layerMetrics() *metricSet {
	m := &metricSet{}
	var events, handlerNs int64
	perLabel := map[string]telemetry.LabelStat{}
	for _, c := range t.traced {
		for l, s := range c.labels {
			if tracingOnlyLabels[l] {
				continue
			}
			events += int64(s.Events)
			handlerNs += s.WallNs
			agg := perLabel[l]
			agg.Events += s.Events
			agg.WallNs += s.WallNs
			perLabel[l] = agg
		}
	}
	var untracedWall, tracedWall float64
	for _, c := range t.untraced.cells {
		untracedWall += c.wallS
	}
	for _, c := range t.traced {
		tracedWall += c.wallS
	}
	m.add("sim.events", float64(events), "count", 0)
	m.add("sim.ns_per_event", untracedWall*1e9/float64(events), "ns", 0)
	for _, l := range engineLabels {
		m.add("sim.events."+l, float64(perLabel[l].Events), "count", 0)
	}
	for _, l := range engineLabels {
		if l == "throttle" {
			// A handful of events per throttling cell and none elsewhere:
			// too few to time.
			continue
		}
		m.add("sim.handler_s."+l, float64(perLabel[l].WallNs)/1e9, "s", 0)
	}
	for _, l := range engineLabels {
		if l == "throttle" {
			continue
		}
		m.add("sim.handler_share."+l, float64(perLabel[l].WallNs)/float64(handlerNs), "ratio", 0)
	}

	var r system.Result
	var linkPackets, linkFlits uint64
	var linkQueue, loadWait, atomicWait float64
	var ticks, solves, fast int
	var tickNs int64
	var verifyS float64
	var finalPool int
	for _, c := range t.traced {
		res := c.res
		r.GPU.WarpOps += res.GPU.WarpOps
		r.GPU.PIMLaneOps += res.GPU.PIMLaneOps
		r.GPU.HostLaneOps += res.GPU.HostLaneOps
		loadWait += us(res.GPU.LoadWaitTotal)
		atomicWait += us(res.GPU.AtomicWait)
		r.L2.Hits += res.L2.Hits
		r.L2.Misses += res.L2.Misses
		r.HMC.Reads += res.HMC.Reads
		r.HMC.Writes += res.HMC.Writes
		r.HMC.PIMOps += res.HMC.PIMOps
		r.HMC.ReqFlits += res.HMC.ReqFlits
		r.HMC.RespFlits += res.HMC.RespFlits
		r.HMC.BankQueueSum += res.HMC.BankQueueSum
		r.HMC.LinkQueueSum += res.HMC.LinkQueueSum
		r.HMC.BusQueueSum += res.HMC.BusQueueSum
		r.HMC.RespQueueSum += res.HMC.RespQueueSum
		for _, lk := range res.Links {
			linkPackets += lk.Counters.Packets
			linkFlits += lk.Counters.Flits
			linkQueue += us(lk.QueueSum)
		}
		tickCount := int(c.labels["thermal"].Events)
		ticks += tickCount
		tickNs += c.ticks.wallNs
		if t.p.Sys.ThermalMode == system.ThermalAdaptive {
			solves += c.solves
			fast += c.fast
		} else {
			solves += tickCount
		}
		if res.PeakDRAM > r.PeakDRAM {
			r.PeakDRAM = res.PeakDRAM
		}
		r.WarningsSeen += res.WarningsSeen
		r.ControlUpdates += res.ControlUpdates
		if res.InitialPoolSize >= 0 {
			finalPool += res.FinalPoolSize
		}
		verifyS += c.verifyS
	}
	// Every inter-cube link hop is one cross-domain engine delivery.
	m.add("sim.xshard_events", float64(linkPackets), "count", 0)

	m.add("gpu.warp_ops", float64(r.GPU.WarpOps), "count", 0)
	m.add("gpu.pim_lane_ops", float64(r.GPU.PIMLaneOps), "count", 0)
	m.add("gpu.host_lane_ops", float64(r.GPU.HostLaneOps), "count", 0)
	m.add("gpu.load_wait_us", loadWait, "sim_us", 0)
	m.add("gpu.atomic_wait_us", atomicWait, "sim_us", 0)

	m.add("cache.l2_hits", float64(r.L2.Hits), "count", 0)
	m.add("cache.l2_misses", float64(r.L2.Misses), "count", 0)
	m.add("cache.l2_hit_ratio", r.L2.HitRate(), "ratio", 0)

	m.add("hmc.reads", float64(r.HMC.Reads), "count", 0)
	m.add("hmc.writes", float64(r.HMC.Writes), "count", 0)
	m.add("hmc.pim_ops", float64(r.HMC.PIMOps), "count", 0)
	m.add("hmc.flits", float64(r.HMC.ReqFlits+r.HMC.RespFlits), "count", 0)
	m.add("hmc.bank_queue_us", us(r.HMC.BankQueueSum), "sim_us", 0)
	m.add("hmc.link_queue_us", us(r.HMC.LinkQueueSum), "sim_us", 0)
	m.add("hmc.bus_queue_us", us(r.HMC.BusQueueSum), "sim_us", 0)
	m.add("hmc.resp_queue_us", us(r.HMC.RespQueueSum), "sim_us", 0)

	m.add("flit.link_packets", float64(linkPackets), "count", 0)
	m.add("flit.link_flits", float64(linkFlits), "count", 0)
	m.add("flit.link_queue_us", linkQueue, "sim_us", 0)

	m.add("thermal.ticks", float64(ticks), "count", 0)
	m.add("thermal.tick_s", float64(tickNs)/1e9, "s", 0)
	m.add("thermal.solves", float64(solves), "count", 0)
	m.add("thermal.fast_solves", float64(fast), "count", 0)
	skip := 0.0
	if ticks > 0 {
		skip = 1 - float64(solves)/float64(ticks)
	}
	m.add("thermal.skip_rate", skip, "ratio", 0)
	m.add("thermal.peak_dram_c", float64(r.PeakDRAM), "degC", 0)

	m.add("core.warnings_seen", float64(r.WarningsSeen), "count", 0)
	m.add("core.control_updates", float64(r.ControlUpdates), "count", 0)
	perWarning := 0.0
	if r.WarningsSeen > 0 {
		perWarning = float64(r.ControlUpdates) / float64(r.WarningsSeen)
	}
	m.add("core.control_per_warning", perWarning, "ratio", 0)
	m.add("core.final_pool", float64(finalPool), "count", 0)

	m.add("kernels.verify_s", verifyS, "s", 0)
	gen := make([]float64, len(t.setups))
	for i, s := range t.setups {
		gen[i] = s.gen
	}
	m.add("graph.gen_s", median(gen), "s", len(gen))

	m.add("runner.cell_wall_sum_s", untracedWall, "s", len(t.untraced.cells))
	m.add("runner.busy_frac", untracedWall/(float64(t.w.workers)*t.untraced.wallS), "ratio", 0)
	m.add("telemetry.overhead_frac", tracedWall/untracedWall-1, "ratio", 0)
	m.add("go.alloc_mb", t.allocMB, "MB", 0)
	m.add("go.gc_cycles", float64(t.gcCycles), "count", 0)
	return m
}

// us converts a simulated duration to microseconds.
func us(t units.Time) float64 { return t.Nanoseconds() / 1e3 }
