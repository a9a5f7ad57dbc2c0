// Package system wires the full evaluation platform together — GPU,
// HMC cube, power model, thermal RC network and throttling policy — and
// drives a graph workload through it, producing the statistics every
// figure of the paper's evaluation section is built from: runtime
// (speedup), external bandwidth, average PIM offloading rate, peak DRAM
// temperature, and the PIM-rate/temperature time series of Fig. 14.
package system

import (
	"fmt"

	"coolpim/internal/cache"
	"coolpim/internal/core"
	"coolpim/internal/gpu"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/power"
	"coolpim/internal/telemetry"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

// Config is the full-system configuration (Table IV plus the thermal
// stack and throttling parameters).
type Config struct {
	GPU      gpu.Config
	HMC      hmc.Config
	Stack    thermal.StackConfig
	Cooling  thermal.Cooling
	Power    power.Model
	Throttle core.Config

	// Net describes the multi-cube HMC network. The zero value (and any
	// Cubes <= 1) disables it: the run is one node on a plain engine.
	// When enabled, RunWorkloads replicates the full platform per cube
	// node and shards the event engine (node.go).
	Net hmc.NetworkConfig

	// PIMPeakRate is the platform's peak offloading rate used by Eq. 1.
	// The paper measures it "by performing a simple trial run on the
	// target platform": on this simulated host the most PIM-intensive
	// kernels sustain ≈3.2 op/ns at full offload (the paper's testbed
	// reached ~4; its thermal-limited hardware maximum is 6.5).
	PIMPeakRate units.OpsPerNs

	// ThermalTick is the coupling interval between the activity
	// counters, power model and RC network.
	ThermalTick units.Time
	// ThermalMode selects the coupling tier: ThermalExact (default,
	// byte-identical figure outputs) steps the RC network every tick;
	// ThermalAdaptive folds quasi-static ticks into coalesced implicit
	// advances, trading bit-identity for the epsilon bound pinned by the
	// accuracy harness. Sweeps and benchmarks opt into adaptive; figure
	// reproduction must stay exact.
	ThermalMode ThermalMode
	// PowerDeltaThreshold is the adaptive tier's per-node (per vault
	// cell) injection change, in watts, above which a tick breaks the
	// quasi-static window and forces an immediate exact solve
	// (0 → defaultPowerDelta).
	PowerDeltaThreshold units.Watt
	// MaxThermalInterval caps the adaptive tier's coalesced window so
	// throttle-reaction latency is never deferred past it
	// (0 → defaultMaxIntervalTicks × ThermalTick).
	MaxThermalInterval units.Time
	// SampleInterval is the time-series sampling period (Fig. 14).
	SampleInterval units.Time
	// LaunchOverhead is the host-side gap between kernel launches.
	LaunchOverhead units.Time
	// MaxSimTime aborts runaway simulations.
	MaxSimTime units.Time

	// Telemetry, when non-nil, enables the observability layer for the
	// run: the cube, GPU and throttling mechanism emit trace events, the
	// registry exposes live metrics, the Series sampler records aligned
	// time series, and the engine profiles per-component handler time.
	// Nil (the default) disables all of it at zero hot-path cost.
	Telemetry *telemetry.Telemetry
	// TelemetrySample is the telemetry Series sampling period
	// (0 → SampleInterval).
	TelemetrySample units.Time

	// MultiLevelHW enables the paper's footnote-4 extension for the
	// CoolPIMHW policy: a second (critical) thermal error state above
	// 95 °C that applies an emergency PCU reduction
	// (core.CriticalFactor) and bypasses the delayed-control-update
	// window.
	MultiLevelHW bool
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	throttle := core.DefaultConfig()
	// The coupled platform's safe offloading rate is ~1.1 op/ns (the
	// analytic cube-only threshold of Fig. 5 is 1.3; rates on this
	// platform run ~0.65× the paper's — see EXPERIMENTS.md).
	throttle.TargetPIMRate = 1.1
	return Config{
		GPU:            gpu.DefaultConfig(),
		HMC:            hmc.DefaultConfig(),
		Stack:          thermal.HMC20Stack(),
		Cooling:        thermal.CommodityServer,
		Power:          power.HMC20System(),
		Throttle:       throttle,
		PIMPeakRate:    3.2,
		ThermalTick:    10 * units.Microsecond,
		SampleInterval: 100 * units.Microsecond,
		LaunchOverhead: 2 * units.Microsecond,
		MaxSimTime:     2 * units.Second,
	}
}

// Sample is one time-series point.
type Sample struct {
	At       units.Time
	PIMRate  units.OpsPerNs // windowed offloading rate
	ExtBW    units.BytesPerSecond
	PeakDRAM units.Celsius
	// PoolSize is SW-DynT's PTP size (or the HW-DynT total PIM-enabled
	// warp count), -1 for static policies.
	PoolSize int
}

// Result holds everything a run produces.
type Result struct {
	Workload string
	Policy   core.PolicyKind
	Cooling  string

	Runtime  units.Time
	Launches int

	// Totals over the run.
	PIMOps       uint64
	ExtDataBytes uint64
	ReqFlits     uint64
	RespFlits    uint64

	// AvgPIMRate is PIMOps/Runtime (Fig. 12); AvgExtBW is
	// ExtDataBytes/Runtime (Fig. 11 numerator).
	AvgPIMRate units.OpsPerNs
	AvgExtBW   units.BytesPerSecond

	// PeakDRAM is the hottest DRAM temperature observed (Fig. 13).
	PeakDRAM units.Celsius

	WarningsSeen     uint64
	ControlUpdates   uint64
	CriticalWarnings uint64 // multi-level extension only
	GPU              gpu.Stats
	L2               cache.Stats
	HMC              hmc.Counters
	Shutdown         bool
	VerifyErr        error
	Series           []Sample
	FinalPoolSize    int
	InitialPoolSize  int

	// Multi-cube runs only: per-node results and the final per-link FLIT
	// occupancy of the inter-cube network (empty for single-cube runs).
	PerCube []CubeResult
	Links   []hmc.LinkStat
}

// CubeResult is one node's view of a multi-cube run: its own GPU,
// cube, thermal stack and policy — the same observables a single-cube
// Result reports, per node.
type CubeResult struct {
	Node     int
	Runtime  units.Time
	Launches int

	PIMOps       uint64
	ExtDataBytes uint64
	AvgPIMRate   units.OpsPerNs
	AvgExtBW     units.BytesPerSecond
	PeakDRAM     units.Celsius

	WarningsSeen     uint64
	ControlUpdates   uint64
	CriticalWarnings uint64
	GPU              gpu.Stats
	L2               cache.Stats
	HMC              hmc.Counters
	Shutdown         bool
	FinalPoolSize    int
	InitialPoolSize  int
	Series           []Sample
}

// Speedup returns base.Runtime / r.Runtime.
func (r *Result) Speedup(base *Result) float64 {
	if r.Runtime <= 0 {
		return 0
	}
	return float64(base.Runtime) / float64(r.Runtime)
}

// NormalizedBW returns r's average bandwidth over base's (Fig. 11).
func (r *Result) NormalizedBW(base *Result) float64 {
	if base.AvgExtBW <= 0 {
		return 0
	}
	return float64(r.AvgExtBW) / float64(base.AvgExtBW)
}

// Run executes one workload under one policy and returns its result,
// building one workload replica per cube node.
func Run(workloadName string, policy core.PolicyKind, cfg Config, g *graph.Graph) (*Result, error) {
	ws := make([]kernels.Workload, cfg.Net.Nodes())
	for i := range ws {
		w, err := kernels.New(workloadName)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return RunWorkloads(ws, policy, cfg, g)
}

// RunWorkload is Run for an already-constructed workload (single-cube
// only; multi-cube configurations need one workload replica per node —
// see RunWorkloads).
func RunWorkload(w kernels.Workload, policy core.PolicyKind, cfg Config, g *graph.Graph) (*Result, error) {
	if cfg.Net.Enabled() {
		return nil, fmt.Errorf("system: multi-cube config (%d cubes) needs RunWorkloads with one workload replica per node", cfg.Net.Cubes)
	}
	return RunWorkloads([]kernels.Workload{w}, policy, cfg, g)
}

func deltaCounters(cur, prev hmc.Counters) hmc.Counters {
	return hmc.Counters{
		Reads:                cur.Reads - prev.Reads,
		Writes:               cur.Writes - prev.Writes,
		PIMOps:               cur.PIMOps - prev.PIMOps,
		ExtDataBytes:         cur.ExtDataBytes - prev.ExtDataBytes,
		InternalRegularBytes: cur.InternalRegularBytes - prev.InternalRegularBytes,
		ReqFlits:             cur.ReqFlits - prev.ReqFlits,
		RespFlits:            cur.RespFlits - prev.RespFlits,
	}
}

func activityFor(d hmc.Counters, dt units.Time) power.Activity {
	return power.Activity{
		ExternalBW:        units.BytesPerSecond(float64(d.ExtDataBytes) / dt.Seconds()),
		InternalRegularBW: units.BytesPerSecond(float64(d.InternalRegularBytes) / dt.Seconds()),
		PIMRate:           units.OpsPerNs(float64(d.PIMOps) / dt.Nanoseconds()),
	}
}
