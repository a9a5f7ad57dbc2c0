package system

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/graph"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/telemetry"
)

// mcGraph is a small graph for multi-cube tests: each run replicates
// the full platform per cube, so the per-run cost is cubes × a
// single-cube run.
var mcGraph = graph.GenRMAT(11, 8, graph.LDBCLikeParams(), 7)

func mcConfig(topo hmc.Topology, cubes, shards int) Config {
	cfg := thrashCfg()
	cfg.Net = hmc.DefaultNetworkConfig()
	cfg.Net.Cubes = cubes
	cfg.Net.Topology = topo
	cfg.Net.Shards = shards
	return cfg
}

func runMC(t *testing.T, cfg Config, pol core.PolicyKind) *Result {
	t.Helper()
	res, err := Run("dc", pol, cfg, mcGraph)
	if err != nil {
		t.Fatalf("multi-cube run: %v", err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("multi-cube verification: %v", res.VerifyErr)
	}
	return res
}

// mcFingerprint renders the complete observable result — totals,
// per-cube results including their full time series, and per-link FLIT
// occupancy — as one string, so equality means byte-identity of
// everything a multi-cube run reports.
func mcFingerprint(res *Result) string {
	cp := *res
	cp.VerifyErr = nil // not comparable by value; checked separately
	return fmt.Sprintf("%+v", cp)
}

// TestMultiCubeSerialShardedByteIdentical is the system-level
// differential test: parallel shards must produce results
// byte-identical to the serial run (shards=1, every cube on the calling
// goroutine) across topologies, shard counts and GOMAXPROCS settings.
func TestMultiCubeSerialShardedByteIdentical(t *testing.T) {
	// Full matrix on the 4-cube chain; under the race detector a single
	// parallel configuration (see raceEnabled).
	procsList, shardsList := []int{1, 4}, []int{0, 2, 4}
	if raceEnabled {
		procsList, shardsList = []int{4}, []int{0}
	}
	ref := mcFingerprint(runMC(t, mcConfig(hmc.TopoChain, 4, 1), core.CoolPIMHW))
	for _, procs := range procsList {
		prev := runtime.GOMAXPROCS(procs)
		for _, shards := range shardsList {
			got := mcFingerprint(runMC(t, mcConfig(hmc.TopoChain, 4, shards), core.CoolPIMHW))
			if got != ref {
				t.Errorf("chain/4 shards=%d procs=%d diverges from one shard", shards, procs)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if raceEnabled {
		return
	}

	// Serial vs auto-sharded spot checks on the other topologies.
	for _, tc := range []struct {
		topo  hmc.Topology
		cubes int
	}{{hmc.TopoRing, 3}, {hmc.TopoMesh, 4}} {
		serial := mcFingerprint(runMC(t, mcConfig(tc.topo, tc.cubes, 1), core.NaiveOffloading))
		sharded := mcFingerprint(runMC(t, mcConfig(tc.topo, tc.cubes, 0), core.NaiveOffloading))
		if serial != sharded {
			t.Errorf("%s/%d sharded run diverges from one shard", tc.topo, tc.cubes)
		}
	}
}

// TestMultiCubePerCubeResults pins the per-node observables: every node
// runs its own workload replica to completion, cube counters are
// tallied per node (and sum to the totals), and the inter-cube links
// carried FLIT traffic in both directions.
func TestMultiCubePerCubeResults(t *testing.T) {
	res := runMC(t, mcConfig(hmc.TopoChain, 2, 0), core.NaiveOffloading)
	if len(res.PerCube) != 2 {
		t.Fatalf("PerCube = %d entries, want 2", len(res.PerCube))
	}
	var pim, ext uint64
	for i, pc := range res.PerCube {
		if pc.Node != i || pc.Runtime <= 0 || pc.Launches == 0 {
			t.Errorf("node %d: empty result %+v", i, pc)
		}
		if pc.HMC.PIMOps == 0 {
			t.Errorf("node %d served no PIM ops", i)
		}
		if len(pc.Series) == 0 {
			t.Errorf("node %d recorded no series", i)
		}
		pim += pc.HMC.PIMOps
		ext += pc.HMC.ExtDataBytes
	}
	if pim != res.PIMOps || ext != res.ExtDataBytes {
		t.Errorf("per-cube sums %d/%d != totals %d/%d", pim, ext, res.PIMOps, res.ExtDataBytes)
	}
	if res.Runtime < res.PerCube[0].Runtime || res.Runtime < res.PerCube[1].Runtime {
		t.Errorf("aggregate runtime %v below node runtimes %v/%v",
			res.Runtime, res.PerCube[0].Runtime, res.PerCube[1].Runtime)
	}
	if len(res.Links) != 2 {
		t.Fatalf("links = %d, want 2 directed", len(res.Links))
	}
	for _, ls := range res.Links {
		if ls.Counters.Packets == 0 || ls.Counters.Flits == 0 {
			t.Errorf("link %d->%d idle: %+v (page striping must generate remote traffic)", ls.Src, ls.Dst, ls.Counters)
		}
	}
	if len(res.Series) == 0 {
		t.Error("merged series empty")
	}
}

// TestMultiCubeTelemetryDeterminism runs an instrumented 2-cube config
// serially and sharded: the Prometheus export — including the per-cube
// labeled series fed by the atomic snapshots — must be byte-identical,
// and every cube's labeled series must be present.
func TestMultiCubeTelemetryDeterminism(t *testing.T) {
	export := func(shards int) string {
		cfg := mcConfig(hmc.TopoChain, 2, shards)
		cfg.Telemetry = telemetry.New()
		runMC(t, cfg, core.CoolPIMHW)
		var sb strings.Builder
		if err := cfg.Telemetry.Registry.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	serial := export(1)
	sharded := export(2)
	if serial != sharded {
		t.Errorf("Prometheus exports differ between serial and sharded runs:\n--- serial\n%s\n--- sharded\n%s", serial, sharded)
	}
	for _, want := range []string{`coolpim_pim_ops_total{cube="0"}`, `coolpim_pim_ops_total{cube="1"}`,
		`coolpim_peak_dram_celsius{cube="0"}`, `coolpim_peak_dram_celsius{cube="1"}`} {
		if !strings.Contains(serial, want) {
			t.Errorf("export missing per-cube series %q", want)
		}
	}
}

// TestMultiCubeConfigGuards pins the API misuse errors.
func TestMultiCubeConfigGuards(t *testing.T) {
	cfg := mcConfig(hmc.TopoChain, 2, 0)
	w, err := kernels.New("dc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorkload(w, core.NaiveOffloading, cfg, mcGraph); err == nil {
		t.Error("RunWorkload accepted a multi-cube config")
	}
	if _, err := RunWorkloads([]kernels.Workload{w}, core.NaiveOffloading, cfg, mcGraph); err == nil {
		t.Error("RunWorkloads accepted 1 replica for 2 cubes")
	}
	bad := cfg
	bad.Net.Topology = hmc.TopoRing // ring needs >= 3 cubes
	ws := []kernels.Workload{w, w}
	if _, err := RunWorkloads(ws, core.NaiveOffloading, bad, mcGraph); err == nil {
		t.Error("RunWorkloads accepted an invalid topology config")
	}
	single := thrashCfg()
	if _, err := RunWorkloads([]kernels.Workload{w, w}, core.NaiveOffloading, single, mcGraph); err == nil {
		t.Error("RunWorkloads accepted 2 workloads without a network")
	}
}

// hotExport runs an instrumented dc/naive run with the inlet air at
// 104 °C, which shuts down within the first thermal ticks, and returns
// the result with its Prometheus text.
func hotExport(t *testing.T, cfg Config, g *graph.Graph) (*Result, string) {
	t.Helper()
	cfg.Stack.Ambient = 104
	cfg.Telemetry = telemetry.New()
	res, err := Run("dc", core.NaiveOffloading, cfg, g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shutdown {
		t.Fatalf("no shutdown at peak %v", res.PeakDRAM)
	}
	var sb strings.Builder
	if err := cfg.Telemetry.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return res, sb.String()
}

// TestMultiCubeExportsEveryFamily pins that a multi-cube export carries
// every metric family a single-cube export has — warnings, control
// updates, GPU and thermal-solver series included — with one cube="i"
// series per node.
func TestMultiCubeExportsEveryFamily(t *testing.T) {
	families := func(prom string) []string {
		var out []string
		for _, line := range strings.Split(prom, "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				out = append(out, name)
			}
		}
		return out
	}
	_, single := hotExport(t, thrashCfg(), mcGraph)
	_, multi := hotExport(t, mcConfig(hmc.TopoChain, 2, 0), mcGraph)
	if s, m := families(single), families(multi); fmt.Sprint(s) != fmt.Sprint(m) {
		t.Fatalf("metric families differ:\nsingle: %v\nmulti:  %v", s, m)
	}
	for _, fam := range families(single) {
		name := strings.Fields(fam)[0]
		if strings.HasSuffix(fam, " histogram") {
			continue // node 0's distributions stay unlabeled
		}
		for _, cube := range []string{"0", "1"} {
			if want := name + `{cube="` + cube + `"} `; !strings.Contains(multi, want) {
				t.Errorf("multi-cube export missing %s", want)
			}
		}
	}
}

// TestShutdownTailWindowObserved pins the shutdown tail window: a run
// that shuts down before its first full sample interval closes node 0's
// series with one partial window, and that window must reach the
// coolpim_pim_rate_ops_per_ns histogram as well — on a single cube and
// on a 2-cube chain alike.
func TestShutdownTailWindowObserved(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		g    *graph.Graph
	}{{"single", thrashCfg(), testGraph}, {"chain2", mcConfig(hmc.TopoChain, 2, 0), mcGraph}} {
		res, prom := hotExport(t, tc.cfg, tc.g)
		node0 := res.Series
		if len(res.PerCube) > 0 {
			node0 = res.PerCube[0].Series
		}
		if len(node0) == 0 {
			t.Fatalf("%s: node 0 recorded no series", tc.name)
		}
		if want := fmt.Sprintf("coolpim_pim_rate_ops_per_ns_count %d\n", len(node0)); !strings.Contains(prom, want) {
			t.Errorf("%s: histogram count does not match node 0's %d samples:\n%s", tc.name, len(node0), prom)
		}
	}
}
