package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
	"coolpim/internal/runner"
	"coolpim/internal/system"
)

// derivedKinds are the policies whose cells may derive from naive.
var derivedKinds = []core.PolicyKind{core.CoolPIMSW, core.CoolPIMHW, core.IdealThermal}

// mustCell simulates one cell with its full result (series included).
func mustCell(t *testing.T, p Profile, wl string, pol core.PolicyKind) *system.Result {
	t.Helper()
	res, err := runCell(newSized, p, wl, pol, p.Sys, p.Graph())
	if err != nil {
		t.Fatalf("%s/%v: %v", wl, pol, err)
	}
	if res.VerifyErr != nil {
		t.Fatalf("%s/%v: verification: %v", wl, pol, res.VerifyErr)
	}
	return res
}

// checkCubeAccounting asserts the cube's accounting identities on a
// run's result: internal/system's golden test holds the same check and
// explains each identity and the in-flight exception for shut-down
// multi-cube runs.
func checkCubeAccounting(t *testing.T, what string, res *system.Result) {
	t.Helper()
	h := res.HMC
	if want := 64*(h.Reads+h.Writes) + 16*h.PIMOps; res.ExtDataBytes != want || h.ExtDataBytes != want {
		t.Errorf("%s: ExtDataBytes %d (cube counters %d), want 64·(%d+%d) + 16·%d = %d",
			what, res.ExtDataBytes, h.ExtDataBytes, h.Reads, h.Writes, h.PIMOps, want)
	}
	if res.ReqFlits != h.ReqFlits || res.RespFlits != h.RespFlits {
		t.Errorf("%s: FLITs %d/%d, cube counters %d/%d", what, res.ReqFlits, res.RespFlits, h.ReqFlits, h.RespFlits)
	}
	inFlight := res.Shutdown && len(res.PerCube) > 0
	if want := h.Reads + 5*h.Writes + 2*h.PIMOps; res.ReqFlits != want && !(inFlight && res.ReqFlits > want) {
		t.Errorf("%s: ReqFlits %d, want %d + 5·%d + 2·%d = %d",
			what, res.ReqFlits, h.Reads, h.Writes, h.PIMOps, want)
	}
	lo, hi := 5*h.Reads+h.Writes+h.PIMOps, 5*h.Reads+h.Writes+2*h.PIMOps
	if res.RespFlits < lo || res.RespFlits > hi && !inFlight {
		t.Errorf("%s: RespFlits %d, want within [%d, %d]", what, res.RespFlits, lo, hi)
	}
	if res.PIMOps != h.PIMOps {
		t.Errorf("%s: PIMOps %d, cube counters %d", what, res.PIMOps, h.PIMOps)
	}
	if len(res.PerCube) == 0 {
		return
	}
	var sum [8]uint64
	for _, c := range res.PerCube {
		for i, v := range [...]uint64{c.PIMOps, c.ExtDataBytes, c.HMC.Reads, c.HMC.Writes,
			c.HMC.PIMOps, c.HMC.ExtDataBytes, c.HMC.ReqFlits, c.HMC.RespFlits} {
			sum[i] += v
		}
	}
	if want := [...]uint64{res.PIMOps, res.ExtDataBytes, h.Reads, h.Writes,
		h.PIMOps, h.ExtDataBytes, res.ReqFlits, res.RespFlits}; sum != want {
		t.Errorf("%s: per-cube sums %v, run totals %v (PIMOps, ExtDataBytes, cube Reads, Writes, PIMOps, ExtDataBytes, ReqFlits, RespFlits)",
			what, sum, want)
	}
}

// sameBytes fails unless two results render identically in %+v and
// in the JSON the resume ledger stores.
func sameBytes(t *testing.T, what string, got, want *system.Result) {
	t.Helper()
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Errorf("%s: %%+v differs:\ngot  %s\nwant %s", what, g, w)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gj) != string(wj) {
		t.Errorf("%s: ledger JSON differs:\ngot  %s\nwant %s", what, gj, wj)
	}
}

// TestDeriveInertMatchesSimulation is the shortcut's differential
// test: every cell DeriveInert derives on the test profile is also
// simulated, and the two results match byte for byte. The exact tier
// covers all ten workloads: HW and IdealThermal derive everywhere, and
// so does SW, whose Eq. 1 pool is 256 on six workloads and covers the
// naive run's 128 resident blocks on the other four (bfs-dwc, bfs-twc,
// sssp-dwc and sssp-twc, pools 163-187). The adaptive tier, a 2-cube
// chain and the multi-level HW extension cover a subset; on the chain,
// bfs-twc's SW cell derives by its larger node's peak, as the nodes'
// sum would exceed the pool. With the warning threshold just above
// ambient, the naive run draws warnings it ignores: only IdealThermal
// derives.
func TestDeriveInertMatchesSimulation(t *testing.T) {
	adaptive := TestProfile()
	adaptive.Sys.ThermalMode = system.ThermalAdaptive
	warned := TestProfile()
	warned.Sys.HMC.WarnTemp = warned.Sys.Stack.Ambient + 1
	multiLevel := TestProfile()
	multiLevel.Sys.MultiLevelHW = true
	net := hmc.DefaultNetworkConfig()
	net.Cubes = 2
	net.Topology = hmc.TopoChain
	subset := []string{"dc", "pagerank"}
	cases := []struct {
		name      string
		p         Profile
		workloads []string
		want      int // derived cells
	}{
		{"exact", TestProfile(), kernels.Names(), 30},
		{"adaptive", adaptive, subset, 6},
		{"chain2", MultiCubeProfile(TestProfile(), net), []string{"dc", "pagerank", "bfs-twc"}, 9},
		{"warned", warned, []string{"dc"}, 1},
		{"multilevel-hw", multiLevel, []string{"dc"}, 3},
	}
	if raceEnabled {
		cases = cases[:1]
		cases[0].workloads, cases[0].want = subset, 6
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			derived := make([]int, len(tc.workloads))
			t.Run("cells", func(t *testing.T) {
				for i, wl := range tc.workloads {
					t.Run(wl, func(t *testing.T) {
						t.Parallel()
						naive := mustCell(t, tc.p, wl, core.NaiveOffloading)
						checkCubeAccounting(t, wl+"/naive", naive)
						for _, kind := range derivedKinds {
							got, ok := deriveCell(newSized, tc.p, wl, kind, naive)
							if !ok {
								continue
							}
							derived[i]++
							sim := mustCell(t, tc.p, wl, kind)
							checkCubeAccounting(t, wl+"/"+kind.String(), sim)
							sameBytes(t, wl+"/"+kind.String(), got, sim)
						}
					})
				}
			})
			total := 0
			for _, n := range derived {
				total += n
			}
			if total != tc.want {
				t.Errorf("%d cells derived, want %d (per workload %v)", total, tc.want, derived)
			}
		})
	}
}

// TestDeriveInertSimulatesActiveCells: cells whose policy may act are
// simulated, not derived: every controlled policy on a naive run hot
// enough to warn and derate; SW on sssp-twc with the target PIM rate
// halved, whose Eq. 1 pool (83) is below the 128 blocks the naive run
// held at once, so some blocks launch without a token; and SW on a
// resumed campaign whose ledgered naive entry predates
// PeakResidentBlocks, so its pool (163) is checked against the GPU's
// 256 blocks alone.
func TestDeriveInertSimulatesActiveCells(t *testing.T) {
	t.Run("hot", func(t *testing.T) {
		t.Parallel()
		hot := TestProfile()
		hot.Sys.Stack.Ambient = 80
		naive := mustCell(t, hot, "dc", core.NaiveOffloading)
		if naive.PeakDRAM <= dram.NormalLimit || naive.PeakDRAM <= hot.Sys.HMC.WarnTemp {
			t.Fatalf("naive peaked at %v at 80 °C ambient; the case no longer heats", naive.PeakDRAM)
		}
		for _, kind := range derivedKinds {
			if _, ok := deriveCell(newSized, hot, "dc", kind, naive); ok {
				t.Errorf("%v derived from a naive run that peaked at %v", kind, naive.PeakDRAM)
			}
		}
		// Deriving would have been wrong: HW reacts to the warnings.
		hw := mustCell(t, hot, "dc", core.CoolPIMHW)
		if hw.WarningsSeen == 0 || hw.Runtime == naive.Runtime {
			t.Errorf("HW saw %d warnings, runtime %v vs naive %v: the case no longer throttles",
				hw.WarningsSeen, hw.Runtime, naive.Runtime)
		}
	})
	t.Run("sw-pool", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race runs keep to the dc/pagerank subset")
		}
		t.Parallel()
		p := TestProfile()
		p.Sys.Throttle.TargetPIMRate /= 2
		naive := mustCell(t, p, "sssp-twc", core.NaiveOffloading)
		if _, ok := deriveCell(newSized, p, "sssp-twc", core.CoolPIMHW, naive); !ok {
			t.Fatalf("HW not derived from a cool naive run (peak %v)", naive.PeakDRAM)
		}
		if _, ok := deriveCell(newSized, p, "sssp-twc", core.CoolPIMSW, naive); ok {
			t.Error("SW derived although its Eq. 1 pool is below the naive run's peak resident blocks")
		}
		sw := mustCell(t, p, "sssp-twc", core.CoolPIMSW)
		if peak := naive.GPU.PeakResidentBlocks; sw.InitialPoolSize != 83 || peak != 128 {
			t.Errorf("SW pool %d against a naive peak of %d blocks, want 83 of 128", sw.InitialPoolSize, peak)
		}
		// Deriving would have been wrong: blocks found the pool empty.
		if sw.GPU.NonPIMBlocks == 0 {
			t.Error("every SW block took a token: the case no longer throttles")
		}
	})
	t.Run("old-ledger", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race runs keep to the dc/pagerank subset")
		}
		t.Parallel()
		p := TestProfile()
		wls := []string{"sssp-twc"}
		path := filepath.Join(t.TempDir(), "matrix.jsonl")
		l1, err := runner.OpenLedger(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
			Workloads: wls, Policies: []core.PolicyKind{core.NaiveOffloading}, Ledger: l1,
		}); err != nil {
			t.Fatal(err)
		}
		l1.Close()
		// Rewrite the naive entry as a build without the field wrote it.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		field := regexp.MustCompile(`,"PeakResidentBlocks":[0-9]+`)
		if n := len(field.FindAll(data, -1)); n != 1 {
			t.Fatalf("naive ledger entry holds %d PeakResidentBlocks fields, want 1", n)
		}
		if err := os.WriteFile(path, field.ReplaceAll(data, nil), 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := runner.OpenLedger(path, true)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		derived := map[string]bool{}
		var ledgered int
		if _, err := RunMatrixOpts(context.Background(), p, MatrixOpts{
			Workloads: wls, Policies: append([]core.PolicyKind{core.NaiveOffloading}, derivedKinds...), Ledger: l2,
			Progress: func(s string) {
				if strings.HasSuffix(s, "(derived)") {
					derived[strings.Fields(s)[1]] = true // the cell's policy
				}
			},
			OnRunDone: func(_ string, _ error, fromLedger bool) {
				if fromLedger {
					ledgered++
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{core.CoolPIMHW.String(): true, core.IdealThermal.String(): true}
		if ledgered != 1 || !maps.Equal(derived, want) {
			t.Errorf("resume: %d cells from the ledger, derived %v; want 1 and %v", ledgered, derived, want)
		}
	})
}
