package experiments

import (
	"encoding/json"
	"fmt"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/hmc"
	"coolpim/internal/kernels"
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
// covers all ten workloads (HW and IdealThermal derive everywhere, SW
// where the Eq. 1 pool is 256); the adaptive tier and a 2-cube chain
// cover a subset, as does the multi-level HW extension. With the
// warning threshold just above ambient, the naive run draws warnings
// it ignores: only IdealThermal derives.
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
		{"exact", TestProfile(), kernels.Names(), 26},
		{"adaptive", adaptive, subset, 6},
		{"chain2", MultiCubeProfile(TestProfile(), net), subset, 6},
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
						for _, kind := range derivedKinds {
							got, ok := deriveCell(newSized, tc.p, wl, kind, naive)
							if !ok {
								continue
							}
							derived[i]++
							sameBytes(t, wl+"/"+kind.String(), got, mustCell(t, tc.p, wl, kind))
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
// simulated, not derived — every controlled policy on a naive run hot
// enough to warn and derate, and SW on sssp-twc, whose Eq. 1 pool (163)
// is below the 256 blocks the GPU holds.
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
		naive := mustCell(t, p, "sssp-twc", core.NaiveOffloading)
		if _, ok := deriveCell(newSized, p, "sssp-twc", core.CoolPIMHW, naive); !ok {
			t.Fatalf("HW not derived from a cool naive run (peak %v)", naive.PeakDRAM)
		}
		if _, ok := deriveCell(newSized, p, "sssp-twc", core.CoolPIMSW, naive); ok {
			t.Error("SW derived although its Eq. 1 pool is below the GPU's block capacity")
		}
		sw := mustCell(t, p, "sssp-twc", core.CoolPIMSW)
		if blocks := p.Sys.GPU.NumSMs * p.Sys.GPU.MaxBlocksPerSM; sw.InitialPoolSize != 163 || blocks != 256 {
			t.Errorf("SW pool %d of %d blocks, want 163 of 256", sw.InitialPoolSize, blocks)
		}
	})
}
