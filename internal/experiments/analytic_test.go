package experiments

import (
	"context"
	"testing"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/thermal"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	want := [][2]int{{1, 5}, {5, 1}, {2, 1}, {2, 2}}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.ReqFlits != want[i][0] || r.RespFlits != want[i][1] {
			t.Errorf("row %q = %d/%d, want %d/%d", r.Type, r.ReqFlits, r.RespFlits, want[i][0], want[i][1])
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	wantR := []float64{4.0, 2.0, 0.5, 0.2}
	wantF := []float64{0, 1, 104, 380}
	for i, r := range rows {
		if float64(r.Resistance) != wantR[i] || r.FanPowerRel != wantF[i] {
			t.Errorf("row %d = %+v", i, r)
		}
	}
}

func TestTable3Complete(t *testing.T) {
	rows := Table3()
	if len(rows) != 10 {
		t.Fatalf("%d mappings", len(rows))
	}
	for _, r := range rows {
		if r.NonPIM == "" {
			t.Errorf("%s has no CUDA mapping", r.PIM)
		}
	}
}

// TestFig1Shape pins the prototype study's qualitative findings:
// passive-busy shuts down; better sinks are cooler; busy beats idle.
func TestFig1Shape(t *testing.T) {
	pts, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig1Point{}
	for _, p := range pts {
		key := p.Cooling
		if p.Busy {
			key += "/busy"
		} else {
			key += "/idle"
		}
		byKey[key] = p
	}
	if !byKey[thermal.Passive.Name+"/busy"].Shutdown {
		t.Error("passive busy prototype did not shut down")
	}
	if byKey[thermal.HighEndActive.Name+"/busy"].Shutdown {
		t.Error("high-end busy prototype shut down")
	}
	for _, c := range []string{thermal.Passive.Name, thermal.LowEndActive.Name, thermal.HighEndActive.Name} {
		if byKey[c+"/busy"].Surface <= byKey[c+"/idle"].Surface {
			t.Errorf("%s: busy not hotter than idle", c)
		}
	}
	if byKey[thermal.Passive.Name+"/idle"].Surface <= byKey[thermal.LowEndActive.Name+"/idle"].Surface {
		t.Error("passive idle not hotter than low-end idle")
	}
	// The modeled passive-idle surface must land near the paper's 71.1°C.
	got := float64(byKey[thermal.Passive.Name+"/idle"].Surface)
	if got < 64 || got > 78 {
		t.Errorf("passive idle surface = %.1f, want near 71.1", got)
	}
}

// TestFig2Validation: the modeled die temperature must sit within a few
// degrees of the estimate derived from the paper's measurement for the
// low-end sink (the paper's own validation criterion: "reasonable
// error").
func TestFig2Validation(t *testing.T) {
	rows, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		diff := float64(r.DieModeled - r.DieEstimated)
		if diff < 0 {
			diff = -diff
		}
		if diff > 13 {
			t.Errorf("%s: modeled %v vs estimated %v (Δ=%.1f)", r.Cooling, r.DieModeled, r.DieEstimated, diff)
		}
		if r.DieEstimated <= r.SurfaceMeasured {
			t.Errorf("%s: die estimate below surface", r.Cooling)
		}
	}
}

// TestFig3Shape: the stack cools upward (logic and lowest DRAM die are
// hottest) and the commodity full-BW peak sits near the paper's 81°C.
func TestFig3Shape(t *testing.T) {
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayerPeaks) != 9 {
		t.Fatalf("%d layers", len(res.LayerPeaks))
	}
	for l := 2; l < len(res.LayerPeaks); l++ {
		if res.LayerPeaks[l] > res.LayerPeaks[l-1]+0.01 {
			t.Errorf("layer %d hotter than layer %d", l, l-1)
		}
	}
	peak := float64(res.LayerPeaks[1])
	if peak < 75 || peak > 85 {
		t.Errorf("peak DRAM = %.1f, want near 81 (paper)", peak)
	}
}

// TestFig4Shape pins the bandwidth sweep: monotone in bandwidth,
// ordered by cooling, commodity endpoint ~81°C, passive crossing
// shutdown, high-end staying normal.
func TestFig4Shape(t *testing.T) {
	pts, err := Fig4(9)
	if err != nil {
		t.Fatal(err)
	}
	byCooling := map[string][]Fig4Point{}
	for _, p := range pts {
		byCooling[p.Cooling] = append(byCooling[p.Cooling], p)
	}
	for name, series := range byCooling {
		for i := 1; i < len(series); i++ {
			if series[i].PeakDRAM < series[i-1].PeakDRAM {
				t.Errorf("%s not monotone at %v", name, series[i].Bandwidth)
			}
		}
	}
	com := byCooling[thermal.CommodityServer.Name]
	last := com[len(com)-1]
	if got := float64(last.PeakDRAM); got < 77 || got > 84 {
		t.Errorf("commodity @320GB/s = %.1f, want ~81", got)
	}
	idle := float64(com[0].PeakDRAM)
	if idle < 30 || idle > 36 {
		t.Errorf("commodity idle = %.1f, want ~33", idle)
	}
	pass := byCooling[thermal.Passive.Name]
	if pass[len(pass)-1].Phase != dram.PhaseShutdown {
		t.Error("passive full-BW did not reach shutdown")
	}
	he := byCooling[thermal.HighEndActive.Name]
	if he[len(he)-1].PeakDRAM > dram.NormalLimit {
		t.Error("high-end full-BW left the normal range")
	}
}

// TestFig5Shape pins the PIM-rate sweep: monotone, endpoint near 105 °C
// at 6.5 op/ns, and a safe-rate threshold near the paper's 1.3 op/ns.
func TestFig5Shape(t *testing.T) {
	pts, err := Fig5(14)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].PeakDRAM < pts[i-1].PeakDRAM {
			t.Errorf("not monotone at %v", pts[i].PIMRate)
		}
	}
	end := float64(pts[len(pts)-1].PeakDRAM)
	if end < 100 || end > 108 {
		t.Errorf("peak at 6.5 op/ns = %.1f, want ~105", end)
	}
	rate, err := MaxSafePIMRate()
	if err != nil {
		t.Fatal(err)
	}
	thr := float64(rate)
	if thr < 0.9 || thr > 1.8 {
		t.Errorf("safe PIM rate = %.2f op/ns, want near 1.3", thr)
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{PaperProfile(), FullProfile(), QuickProfile(), TestProfile()} {
		if p.Scale < 10 || p.Reps < 1 || p.EdgeFactor < 1 {
			t.Errorf("profile %s misconfigured: %+v", p.Name, p)
		}
		if err := p.Sys.GPU.Validate(); err != nil {
			t.Errorf("profile %s GPU config: %v", p.Name, err)
		}
	}
	g := TestProfile().Graph()
	if g2 := TestProfile().Graph(); g2 != g {
		t.Error("graph cache miss for identical profile")
	}
}

// TestMatrixSmall runs a reduced matrix end to end (one workload, three
// policies) and checks the row helpers.
func TestMatrixSmall(t *testing.T) {
	p := TestProfile()
	pols := []core.PolicyKind{core.NonOffloading, core.NaiveOffloading, core.IdealThermal}
	rows, err := RunMatrixOpts(context.Background(), p, MatrixOpts{Workloads: []string{"dc"}, Policies: pols})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Workload != "dc" {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if s := r.Speedup(core.NonOffloading); s != 1 {
		t.Errorf("baseline self-speedup = %v", s)
	}
	if s := r.Speedup(core.IdealThermal); s <= 0 {
		t.Errorf("ideal speedup = %v", s)
	}
	if bw := r.NormBW(core.NaiveOffloading); bw <= 0 {
		t.Errorf("norm bw = %v", bw)
	}
	gm := GeoMean(rows, func(r Row) float64 { return r.Speedup(core.IdealThermal) })
	if gm != r.Speedup(core.IdealThermal) {
		t.Errorf("gmean of one row = %v", gm)
	}
	if len(SortedPolicies(r)) != 3 {
		t.Error("sorted policies wrong")
	}
}
