// Command figures regenerates every table and figure of the CoolPIM
// paper's evaluation and prints them as text tables.
//
// Usage:
//
//	figures -exp table1|table2|table3|table4|fig1|fig2|fig3|fig4|fig5
//	figures -exp fig10|fig11|fig12|fig13|fig14   [-profile paper|full|quick]
//	                                              [-ledger runs.jsonl [-resume]]
//	figures -all                                  (everything; the system
//	                                               figures take minutes)
//	figures -analytic                             (tables + figs 1-5 only)
//
// Fig. 14 plots three cells of the Figs. 10-13 matrix; asked for alone,
// it runs just those cells, on the same ledger and diagnostics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/dram"
	"coolpim/internal/experiments"
	"coolpim/internal/runner"
	"coolpim/internal/specflag"
	"coolpim/internal/system"
	"coolpim/internal/telemetry"
	"coolpim/internal/telemetry/diagserver"
	"coolpim/internal/units"
)

func main() {
	// Platform, thermal-tier and network selection come from the shared
	// spec flag groups (see internal/specflag), so figures accepts and
	// rejects exactly the same platform descriptions as the other front
	// ends; the figure/experiment selection flags stay local.
	binder := specflag.New()
	binder.Profile(flag.CommandLine)
	binder.Thermal(flag.CommandLine)
	binder.Network(flag.CommandLine)
	exp := flag.String("exp", "", "experiment id (table1..table4, fig1..fig5, fig10..fig14)")
	all := flag.Bool("all", false, "run everything")
	analytic := flag.Bool("analytic", false, "run the analytic tables and figures only")
	verbose := flag.Bool("v", false, "print per-run progress")
	ledgerPath := flag.String("ledger", "", "JSONL run ledger for the system matrix (checkpointing)")
	resume := flag.Bool("resume", false, "reuse completed matrix runs from the ledger (requires -ledger)")
	diagAddr := flag.String("diag-addr", "", "serve live matrix diagnostics over HTTP on this address")
	flag.Parse()

	if *resume && *ledgerPath == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -ledger")
		os.Exit(2)
	}

	spec, err := binder.Spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Folded into the profile name and config hash: multi-cube figure
	// runs are ledgered and reported separately from single-cube ones.
	prof, err := spec.BuildProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	analyticIDs := []string{"table1", "table2", "table3", "table4", "fig1", "fig2", "fig3", "fig4", "fig5"}
	systemIDs := []string{"fig10", "fig11", "fig12", "fig13", "fig14", "ablations"}

	var ids []string
	switch {
	case *all:
		ids = append(analyticIDs, systemIDs...)
	case *analytic:
		ids = analyticIDs
	case *exp != "":
		ids = strings.Split(*exp, ",")
	default:
		fmt.Fprintln(os.Stderr, "specify -exp <id>, -analytic, or -all")
		os.Exit(2)
	}

	// The Fig. 10-13 matrix is shared across those figures, and Fig. 14
	// plots three cells of its Fig14Workload row: run it once. Fig. 14
	// alone runs just those three cells.
	var rows []experiments.Row
	var opts experiments.MatrixOpts
	full, fig14 := false, false
	for _, id := range ids {
		switch id {
		case "fig10", "fig11", "fig12", "fig13":
			full = true
		case "fig14":
			fig14 = true
		}
	}
	if !full && fig14 {
		opts.Workloads = []string{experiments.Fig14Workload}
		opts.Policies = fig14Policies()
	}
	if full || fig14 {
		if full {
			fmt.Printf("## running %s-profile system matrix (10 workloads × 5 configs; this takes a while)\n\n", prof.Name)
		}
		progress := func(string) {}
		if *verbose {
			progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
		}
		var ledger *runner.Ledger
		if *ledgerPath != "" {
			var err error
			ledger, err = runner.OpenLedger(*ledgerPath, *resume)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ledger:", err)
				os.Exit(1)
			}
			defer ledger.Close()
		}
		// Rows reassemble in matrix order, so the output does not depend
		// on the worker count.
		opts.Parallel = runtime.GOMAXPROCS(0)
		opts.Ledger = ledger
		opts.Progress = progress
		if *diagAddr != "" {
			diag, err := diagserver.New(*diagAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "diag:", err)
				os.Exit(1)
			}
			defer diag.Close()
			tel := telemetry.New()
			tel.Spans.SetWallClock(func() int64 { return time.Now().UnixNano() })
			tel.Sink = diag
			tel.RunID = "figures/" + prof.Name
			opts.Telemetry = tel
			fmt.Fprintf(os.Stderr, "diag: serving on http://%s (endpoints: /metrics /healthz /runs /spans /debug/pprof)\n", diag.Addr())
			opts.OnRunStart = func(key string, attempt int) { diag.Runs().Started(key, attempt) }
			opts.OnRunDone = func(key string, err error, fromLedger bool) {
				diag.Runs().Finished(key, err, fromLedger, 0)
				tel.Publish(0)
			}
		}
		var err error
		rows, err = experiments.RunMatrixOpts(context.Background(), prof, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "matrix failed:", err)
			os.Exit(1)
		}
	}

	for _, id := range ids {
		switch id {
		case "table1":
			printTable1()
		case "table2":
			printTable2()
		case "table3":
			printTable3()
		case "table4":
			printTable4(prof)
		case "fig1":
			check(printFig1())
		case "fig2":
			check(printFig2())
		case "fig3":
			check(printFig3())
		case "fig4":
			check(printFig4())
		case "fig5":
			check(printFig5())
		case "fig10":
			printFig10(rows)
		case "fig11":
			printFig11(rows)
		case "fig12":
			printFig12(rows)
		case "fig13":
			printFig13(rows)
		case "fig14":
			printFig14(rows)
		case "ablations":
			printAblations(prof)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			os.Exit(2)
		}
	}
}

func printTable1() {
	fmt.Println("## Table I — HMC memory transaction bandwidth requirement (FLIT size: 128-bit)")
	fmt.Printf("%-28s %-10s %-10s\n", "Type", "Request", "Response")
	for _, r := range experiments.Table1() {
		fmt.Printf("%-28s %-10d %-10d\n", r.Type, r.ReqFlits, r.RespFlits)
	}
	fmt.Println()
}

func printTable2() {
	fmt.Println("## Table II — typical cooling types")
	fmt.Printf("%-36s %-18s %-12s %s\n", "Type", "Thermal Resistance", "Fan (rel.)", "Fan (abs.)")
	for _, r := range experiments.Table2() {
		fmt.Printf("%-36s %-18v %-12.0f %v\n", r.Type, r.Resistance, r.FanPowerRel, r.FanPower)
	}
	fmt.Println()
}

func printTable3() {
	fmt.Println("## Table III — PIM instruction mapping")
	fmt.Printf("%-12s %-18s %s\n", "Class", "PIM instruction", "Non-PIM (CUDA)")
	for _, r := range experiments.Table3() {
		fmt.Printf("%-12s %-18s %s\n", r.Class, r.PIM, r.NonPIM)
	}
	fmt.Println()
}

func printTable4(prof experiments.Profile) {
	cfg := prof.Sys
	fmt.Println("## Table IV — performance evaluation configuration")
	fmt.Printf("Host      GPU, %d SMs, 32 threads/warp, %.1fGHz\n", cfg.GPU.NumSMs, cfg.GPU.ClockGHz)
	fmt.Printf("          %dKB private L1D, %dKB %d-way L2 cache\n",
		cfg.GPU.L1.SizeBytes>>10, cfg.GPU.L2.SizeBytes>>10, cfg.GPU.L2.Ways)
	fmt.Printf("HMC       8GB cube, 1 logic die, 8 DRAM dies, %d vaults, %d banks\n",
		cfg.HMC.Vaults, cfg.HMC.Vaults*cfg.HMC.BanksPerVault)
	t := cfg.HMC.Timing
	fmt.Printf("          tCL=tRCD=tRP=%v, tRAS=%v\n", t.TCL, t.TRAS)
	fmt.Printf("          %d links per package, %.0fGB/s per link\n",
		cfg.HMC.Links, 2*cfg.HMC.LinkDirGBps)
	fmt.Printf("DRAM      temp phases: 0-85°C, 85-95°C, 95-105°C; 20%% freq reduction per high phase\n")
	fmt.Printf("Benchmark GraphBIG workloads, LDBC-like RMAT graph (scale %d, 2^%d vertices, ~%d edges)\n",
		prof.Scale, prof.Scale, prof.EdgeFactor*(1<<prof.Scale))
	fmt.Println()
}

// check aborts on an analytic-sweep failure (a non-converged steady
// solve) instead of printing a half-relaxed figure.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func printFig1() error {
	fmt.Println("## Fig. 1 — HMC 1.1 prototype thermal evaluation (surface temperatures)")
	fmt.Printf("%-28s %-6s %-14s %-12s %-18s %s\n", "Cooling", "State", "Model surface", "Model die", "Paper surface", "Shutdown?")
	pts, err := experiments.Fig1()
	if err != nil {
		return err
	}
	for _, p := range pts {
		state := "idle"
		if p.Busy {
			state = "busy"
		}
		shut := ""
		if p.Shutdown {
			shut = "SHUTDOWN (cannot sustain full bandwidth)"
		}
		fmt.Printf("%-28s %-6s %-14s %-12s %-18s %s\n",
			p.Cooling, state, experiments.FmtCelsius(p.Surface),
			experiments.FmtCelsius(p.Die), experiments.FmtCelsius(p.PaperSurface), shut)
	}
	fmt.Println()
	return nil
}

func printFig2() error {
	fmt.Println("## Fig. 2 — thermal model validation (busy HMC 1.1)")
	fmt.Printf("%-28s %-18s %-16s %s\n", "Cooling", "Surface (measured)", "Die (estimated)", "Die (modeled)")
	rows, err := experiments.Fig2()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%-28s %-18s %-16s %s\n", r.Cooling,
			experiments.FmtCelsius(r.SurfaceMeasured),
			experiments.FmtCelsius(r.DieEstimated),
			experiments.FmtCelsius(r.DieModeled))
	}
	fmt.Println()
	return nil
}

func printFig3() error {
	res, err := experiments.Fig3()
	if err != nil {
		return err
	}
	fmt.Println("## Fig. 3 — heat map at full bandwidth, commodity-server cooling")
	fmt.Println("Per-layer peaks (bottom to top):")
	for l, p := range res.LayerPeaks {
		name := fmt.Sprintf("DRAM die %d", l)
		if l == 0 {
			name = "logic die"
		}
		fmt.Printf("  %-12s %s\n", name, experiments.FmtCelsius(p))
	}
	fmt.Println("Logic-layer map (°C per vault cell):")
	for _, row := range res.LogicMap {
		for _, c := range row {
			fmt.Printf(" %6.1f", float64(c))
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}

func printFig4() error {
	fmt.Println("## Fig. 4 — peak DRAM temperature vs data bandwidth")
	pts, err := experiments.Fig4(9)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s", "BW (GB/s)")
	headers := []string{"Passive", "Low-end", "Commodity", "High-end"}
	for _, h := range headers {
		fmt.Printf(" %-12s", h)
	}
	fmt.Println()
	// Points are grouped by cooling; re-index by bandwidth.
	byBW := map[int][]string{}
	var order []int
	for _, p := range pts {
		key := int(p.Bandwidth.GBps())
		if _, ok := byBW[key]; !ok {
			order = append(order, key)
		}
		cell := experiments.FmtCelsius(p.PeakDRAM)
		if p.Phase == dram.PhaseShutdown {
			cell += "(X)"
		}
		byBW[key] = append(byBW[key], cell)
	}
	seen := map[int]bool{}
	for _, bw := range order {
		if seen[bw] {
			continue
		}
		seen[bw] = true
		fmt.Printf("%-14d", bw)
		for _, c := range byBW[bw] {
			fmt.Printf(" %-12s", c)
		}
		fmt.Println()
	}
	fmt.Println("(X) = beyond the 105°C operating limit (thermal shutdown)")
	fmt.Println()
	return nil
}

func printFig5() error {
	fmt.Println("## Fig. 5 — thermal impact of PIM offloading (full BW, commodity cooling)")
	fmt.Printf("%-14s %-10s %s\n", "PIM (op/ns)", "Peak DRAM", "Phase")
	pts, err := experiments.Fig5(14)
	if err != nil {
		return err
	}
	for _, p := range pts {
		fmt.Printf("%-14.1f %-10s %v\n", float64(p.PIMRate), experiments.FmtCelsius(p.PeakDRAM), p.Phase)
	}
	thr, err := experiments.MaxSafePIMRate()
	if err != nil {
		return err
	}
	fmt.Printf("max safe rate (<=85°C): %v (paper: 1.3 op/ns)\n\n", thr)
	return nil
}

func matrixHeader() []core.PolicyKind {
	return []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW, core.IdealThermal}
}

func printFig10(rows []experiments.Row) {
	fmt.Println("## Fig. 10 — speedup over the non-offloading baseline")
	fmt.Printf("%-10s", "workload")
	for _, k := range matrixHeader() {
		fmt.Printf(" %-18v", k)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", r.Workload)
		for _, k := range matrixHeader() {
			fmt.Printf(" %-18.3f", r.Speedup(k))
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "gmean")
	for _, k := range matrixHeader() {
		k := k
		fmt.Printf(" %-18.3f", experiments.GeoMean(rows, func(r experiments.Row) float64 { return r.Speedup(k) }))
	}
	fmt.Println()
	fmt.Println()
}

func printFig11(rows []experiments.Row) {
	fmt.Println("## Fig. 11 — bandwidth consumption normalized to non-offloading")
	fmt.Printf("%-10s", "workload")
	for _, k := range matrixHeader() {
		fmt.Printf(" %-18v", k)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", r.Workload)
		for _, k := range matrixHeader() {
			fmt.Printf(" %-18.3f", r.NormBW(k))
		}
		fmt.Println()
	}
	fmt.Println()
}

func printFig12(rows []experiments.Row) {
	fmt.Println("## Fig. 12 — average PIM offloading rate (op/ns)")
	pols := []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW}
	fmt.Printf("%-10s", "workload")
	for _, k := range pols {
		fmt.Printf(" %-18v", k)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", r.Workload)
		for _, k := range pols {
			fmt.Printf(" %-18.2f", float64(r.Results[k].AvgPIMRate))
		}
		fmt.Println()
	}
	fmt.Println()
}

func printFig13(rows []experiments.Row) {
	fmt.Println("## Fig. 13 — peak DRAM temperature (°C)")
	pols := []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW}
	fmt.Printf("%-10s", "workload")
	for _, k := range pols {
		fmt.Printf(" %-18v", k)
	}
	fmt.Println()
	for _, r := range rows {
		fmt.Printf("%-10s", r.Workload)
		for _, k := range pols {
			fmt.Printf(" %-18.1f", float64(r.Results[k].PeakDRAM))
		}
		fmt.Println()
	}
	fmt.Println()
}

func printAblationPoints(title string, pts []experiments.AblationPoint) {
	fmt.Printf("### %s\n", title)
	fmt.Printf("%-28s %-9s %-11s %-10s %-8s %s\n", "variant", "speedup", "PIM rate", "peak temp", "updates", "shutdown")
	for _, p := range pts {
		shut := ""
		if p.Shutdown {
			shut = "SHUTDOWN"
		}
		fmt.Printf("%-28s %-9.3f %-11.2f %-10.1f %-8d %s\n",
			p.Label, p.Speedup, float64(p.PIMRate), float64(p.PeakDRAM), p.Updates, shut)
	}
	fmt.Println()
}

func printAblations(prof experiments.Profile) {
	fmt.Println("## Ablations — CoolPIM design-parameter sweeps (dc workload)")
	type study struct {
		title string
		run   func() ([]experiments.AblationPoint, error)
	}
	studies := []study{
		{"HW-DynT control factor (Section IV-B trade-off)", func() ([]experiments.AblationPoint, error) {
			return experiments.AblationControlFactor(prof, "dc", []int{2, 8, 16, 48})
		}},
		{"Delayed control updates: settle window (Section IV-C)", func() ([]experiments.AblationPoint, error) {
			return experiments.AblationSettleTime(prof, "dc", []units.Time{
				100 * units.Microsecond, 500 * units.Microsecond, units.Millisecond, 4 * units.Millisecond})
		}},
		{"SW-DynT Eq.1 margin (paper uses 4)", func() ([]experiments.AblationPoint, error) {
			return experiments.AblationMargin(prof, "dc", []int{0, 4, 16, 64})
		}},
		{"Cooling solution sensitivity (naive offloading)", func() ([]experiments.AblationPoint, error) {
			return experiments.AblationCooling(prof, "dc")
		}},
		{"Multi-level thermal warnings (footnote-4 extension)", func() ([]experiments.AblationPoint, error) {
			return experiments.AblationMultiLevel(prof, "dc")
		}},
	}
	for _, st := range studies {
		pts, err := st.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", st.title, err)
			continue
		}
		printAblationPoints(st.title, pts)
	}
}

// fig14Policies are the policies Fig. 14 plots, in column order.
func fig14Policies() []core.PolicyKind {
	return []core.PolicyKind{core.NaiveOffloading, core.CoolPIMSW, core.CoolPIMHW}
}

// printFig14 prints the PIM-rate series of the Fig14Workload row's
// naive, SW and HW cells. It fails when a cell has no series, as a cell
// resumed from a ledger entry written without one has.
func printFig14(rows []experiments.Row) {
	pols := fig14Policies()
	series := make([][]system.Sample, len(pols))
	for _, r := range rows {
		if r.Workload != experiments.Fig14Workload {
			continue
		}
		for j, p := range pols {
			series[j] = r.Results[p].Series
		}
	}
	for j, p := range pols {
		if len(series[j]) == 0 {
			fmt.Fprintf(os.Stderr, "fig14: %s/%v has no time series (a ledger entry recorded without one?)\n",
				experiments.Fig14Workload, p)
			os.Exit(1)
		}
	}
	fmt.Printf("## Fig. 14 — PIM rate over time (%s; paper uses bfs-ta, see EXPERIMENTS.md)\n", experiments.Fig14Workload)
	fmt.Printf("%-12s %-14s %-14s %-14s\n", "t (ms)", "Naive", "CoolPIM(SW)", "CoolPIM(HW)")
	maxLen := 0
	for _, s := range series {
		maxLen = max(maxLen, len(s))
	}
	for i := 0; i < maxLen; i++ {
		var t units.Time
		cells := make([]string, len(pols))
		for j, s := range series {
			if i < len(s) {
				t = s[i].At
				cells[j] = fmt.Sprintf("%.2f", float64(s[i].PIMRate))
			} else {
				cells[j] = "-"
			}
		}
		fmt.Printf("%-12.2f %-14s %-14s %-14s\n", t.Milliseconds(), cells[0], cells[1], cells[2])
	}
	fmt.Println()
}
