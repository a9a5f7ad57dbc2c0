// Command coolpim-sim runs one graph workload on the simulated GPU+HMC
// platform under a chosen offloading policy and prints the run's
// statistics — the single-experiment front end to the full system model.
//
// -series-out writes the run's time series as CSV: one row per sample
// window, the last ending at the run's end or shutdown, merged across
// the cubes of a multi-cube run. It switches no telemetry on, and the
// file is the same with or without the telemetry flags.
//
// With any of the telemetry flags set the run records the observability
// layer's outputs: -spans-out writes the run's one event stream as JSONL
// (the hierarchical span tree plus, beside it, one typed zero-duration
// instant per control-loop event: thermal warnings, derating phase
// changes, token-pool resizes, offload decisions, link backpressure),
// -trace-chrome renders the same stream as Chrome/Perfetto trace_event
// JSON (open in https://ui.perfetto.dev), and -metrics-out dumps the
// metrics registry in Prometheus text format. A human-readable
// telemetry summary table is printed after the run statistics.
//
// The live observability plane adds -flight-out (flight-recorder ring
// dump; also written on panic or SIGQUIT) and -diag-addr, which serves
// /metrics, /healthz, /spans and /debug/pprof over HTTP while the run
// executes (-diag-hold keeps the server up after the run finishes).
//
// Example:
//
//	coolpim-sim -workload pagerank -policy coolpim-hw -scale 15 -cooling commodity \
//	    -spans-out spans.jsonl -metrics-out metrics.prom \
//	    -diag-addr 127.0.0.1:8787 -trace-chrome trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"coolpim/internal/core"
	"coolpim/internal/experiments"
	"coolpim/internal/graph"
	"coolpim/internal/kernels"
	"coolpim/internal/specflag"
	"coolpim/internal/system"
	"coolpim/internal/telemetry"
	"coolpim/internal/telemetry/diagserver"
	"coolpim/internal/units"
)

func main() {
	// Workload, graph, cooling, thermal-tier and network selection come
	// from the shared spec flag groups (see internal/specflag), so this
	// CLI accepts and rejects exactly the same run descriptions as the
	// campaign front ends and the coolpim-serve JSON API; the telemetry
	// export flags stay local.
	binder := specflag.New()
	binder.SingleRun(flag.CommandLine)
	binder.Cooling(flag.CommandLine)
	binder.Thermal(flag.CommandLine)
	binder.Network(flag.CommandLine)
	metricsOut := flag.String("metrics-out", "", "write the metrics registry in Prometheus text format to this file")
	seriesOut := flag.String("series-out", "", "write the run's time series as CSV to this file")
	spansOut := flag.String("spans-out", "", "write the event stream (spans and instants) as JSONL to this file")
	traceChrome := flag.String("trace-chrome", "", "write a Chrome/Perfetto trace_event JSON file (open in ui.perfetto.dev)")
	flightOut := flag.String("flight-out", "", "write the flight-recorder ring to this file (also dumped on panic or SIGQUIT)")
	diagAddr := flag.String("diag-addr", "", "serve live diagnostics over HTTP on this address (e.g. 127.0.0.1:8787 or 127.0.0.1:0)")
	diagHold := flag.Duration("diag-hold", 0, "keep the diagnostics server up this long after the run completes")
	flag.Parse()

	spec, err := binder.Spec()
	if err != nil {
		fatalf("%v", err)
	}
	prof, err := spec.BuildProfile()
	if err != nil {
		fatalf("%v", err)
	}
	cfg := prof.Sys
	workload, policy := spec.Workloads[0], spec.Policies[0]
	pol, err := core.ParsePolicy(policy)
	if err != nil {
		fatalf("%v", err)
	}
	cool := cfg.Cooling

	var tel *telemetry.Telemetry
	if *metricsOut != "" || *spansOut != "" ||
		*traceChrome != "" || *flightOut != "" || *diagAddr != "" {
		tel = telemetry.New()
		cfg.Telemetry = tel
		tel.Spans.SetWallClock(func() int64 { return time.Now().UnixNano() })
		tel.RunID = fmt.Sprintf("%s/%s", workload, policy)
	}
	if tel.Enabled() && (*flightOut != "" || *diagAddr != "") {
		tel.Flight = telemetry.NewFlightRecorder(0)
	}

	var diag *diagserver.Server
	if *diagAddr != "" {
		var err error
		diag, err = diagserver.New(*diagAddr)
		if err != nil {
			fatalf("diag: %v", err)
		}
		defer diag.Close()
		tel.Sink = diag
		fmt.Printf("diag: serving on http://%s (endpoints: /metrics /healthz /spans /debug/pprof)\n", diag.Addr())
	}

	// A wedged or crashing run should still ship its evidence: SIGQUIT
	// dumps the flight ring without killing the process state first, and
	// a panic dumps it before the stack unwinds past main.
	if tel.Enabled() && tel.Flight != nil {
		flightPath := *flightOut
		if flightPath == "" {
			flightPath = "coolpim-sim.flight.jsonl"
		}
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				if err := tel.Flight.DumpFile(flightPath); err == nil {
					fmt.Fprintf(os.Stderr, "flight: dumped ring to %s (SIGQUIT)\n", flightPath)
				}
			}
		}()
		defer func() {
			if r := recover(); r != nil {
				if err := tel.Flight.DumpFile(flightPath); err == nil {
					fmt.Fprintf(os.Stderr, "flight: dumped ring to %s (panic)\n", flightPath)
				}
				panic(r)
			}
		}()
	}

	fmt.Printf("generating LDBC-like RMAT graph: scale=%d ef=%d seed=%d\n", prof.Scale, prof.EdgeFactor, prof.Seed)
	g := graph.GenRMAT(prof.Scale, prof.EdgeFactor, graph.LDBCLikeParams(), prof.Seed)
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumV, g.NumE())

	ws := make([]kernels.Workload, cfg.Net.Nodes())
	for i := range ws {
		w, err := kernels.NewSized(workload, prof.Reps)
		if err != nil {
			fatalf("%v", err)
		}
		ws[i] = w
	}
	if cfg.Net.Enabled() {
		fmt.Printf("running %s under %v with %s on %d %s-linked cubes...\n\n",
			ws[0].Name(), pol, cool.Name, cfg.Net.Cubes, cfg.Net.Topology)
	} else {
		fmt.Printf("running %s under %v with %s...\n\n", ws[0].Name(), pol, cool.Name)
	}
	res, err := system.RunWorkloads(ws, pol, cfg, g)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run failed:", err)
		os.Exit(1)
	}
	printResult(res)

	writeExport(*seriesOut, "series", func(w io.Writer) error { return system.WriteSeriesCSV(w, res.Series) })
	if tel.Enabled() {
		fmt.Println("\ntelemetry summary:")
		tel.WriteSummary(os.Stdout)
		writeExport(*metricsOut, "metrics", tel.Registry.WritePrometheus)
		writeExport(*spansOut, "spans", tel.Spans.WriteJSONL)
		writeExport(*traceChrome, "chrome trace", func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, tel.Spans.Export())
		})
		if *flightOut != "" {
			writeExport(*flightOut, "flight ring", tel.Flight.WriteJSONL)
		}
	}

	if diag != nil && *diagHold > 0 {
		fmt.Printf("diag: holding server for %v (ctrl-c to stop early)\n", *diagHold)
		hold := time.NewTimer(*diagHold)
		intr := make(chan os.Signal, 1)
		signal.Notify(intr, os.Interrupt)
		select {
		case <-hold.C:
		case <-intr:
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// writeExport dumps one telemetry exporter to path (no-op when the flag
// was left empty).
func writeExport(path, what string, write func(w io.Writer) error) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", what, err)
		os.Exit(1)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", what, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s to %s\n", what, path)
}

func printResult(r *system.Result) {
	fmt.Printf("workload:          %s\n", r.Workload)
	fmt.Printf("policy:            %v\n", r.Policy)
	fmt.Printf("cooling:           %s\n", r.Cooling)
	fmt.Printf("simulated runtime: %v  (%d kernel launches)\n", r.Runtime, r.Launches)
	fmt.Printf("avg PIM rate:      %v  (%d PIM ops)\n", r.AvgPIMRate, r.PIMOps)
	fmt.Printf("avg external BW:   %v\n", r.AvgExtBW)
	fmt.Printf("peak DRAM temp:    %s\n", experiments.FmtCelsius(r.PeakDRAM))
	fmt.Printf("thermal warnings:  %d observed, %d control updates\n", r.WarningsSeen, r.ControlUpdates)
	if r.InitialPoolSize >= 0 {
		fmt.Printf("throttle state:    %d -> %d\n", r.InitialPoolSize, r.FinalPoolSize)
	}
	g := r.GPU
	fmt.Printf("warp ops:          %d (divergence ratio %.2f)\n", g.WarpOps, g.DivergenceRatio())
	fmt.Printf("atomics:           %d PIM lanes, %d host lanes\n", g.PIMLaneOps, g.HostLaneOps)
	fmt.Printf("blocks:            %d PIM, %d non-PIM\n", g.PIMBlocks, g.NonPIMBlocks)
	if len(r.PerCube) > 0 {
		fmt.Printf("\nper-cube results (%d cubes):\n", len(r.PerCube))
		fmt.Printf("%-6s %-14s %-9s %-10s %-12s %-9s %-6s %-9s\n",
			"cube", "runtime", "launches", "pim ops", "ext bytes", "peak(°C)", "warns", "shutdown")
		for _, pc := range r.PerCube {
			fmt.Printf("%-6d %-14v %-9d %-10d %-12d %-9.1f %-6d %-9v\n",
				pc.Node, pc.Runtime, pc.Launches, pc.PIMOps, pc.ExtDataBytes,
				float64(pc.PeakDRAM), pc.WarningsSeen, pc.Shutdown)
		}
	}
	if len(r.Links) > 0 {
		fmt.Println("\ninter-cube link FLIT occupancy:")
		fmt.Printf("%-8s %-10s %-10s %-12s %-14s\n", "link", "packets", "flits", "bytes", "avg queue")
		for _, ls := range r.Links {
			avgQ := units.Time(0)
			if ls.Counters.Packets > 0 {
				avgQ = ls.QueueSum / units.Time(ls.Counters.Packets)
			}
			fmt.Printf("%d->%-5d %-10d %-10d %-12d %-14v\n",
				ls.Src, ls.Dst, ls.Counters.Packets, ls.Counters.Flits, ls.Counters.Bytes, avgQ)
		}
	}
	if r.Shutdown {
		fmt.Println("STATUS:            THERMAL SHUTDOWN — the cube exceeded 105°C")
	} else if r.VerifyErr != nil {
		fmt.Printf("STATUS:            VERIFICATION FAILED: %v\n", r.VerifyErr)
	} else {
		fmt.Println("STATUS:            completed, results verified against sequential reference")
	}
}
