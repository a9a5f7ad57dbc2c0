// Command hmcprobe replays the paper's HMC 1.1 prototype study
// (Section III-A) on the thermal model: it sweeps link bandwidth under a
// chosen heat sink, reporting surface/die temperatures, operating phase,
// and the point at which the passive-cooled prototype thermally shuts
// down — the observation that motivates CoolPIM.
//
// With -cubes > 1 it instead probes the multi-cube interconnect: it
// wires N cubes into the selected topology, drives a deterministic
// page-striped read/write/PIM mix from every node, and reports per-cube
// counters and per-link FLIT occupancy.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"coolpim/internal/dram"
	"coolpim/internal/flit"
	"coolpim/internal/hmc"
	"coolpim/internal/mem"
	"coolpim/internal/power"
	"coolpim/internal/sim"
	"coolpim/internal/thermal"
	"coolpim/internal/units"
)

func main() {
	coolingName := flag.String("cooling", "all", "one of "+strings.Join(thermal.CoolingNames(), ", ")+", or all")
	maxBW := flag.Float64("maxbw", 60, "peak link data bandwidth to sweep to (GB/s)")
	steps := flag.Int("steps", 7, "sweep steps")
	cubes := flag.Int("cubes", 1, "probe a multi-cube network with this many cubes instead of the thermal sweep")
	topology := flag.String("topology", "chain", "inter-cube link topology: "+strings.Join(hmc.TopologyNames(), ", "))
	linkLatency := flag.Duration("link-latency", 0, "per-hop inter-cube link latency, simulated time (0 = built-in default)")
	shards := flag.Int("shards", 0, "engine shards: 0 = one per cube, 1 = every cube on the calling goroutine")
	reqs := flag.Int("reqs", 4096, "requests submitted per cube in the network probe")
	flag.Parse()

	if *cubes > 1 {
		os.Exit(networkProbe(*cubes, *topology, *linkLatency, *shards, *reqs))
	}

	if *maxBW <= 0 {
		fmt.Fprintf(os.Stderr, "-maxbw must be positive (got %g)\n", *maxBW)
		os.Exit(2)
	}
	if *steps < 2 {
		fmt.Fprintf(os.Stderr, "-steps must be at least 2 (got %d)\n", *steps)
		os.Exit(2)
	}

	var selected []thermal.Cooling
	if *coolingName == "all" {
		// The prototype study's three heat sinks (the paper's Fig. 1).
		selected = []thermal.Cooling{thermal.Passive, thermal.LowEndActive, thermal.HighEndActive}
	} else {
		c, err := thermal.ParseCooling(*coolingName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		selected = []thermal.Cooling{c}
	}

	fmt.Println("HMC 1.1 prototype thermal probe (4GB cube, 2 half-width links)")
	fmt.Println()
	for _, cool := range selected {
		fmt.Printf("== %s (%v)\n", cool.Name, cool.SinkResistance)
		fmt.Printf("%-12s %-10s %-10s %-22s\n", "BW (GB/s)", "surface", "die", "state")
		for i := 0; i < *steps; i++ {
			bw := units.GBps(*maxBW * float64(i) / float64(*steps-1))
			b := power.HMC11().Compute(power.Activity{ExternalBW: bw, InternalRegularBW: bw})
			m := thermal.New(thermal.HMC11Stack(), cool)
			m.AddLayerPower(0, b.LogicDie())
			per := b.DRAMStack() / units.Watt(float64(thermal.HMC11Stack().DRAMDies))
			for l := 1; l <= thermal.HMC11Stack().DRAMDies; l++ {
				m.AddLayerPower(l, per)
			}
			if m.SolveSteady() < 0 {
				fmt.Fprintf(os.Stderr, "hmcprobe: steady solve did not converge (%s, %.1f GB/s)\n",
					cool.Name, bw.GBps())
				os.Exit(1)
			}
			state := "ok"
			switch {
			case m.Peak() > 94:
				state = "THERMAL SHUTDOWN (data lost, ~20s recovery)"
			case dram.PhaseForTemp(m.PeakDRAM()) != dram.PhaseNormal:
				state = "extended range (derated)"
			}
			fmt.Printf("%-12.1f %-10.1f %-10.1f %-22s\n",
				bw.GBps(), float64(m.EstimatedSurface()), float64(m.Peak()), state)
		}
		fmt.Println()
	}
	fmt.Println("The paper's observation: with a passive heat sink the prototype cannot")
	fmt.Println("sustain peak bandwidth — it shuts down near an 85°C surface temperature.")
}

// networkProbe wires a multi-cube network and drives a deterministic
// request mix from every node: each cube submits `reqs` transactions
// (cycling read / write / PIM-add) at page-striped addresses, so a
// fixed share of the traffic crosses the inter-cube links. It reports
// per-cube counters and the FLIT occupancy of every directed link.
func networkProbe(cubes int, topology string, linkLat time.Duration, shards, reqs int) int {
	cfg, err := hmc.FlagConfig(cubes, topology,
		units.FromNanoseconds(float64(linkLat.Nanoseconds())), shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if reqs <= 0 {
		fmt.Fprintf(os.Stderr, "-reqs must be positive (got %d)\n", reqs)
		return 2
	}

	cl, err := sim.NewCluster(cfg.LinkLatency, cfg.Cubes)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cl.SetShards(cfg.Shards)
	net, err := hmc.NewNetwork(cl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	const spaceBytes = 1 << 20
	for i := 0; i < cfg.Cubes; i++ {
		space := mem.NewSpace(spaceBytes)
		net.AttachNode(i, hmc.New(cl.Domain(i), space, hmc.DefaultConfig()), space)
	}

	// Each done callback runs on its source node's domain, so the
	// per-node tallies need no synchronization.
	type tally struct {
		delivered int
		latSum    units.Time
	}
	tallies := make([]tally, cfg.Cubes)
	const spacing = 50 * units.Nanosecond
	for node := 0; node < cfg.Cubes; node++ {
		node := node
		state := uint64(node)*0x9E3779B97F4A7C15 + 0xDA3E39CB94B95BDB
		for j := 0; j < reqs; j++ {
			// SplitMix64-style step: deterministic, node-seeded.
			state += 0x9E3779B97F4A7C15
			mix := state
			mix = (mix ^ (mix >> 30)) * 0xBF58476D1CE4E5B9
			mix = (mix ^ (mix >> 27)) * 0x94D049BB133111EB
			mix ^= mix >> 31
			req := flit.Request{Addr: (mix % (spaceBytes / 64)) * 64}
			switch j % 3 {
			case 0:
				req.Cmd = flit.CmdRead64
			case 1:
				req.Cmd = flit.CmdWrite64
			default:
				req.Cmd = flit.CmdPIMSignedAdd
				req.Imm = 1
			}
			at := units.Time(j+1) * spacing
			cl.Domain(node).At(at, func(now units.Time) {
				net.Submit(node, now, req, func(_ flit.Response, done units.Time) {
					tallies[node].delivered++
					tallies[node].latSum += done - now
				})
			})
		}
	}
	end := cl.RunUntil(units.Time(reqs+1)*spacing + 100*units.Microsecond)

	fmt.Printf("multi-cube network probe: %d cubes, %s topology, %v links (%g GB/s), %d reqs/cube\n",
		cfg.Cubes, cfg.Topology, cfg.LinkLatency, cfg.LinkGBps, reqs)
	fmt.Printf("drained at %v\n\n", end)

	fmt.Println("per-cube counters:")
	fmt.Printf("%-5s %-8s %-8s %-8s %-10s %-11s %-11s %-12s\n",
		"cube", "reads", "writes", "pimops", "req-flits", "resp-flits", "ext-bytes", "avg-lat")
	for i := 0; i < cfg.Cubes; i++ {
		c := net.Node(i).Counters()
		tl := tallies[i]
		if tl.delivered != reqs {
			fmt.Fprintf(os.Stderr, "cube %d: %d of %d requests delivered\n", i, tl.delivered, reqs)
			return 1
		}
		avg := tl.latSum / units.Time(tl.delivered)
		fmt.Printf("%-5d %-8d %-8d %-8d %-10d %-11d %-11d %-12v\n",
			i, c.Reads, c.Writes, c.PIMOps, c.ReqFlits, c.RespFlits, c.ExtDataBytes, avg)
	}

	fmt.Println("\ninter-cube link FLIT occupancy:")
	fmt.Printf("%-8s %-9s %-9s %-11s %-14s\n", "link", "packets", "flits", "bytes", "avg-queue")
	for _, ls := range net.Links() {
		avgQ := units.Time(0)
		if ls.Counters.Packets > 0 {
			avgQ = ls.QueueSum / units.Time(ls.Counters.Packets)
		}
		fmt.Printf("%d->%-5d %-9d %-9d %-11d %-14v\n",
			ls.Src, ls.Dst, ls.Counters.Packets, ls.Counters.Flits, ls.Counters.Bytes, avgQ)
	}
	return 0
}
