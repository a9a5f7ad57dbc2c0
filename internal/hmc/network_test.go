package hmc

import (
	"testing"

	"coolpim/internal/flit"
	"coolpim/internal/mem"
	"coolpim/internal/sim"
	"coolpim/internal/units"
)

func TestParseTopology(t *testing.T) {
	for _, name := range TopologyNames() {
		if _, err := ParseTopology(name); err != nil {
			t.Errorf("ParseTopology(%q): %v", name, err)
		}
	}
	if topo, err := ParseTopology("RING"); err != nil || topo != TopoRing {
		t.Errorf("case-insensitive parse: %v %v", topo, err)
	}
	if _, err := ParseTopology("torus"); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestNetworkConfigValidate(t *testing.T) {
	ok := DefaultNetworkConfig()
	ok.Cubes = 4
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultNetworkConfig().Validate() != nil {
		t.Error("disabled config must validate")
	}
	for _, mut := range []func(*NetworkConfig){
		func(c *NetworkConfig) { c.LinkLatency = 0 },
		func(c *NetworkConfig) { c.LinkGBps = 0 },
		func(c *NetworkConfig) { c.InterleaveShift = 3 },
		func(c *NetworkConfig) { c.Shards = -1 },
		func(c *NetworkConfig) { c.Topology = "torus" },
		func(c *NetworkConfig) { c.Topology = TopoRing; c.Cubes = 2 },
	} {
		bad := DefaultNetworkConfig()
		bad.Cubes = 4
		mut(&bad)
		if bad.Validate() == nil {
			t.Errorf("invalid config accepted: %+v", bad)
		}
	}
}

func TestMeshDims(t *testing.T) {
	cases := []struct{ n, r, c int }{{4, 2, 2}, {6, 2, 3}, {9, 3, 3}, {8, 2, 4}, {5, 1, 5}, {12, 3, 4}}
	for _, tc := range cases {
		if r, c := meshDims(tc.n); r != tc.r || c != tc.c {
			t.Errorf("meshDims(%d) = %dx%d, want %dx%d", tc.n, r, c, tc.r, tc.c)
		}
	}
}

// buildNet wires a cluster + network + cubes for topology tests.
func buildNet(t *testing.T, cfg NetworkConfig) (*sim.Cluster, *Network, []*mem.Space) {
	t.Helper()
	cl, err := sim.NewCluster(cfg.LinkLatency, cfg.Cubes)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNetwork(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spaces := make([]*mem.Space, cfg.Cubes)
	for i := 0; i < cfg.Cubes; i++ {
		spaces[i] = mem.NewSpace(1 << 16)
		n.AttachNode(i, New(cl.Domain(i), spaces[i], DefaultConfig()))
	}
	return cl, n, spaces
}

// hops counts the links a packet crosses from src to dst by walking the
// next-hop table (or returns -1 past the cube count, on a loop).
func hops(n *Network, src, dst int) int {
	h := 0
	for ; src != dst; h++ {
		if h >= len(n.next) {
			return -1
		}
		src = int(n.next[src][dst])
	}
	return h
}

func TestTopologyRouting(t *testing.T) {
	mk := func(topo Topology, cubes int) *Network {
		cfg := DefaultNetworkConfig()
		cfg.Cubes = cubes
		cfg.Topology = topo
		_, n, _ := buildNet(t, cfg)
		return n
	}

	chain := mk(TopoChain, 4)
	if hops(chain, 0, 3) != 3 || chain.next[0][3] != 1 || chain.next[3][0] != 2 {
		t.Errorf("chain routing: hops(0,3)=%d next[0][3]=%d next[3][0]=%d", hops(chain, 0, 3), chain.next[0][3], chain.next[3][0])
	}
	if got := len(chain.links); got != 6 { // 3 undirected edges, both directions
		t.Errorf("chain links = %d, want 6", got)
	}

	ring := mk(TopoRing, 4)
	if hops(ring, 0, 3) != 1 || ring.next[0][3] != 3 {
		t.Errorf("ring wraparound: hops(0,3)=%d next[0][3]=%d", hops(ring, 0, 3), ring.next[0][3])
	}
	// Two equal 2-hop paths 0→2 (via 1 or via 3): lowest-id neighbor wins.
	if hops(ring, 0, 2) != 2 || ring.next[0][2] != 1 {
		t.Errorf("ring tie-break: hops(0,2)=%d next[0][2]=%d, want 2 via 1", hops(ring, 0, 2), ring.next[0][2])
	}

	mesh := mk(TopoMesh, 4) // 2x2 grid
	if hops(mesh, 0, 3) != 2 || mesh.next[0][3] != 1 {
		t.Errorf("mesh routing: hops(0,3)=%d next[0][3]=%d, want 2 via 1", hops(mesh, 0, 3), mesh.next[0][3])
	}
	mesh6 := mk(TopoMesh, 6) // 2x3 grid: 0 1 2 / 3 4 5
	if hops(mesh6, 0, 5) != 3 || hops(mesh6, 2, 3) != 3 {
		t.Errorf("2x3 mesh hops: %d %d, want 3 3", hops(mesh6, 0, 5), hops(mesh6, 2, 3))
	}
}

func TestNetworkHomeStriping(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Cubes = 4
	_, n, _ := buildNet(t, cfg)
	page := uint64(1) << cfg.InterleaveShift
	counts := make([]int, 4)
	for p := uint64(0); p < 64; p++ {
		counts[n.Home(1, p*page)]++
	}
	for c, got := range counts {
		if got != 16 {
			t.Fatalf("cube %d homes %d of 64 pages, want 16", c, got)
		}
	}
	if n.Home(2, 0) != 2 || n.Home(2, page) != 3 {
		t.Errorf("striping must start at the owning node: %d %d", n.Home(2, 0), n.Home(2, page))
	}
	if n.Home(0, 5) != n.Home(0, 9) {
		t.Error("same page must have one home")
	}
}

// TestNetworkRemoteRoundTrip pins the remote read path end to end:
// per-hop latency, FLIT-granular link occupancy on both directions, and
// host-link accounting at the source cube.
func TestNetworkRemoteRoundTrip(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Cubes = 4
	cfg.Topology = TopoChain
	cl, n, _ := buildNet(t, cfg)

	page := uint64(1) << cfg.InterleaveShift
	addr := 3 * page // home(0, 3*page) = 3: full chain traversal
	if h := n.Home(0, addr); h != 3 {
		t.Fatalf("home = %d, want 3", h)
	}
	var respAt units.Time
	cl.Domain(0).At(0, func(now units.Time) {
		n.Submit(0, now, flit.Request{Cmd: flit.CmdRead64, Addr: addr}, func(r flit.Response, at units.Time) {
			respAt = at
		})
	})
	cl.RunUntil(10 * units.Microsecond)

	if respAt == 0 {
		t.Fatal("remote read never delivered")
	}
	// Floor: single-cube read latency (~57ns with 8ns host link latency
	// each way) plus 6 extra hops at 32ns. Service happened at cube 3.
	sixHops := 6 * cfg.LinkLatency
	if respAt < sixHops || respAt > sixHops+units.FromNanoseconds(80) {
		t.Errorf("remote read latency = %v, want ~%v + cube service", respAt, sixHops)
	}
	if c := n.Node(3).Counters(); c.Reads != 1 {
		t.Errorf("home cube reads = %d, want 1", c.Reads)
	}
	if c := n.Node(0).Counters(); c.Reads != 0 || c.ReqFlits != 1 || c.RespFlits != 5 {
		t.Errorf("source cube host-link accounting: %+v", c)
	}

	// Per-link FLIT occupancy: request (1 FLIT) out 0→1→2→3, response
	// (5 FLITs) back 3→2→1→0.
	fwd, rev := map[int]bool{}, map[int]bool{}
	for _, ls := range n.Links() {
		switch {
		case ls.Dst == ls.Src+1 && ls.Counters.Packets > 0:
			fwd[ls.Src] = ls.Counters.Flits == 1
		case ls.Dst == ls.Src-1 && ls.Counters.Packets > 0:
			rev[ls.Src] = ls.Counters.Flits == 5 && ls.Counters.Bytes == 5*flit.FlitBytes
		}
	}
	for _, src := range []int{0, 1, 2} {
		if !fwd[src] {
			t.Errorf("link %d->%d missing 1-FLIT request", src, src+1)
		}
	}
	for _, src := range []int{3, 2, 1} {
		if !rev[src] {
			t.Errorf("link %d->%d missing 5-FLIT response", src, src-1)
		}
	}
}

// TestNetworkRemotePIM pins functional execution at the source space
// and FLIT accounting of PIM packets (2 req + 2 resp with return).
func TestNetworkRemotePIM(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Cubes = 2
	cl, n, spaces := buildNet(t, cfg)

	page := uint64(1) << cfg.InterleaveShift
	addr := page // home(0, page) = 1: remote
	spaces[0].Atomic(mem.AtomicExch, addr, 40, 0)
	var resp flit.Response
	cl.Domain(0).At(0, func(now units.Time) {
		n.Submit(0, now, flit.Request{Cmd: flit.CmdPIMSignedAdd, Addr: addr, WithReturn: true, Imm: 2},
			func(r flit.Response, at units.Time) { resp = r })
	})
	cl.RunUntil(10 * units.Microsecond)

	if !resp.Atomic || resp.Data != 40 {
		t.Fatalf("PIM response = %+v, want atomic old=40", resp)
	}
	if old, _ := spaces[0].Atomic(mem.AtomicAdd, addr, 0, 0); old != 42 {
		t.Errorf("source space value = %d, want 42", old)
	}
	if c := n.Node(1).Counters(); c.PIMOps != 1 || c.ExtDataBytes != 16 {
		t.Errorf("home cube PIM accounting: %+v", c)
	}
	var flits uint64
	for _, ls := range n.Links() {
		flits += ls.Counters.Flits
	}
	if flits != 2+2 { // Table I: PIM with return, one hop each way
		t.Errorf("total link FLITs = %d, want 4", flits)
	}
}

// TestNetworkRemoteWarning pins CoolPIM's cross-cube feedback: a hot
// HOME cube stamps the thermal-warning ERRSTAT into responses it serves
// for remote sources, while the source's own cube stays silent.
func TestNetworkRemoteWarning(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Cubes = 2
	cl, n, _ := buildNet(t, cfg)
	n.Node(1).SetTemperature(0, 90) // above the 85C warning threshold

	page := uint64(1) << cfg.InterleaveShift
	var remote, local flit.Response
	cl.Domain(0).At(0, func(now units.Time) {
		n.Submit(0, now, flit.Request{Cmd: flit.CmdRead64, Addr: page}, // home 1, hot
			func(r flit.Response, at units.Time) { remote = r })
		n.Submit(0, now, flit.Request{Cmd: flit.CmdRead64, Addr: 0}, // home 0, cool
			func(r flit.Response, at units.Time) { local = r })
	})
	cl.RunUntil(10 * units.Microsecond)

	if remote.ErrStat != flit.ErrThermalWarning {
		t.Errorf("remote response ErrStat = %#x, want thermal warning from hot home cube", remote.ErrStat)
	}
	if local.ErrStat != 0 {
		t.Errorf("local response ErrStat = %#x, want clean", local.ErrStat)
	}
}

// TestServeRemoteMatchesSubmit pins the vault stage the two entry points
// share. The same requests go through Submit on one warm cube and
// through ServeRemote on another, each called at its request's Submit
// arrival time. Both cubes must end with the same vault-side counters
// and per-vault activity, and stamp the same ERRSTAT.
func TestServeRemoteMatchesSubmit(t *testing.T) {
	hostEng, space, host := newCube()
	remoteEng, _, remote := newCube()
	host.SetTemperature(0, 90)
	remote.SetTemperature(0, 90)
	b := space.Alloc("x", 1024, true)
	reqs := []flit.Request{
		{Cmd: flit.CmdRead64, Addr: b.Addr(0)},
		{Cmd: flit.CmdPIMSignedAdd, Addr: b.Addr(2), Imm: 1, WithReturn: true},
		{Cmd: flit.CmdRead64, Addr: b.Addr(512)},
		{Cmd: flit.CmdWrite64, Addr: b.Addr(16)},
		{Cmd: flit.CmdPIMCASLess, Addr: b.Addr(64), Imm: 3},
	}
	if host.vaultOf(reqs[0].Addr) != host.vaultOf(reqs[1].Addr) || host.bankOf(reqs[0].Addr) != host.bankOf(reqs[1].Addr) {
		t.Fatal("the read and the PIM op must share a bank")
	}
	var hostErr, remoteErr []flit.ErrStat
	for _, req := range reqs {
		host.Submit(0, req, func(r flit.Response, _ units.Time) { hostErr = append(hostErr, r.ErrStat) })
		arrive := host.reqLinks[host.linkOf(host.vaultOf(req.Addr))].busyUntil + host.cfg.LinkLatency
		remoteEng.At(arrive, func(now units.Time) {
			remote.ServeRemote(now, &req, func(r flit.Response, _ units.Time) { remoteErr = append(remoteErr, r.ErrStat) })
		})
	}
	hostEng.Run()
	remoteEng.Run()

	h, r := host.Counters(), remote.Counters()
	if h.BankQueueSum == 0 || h.BusQueueSum == 0 {
		t.Fatalf("no bank or bus contention to compare: %+v", h)
	}
	type vaultSide struct {
		Reads, Writes, PIMOps, ExtDataBytes, InternalRegularBytes uint64
		BankQueueSum, BusQueueSum                                 units.Time
	}
	side := func(c Counters) vaultSide {
		return vaultSide{c.Reads, c.Writes, c.PIMOps, c.ExtDataBytes, c.InternalRegularBytes, c.BankQueueSum, c.BusQueueSum}
	}
	if side(h) != side(r) {
		t.Errorf("vault-side counters differ:\nSubmit      %+v\nServeRemote %+v", side(h), side(r))
	}
	hw := host.VaultActivityInto(make([]float64, host.cfg.Vaults))
	rw := remote.VaultActivityInto(make([]float64, remote.cfg.Vaults))
	for v := range hw {
		if hw[v] != rw[v] {
			t.Errorf("vault %d activity: Submit %v, ServeRemote %v", v, hw[v], rw[v])
		}
		// Queue sums cancel a uniform shift; the bank and bus horizons do not.
		if hb, rb := host.vaults[v].busBusy, remote.vaults[v].busBusy; hb != rb {
			t.Errorf("vault %d bus free at %v via Submit, %v via ServeRemote", v, hb, rb)
		}
		for k := range host.vaults[v].banks {
			if hf, rf := host.vaults[v].banks[k].FreeAt(), remote.vaults[v].banks[k].FreeAt(); hf != rf {
				t.Errorf("vault %d bank %d free at %v via Submit, %v via ServeRemote", v, k, hf, rf)
			}
		}
	}
	if len(hostErr) != len(reqs) || len(remoteErr) != len(reqs) {
		t.Fatalf("delivered %d via Submit and %d via ServeRemote, want %d each", len(hostErr), len(remoteErr), len(reqs))
	}
	for i := range reqs {
		if hostErr[i] != flit.ErrThermalWarning || remoteErr[i] != flit.ErrThermalWarning {
			t.Errorf("response %d ERRSTAT: Submit %#x, ServeRemote %#x, want the thermal warning", i, hostErr[i], remoteErr[i])
		}
	}
}

// TestNetworkRejectsMismatchedCluster pins constructor validation.
func TestNetworkRejectsMismatchedCluster(t *testing.T) {
	cfg := DefaultNetworkConfig()
	cfg.Cubes = 4
	cl, _ := sim.NewCluster(cfg.LinkLatency, 2)
	if _, err := NewNetwork(cl, cfg); err == nil {
		t.Error("domain/cube mismatch accepted")
	}
	big, _ := sim.NewCluster(cfg.LinkLatency*2, 4)
	if _, err := NewNetwork(big, cfg); err == nil {
		t.Error("lookahead above link latency accepted")
	}
	single, _ := sim.NewCluster(cfg.LinkLatency, 1)
	one := cfg
	one.Cubes = 1
	if _, err := NewNetwork(single, one); err == nil {
		t.Error("single-cube network accepted")
	}
}
