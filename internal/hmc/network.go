package hmc

import (
	"fmt"
	"strings"

	"coolpim/internal/dram"
	"coolpim/internal/flit"
	"coolpim/internal/mem"
	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// Topology names the inter-cube link graph of a multi-cube network.
type Topology string

// Supported topologies.
const (
	// TopoChain daisy-chains cubes 0-1-...-N-1, the HMC 2.0 chaining
	// configuration characterized in "Demystifying the Characteristics
	// of 3D-Stacked Memories".
	TopoChain Topology = "chain"
	// TopoRing closes the chain into a ring.
	TopoRing Topology = "ring"
	// TopoMesh arranges cubes in a near-square 2D grid with
	// nearest-neighbor links.
	TopoMesh Topology = "mesh"
)

// TopologyNames lists the supported topologies for CLI help strings.
func TopologyNames() []string {
	return []string{string(TopoChain), string(TopoRing), string(TopoMesh)}
}

// ParseTopology parses a CLI topology name.
func ParseTopology(s string) (Topology, error) {
	switch Topology(strings.ToLower(s)) {
	case TopoChain:
		return TopoChain, nil
	case TopoRing:
		return TopoRing, nil
	case TopoMesh:
		return TopoMesh, nil
	}
	return "", fmt.Errorf("hmc: unknown topology %q (want one of %s)", s, strings.Join(TopologyNames(), ", "))
}

// NetworkConfig describes a multi-cube HMC network. The zero value and
// DefaultNetworkConfig (Cubes=1) mean "no network": the single-cube
// serial path is taken everywhere and byte-identical outputs are
// preserved.
type NetworkConfig struct {
	// Cubes is the number of cube nodes; <= 1 disables the network.
	Cubes int
	// Topology selects the link graph (chain/ring/mesh).
	Topology Topology
	// LinkLatency is the per-hop serial-link latency (SerDes
	// serialization/deserialization plus pass-through switching; chained
	// cube hops measure in the tens of nanoseconds). It is also the
	// engine cluster's conservative lookahead — the minimum inter-cube
	// link latency.
	LinkLatency units.Time
	// LinkGBps is the serialization bandwidth of one inter-cube link
	// direction (an HMC 2.0 full-width link: 60 GB/s per direction).
	LinkGBps float64
	// InterleaveShift is the log2 granularity at which each node's
	// address space is striped round-robin across cubes (default 12:
	// 4 KiB pages).
	InterleaveShift uint
	// Shards is the engine shard count: 0 auto-sizes to one worker per
	// cube, 1 forces the serial reference driver, n>1 uses min(n, cubes)
	// parallel workers. Results are byte-identical for every value.
	Shards int
}

// DefaultNetworkConfig returns the disabled (single-cube) network.
func DefaultNetworkConfig() NetworkConfig {
	return NetworkConfig{
		Cubes:           1,
		Topology:        TopoChain,
		LinkLatency:     units.FromNanoseconds(32),
		LinkGBps:        60,
		InterleaveShift: 12,
	}
}

// Enabled reports whether the configuration describes a real multi-cube
// network.
func (c NetworkConfig) Enabled() bool { return c.Cubes > 1 }

// Nodes returns the number of cube nodes a run builds: Cubes, or one
// when the network is disabled.
func (c NetworkConfig) Nodes() int { return max(1, c.Cubes) }

// FlagConfig builds a validated NetworkConfig from the CLI flag values
// shared by the front ends (-cubes, -topology, -link-latency, -shards).
// Zero linkLatency keeps the default; cubes=1 yields the disabled
// single-cube configuration.
func FlagConfig(cubes int, topology string, linkLatency units.Time, shards int) (NetworkConfig, error) {
	cfg := DefaultNetworkConfig()
	if cubes < 1 {
		return cfg, fmt.Errorf("hmc: cube count must be at least 1, got %d", cubes)
	}
	cfg.Cubes = cubes
	cfg.Shards = shards
	if topology != "" {
		topo, err := ParseTopology(topology)
		if err != nil {
			return cfg, err
		}
		cfg.Topology = topo
	}
	if linkLatency != 0 {
		cfg.LinkLatency = linkLatency
	}
	return cfg, cfg.Validate()
}

// Validate checks the configuration (only meaningful when Enabled).
func (c NetworkConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.LinkLatency <= 0:
		return fmt.Errorf("hmc: non-positive inter-cube link latency %v (it is the cluster lookahead; zero lookahead cannot make conservative progress)", c.LinkLatency)
	case c.LinkGBps <= 0:
		return fmt.Errorf("hmc: non-positive inter-cube link bandwidth %g", c.LinkGBps)
	case c.InterleaveShift < 6 || c.InterleaveShift > 30:
		return fmt.Errorf("hmc: interleave shift %d outside [6,30] (sub-line or absurdly coarse striping)", c.InterleaveShift)
	case c.Shards < 0:
		return fmt.Errorf("hmc: negative shard count %d", c.Shards)
	}
	if _, err := ParseTopology(string(c.Topology)); err != nil {
		return err
	}
	if c.Topology == TopoRing && c.Cubes < 3 {
		return fmt.Errorf("hmc: ring topology needs at least 3 cubes, got %d", c.Cubes)
	}
	return nil
}

// link is one directed inter-cube link. Its serializer and counters are
// owned by the egress (source) cube's engine domain: every booking and
// counter update happens from events executing on that domain, so the
// hot path needs no synchronization.
type link struct {
	src, dst int
	ser      serializer
	ctr      flit.LinkCounters
	queueSum units.Time // cumulative wait for the egress serializer
}

// LinkStat is a read-only snapshot of one directed link's occupancy.
// Snapshots must be taken when the cluster is quiescent (before a run
// or after RunUntil returns).
type LinkStat struct {
	Src, Dst int
	Counters flit.LinkCounters
	QueueSum units.Time
}

// netNode is the per-node state of the network: the node's cube and
// functional memory, plus a free list of in-flight request states owned
// by that node's domain (states are acquired at submit and released at
// response delivery, both on the source domain).
type netNode struct {
	cube  *Cube
	space *mem.Space
	free  *netReq
}

// Network joins N cubes with a link topology and routes FLIT-accounted
// request/response packets between them on a sim.Cluster, one engine
// domain per cube node. Placement: each node's address space is striped
// across cubes at page granularity (home cube = (node + page) mod N),
// so every node keeps 1/N of its traffic local and spreads the rest.
//
// Functional execution stays at the source node (the data is the
// node's own; only placement and therefore timing is remote), which
// keeps all mutable functional state domain-local; the remote cube
// performs a timing-and-counters-only service (Cube.ServeRemote) and
// stamps the thermal-warning ERRSTAT from its own warning flag, so
// CoolPIM's source-throttling feedback extends across the network
// unchanged: the source GPU observes warnings raised by whichever cube
// actually heated.
type Network struct {
	cfg      NetworkConfig
	cluster  *sim.Cluster
	nodes    []netNode
	links    []*link
	linkIdx  [][]int32 // linkIdx[src][dst] = index into links, -1 if absent
	next     [][]int32 // next[src][dst] = next hop from src toward dst
	hops     [][]int8  // shortest hop counts
	flitTime units.Time

	// Span wiring: the tracer belongs to node 0's telemetry and is only
	// touched from events executing on domain 0 (node 0's own submits
	// and deliveries, and transits over node-0 egress links).
	spans      *telemetry.SpanTracer
	spanRemote telemetry.SpanName
	linkSpan   []telemetry.SpanName // per links[i], interned for src==0 links
}

// NewNetwork builds the network over an existing cluster, which must
// have one domain per cube and lookahead equal to the link latency.
func NewNetwork(cl *sim.Cluster, cfg NetworkConfig) (*Network, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("hmc: network config is single-cube (%d cubes)", cfg.Cubes)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cl.Domains() != cfg.Cubes {
		return nil, fmt.Errorf("hmc: cluster has %d domains, network needs %d", cl.Domains(), cfg.Cubes)
	}
	if cl.Lookahead() > cfg.LinkLatency {
		return nil, fmt.Errorf("hmc: cluster lookahead %v exceeds minimum link latency %v (conservative barrier would be unsound)",
			cl.Lookahead(), cfg.LinkLatency)
	}
	n := &Network{
		cfg:      cfg,
		cluster:  cl,
		nodes:    make([]netNode, cfg.Cubes),
		flitTime: units.Time(float64(flit.FlitBytes) / (cfg.LinkGBps * 1e9) * float64(units.Second)),
	}
	if err := n.buildTopology(); err != nil {
		return nil, err
	}
	return n, nil
}

// meshDims factors n into the most-square rows x cols grid.
func meshDims(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// buildTopology materializes the undirected edge set, the directed link
// serializers, and the deterministic shortest-path next-hop tables
// (BFS per destination with ascending neighbor order, so equal-length
// path ties always resolve to the lowest-id neighbor).
func (n *Network) buildTopology() error {
	N := n.cfg.Cubes
	adj := make([][]int, N)
	addEdge := func(a, b int) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	switch n.cfg.Topology {
	case TopoChain:
		for i := 0; i+1 < N; i++ {
			addEdge(i, i+1)
		}
	case TopoRing:
		for i := 0; i+1 < N; i++ {
			addEdge(i, i+1)
		}
		addEdge(N-1, 0)
	case TopoMesh:
		rows, cols := meshDims(N)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				id := r*cols + c
				if c+1 < cols {
					addEdge(id, id+1)
				}
				if r+1 < rows {
					addEdge(id, id+cols)
				}
			}
		}
	default:
		return fmt.Errorf("hmc: unknown topology %q", n.cfg.Topology)
	}
	for i := range adj {
		// Ascending neighbor order makes the BFS next-hop tie-break
		// deterministic and documentation-friendly.
		ns := adj[i]
		for a := 1; a < len(ns); a++ {
			for b := a; b > 0 && ns[b] < ns[b-1]; b-- {
				ns[b], ns[b-1] = ns[b-1], ns[b]
			}
		}
	}

	n.linkIdx = make([][]int32, N)
	n.next = make([][]int32, N)
	n.hops = make([][]int8, N)
	for i := 0; i < N; i++ {
		n.linkIdx[i] = make([]int32, N)
		n.next[i] = make([]int32, N)
		n.hops[i] = make([]int8, N)
		for j := 0; j < N; j++ {
			n.linkIdx[i][j] = -1
			n.next[i][j] = -1
		}
	}
	for a := 0; a < N; a++ {
		for _, b := range adj[a] {
			if n.linkIdx[a][b] >= 0 {
				continue
			}
			n.linkIdx[a][b] = int32(len(n.links))
			n.links = append(n.links, &link{src: a, dst: b, ser: serializer{flitTime: n.flitTime, baseFlit: n.flitTime}})
		}
	}

	// Per-destination BFS for shortest-path next hops.
	dist := make([]int, N)
	queue := make([]int, 0, N)
	for dst := 0; dst < N; dst++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, nb := range adj[v] {
				if dist[nb] < 0 {
					dist[nb] = dist[v] + 1
					queue = append(queue, nb)
				}
			}
		}
		for src := 0; src < N; src++ {
			if src == dst {
				continue
			}
			if dist[src] < 0 {
				return fmt.Errorf("hmc: topology %s disconnects cube %d from %d", n.cfg.Topology, src, dst)
			}
			for _, nb := range adj[src] { // ascending: lowest-id tie-break
				if dist[nb] == dist[src]-1 {
					n.next[src][dst] = int32(nb)
					break
				}
			}
			n.hops[src][dst] = int8(dist[src])
		}
	}
	return nil
}

// AttachNode registers node i's cube and functional memory. Every node
// must be attached before the first Submit.
func (n *Network) AttachNode(i int, cube *Cube, space *mem.Space) {
	n.nodes[i] = netNode{cube: cube, space: space}
}

// SetSpans attaches node 0's span tracer (nil disables at zero cost)
// and pre-interns the network span families: one "hmc.remote" span per
// node-0 remote request round trip, and one "hmc.link.<s>-<d>" span per
// transit over a node-0 egress link. SpanNames lists them so the system
// can register SetMinGap rate limits.
func (n *Network) SetSpans(st *telemetry.SpanTracer) {
	n.spans = st
	if st != nil {
		n.spanRemote = st.Name("hmc.remote")
		n.linkSpan = make([]telemetry.SpanName, len(n.links))
		for i, lk := range n.links {
			if lk.src == 0 {
				n.linkSpan[i] = st.Name(fmt.Sprintf("hmc.link.%d-%d", lk.src, lk.dst))
			}
		}
	}
}

// SpanNames returns the span families the network records, for
// SetMinGap registration.
func (n *Network) SpanNames() []string {
	names := []string{"hmc.remote"}
	for _, lk := range n.links {
		if lk.src == 0 {
			names = append(names, fmt.Sprintf("hmc.link.%d-%d", lk.src, lk.dst))
		}
	}
	return names
}

// Config returns the network configuration.
func (n *Network) Config() NetworkConfig { return n.cfg }

// Cubes returns the number of cube nodes.
func (n *Network) Cubes() int { return n.cfg.Cubes }

// Node returns node i's cube.
func (n *Network) Node(i int) *Cube { return n.nodes[i].cube }

// Hops returns the shortest hop count between two cubes.
func (n *Network) Hops(src, dst int) int { return int(n.hops[src][dst]) }

// Home returns the cube that owns addr in node src's placement: pages
// are striped round-robin across cubes starting at the node's own cube,
// so exactly 1/N of a node's pages are local.
//
//coolpim:hotpath
func (n *Network) Home(src int, addr uint64) int {
	page := addr >> n.cfg.InterleaveShift
	return (src + int(page%uint64(n.cfg.Cubes))) % n.cfg.Cubes
}

// Links returns a snapshot of every directed link's occupancy, in
// deterministic construction order. Only call while quiescent.
func (n *Network) Links() []LinkStat {
	out := make([]LinkStat, len(n.links))
	for i, lk := range n.links {
		out[i] = LinkStat{Src: lk.src, Dst: lk.dst, Counters: lk.ctr, QueueSum: lk.queueSum}
	}
	return out
}

// netReq carries one in-flight remote request across domains. Exactly
// one event references it at any time, and every access is ordered by
// event delivery through the cluster barrier, so no synchronization is
// needed. States are pooled per source node; acquire and release both
// happen on the source domain.
type netReq struct {
	n        *Network
	src, dst int32
	cur      int32 // cube currently holding the packet
	lid      int32 // source cube's host link (endpoint serialization)
	reqFlits int
	req      flit.Request
	resp     flit.Response
	done     func(flit.Response, units.Time)
	sp       telemetry.Span

	reqHopFn  sim.Event                           // pre-bound r.reqHop
	respHopFn sim.Event                           // pre-bound r.respHop
	finalFn   sim.Event                           // pre-bound r.final
	servedFn  func(at units.Time, e flit.ErrStat) // pre-bound r.served
	next      *netReq
}

// getNetReq pops a pooled state from node i's free list or grows it.
//
//coolpim:hotpath
func (n *Network) getNetReq(i int) *netReq {
	nd := &n.nodes[i]
	r := nd.free
	if r == nil {
		//coolpim:allow hotalloc pool growth: one state + four bound funcs per unit of peak in-flight remote depth per node; the steady state recycles
		r = &netReq{n: n}
		r.reqHopFn = r.reqHop   //coolpim:allow hotalloc bound once per pooled state, reused for every request it carries
		r.respHopFn = r.respHop //coolpim:allow hotalloc bound once per pooled state, reused for every request it carries
		r.finalFn = r.final     //coolpim:allow hotalloc bound once per pooled state, reused for every request it carries
		r.servedFn = r.served   //coolpim:allow hotalloc bound once per pooled state, reused for every request it carries
		return r
	}
	nd.free = r.next
	r.next = nil
	return r
}

// putNetReq recycles a delivered state onto its source node's free
// list, dropping caller references.
func (n *Network) putNetReq(r *netReq) {
	nd := &n.nodes[r.src]
	r.done = nil
	r.sp = telemetry.Span{}
	r.next = nd.free
	nd.free = r
}

// Submit routes node src's request to its home cube. Local addresses
// take the node's own cube's host-link path unchanged. Remote addresses
// execute functionally at the source (the space is the node's own, only
// its placement is remote), serialize over the source cube's host
// request link (ReqFlits/RespFlits are therefore counted at the source
// cube, exactly like local traffic), travel hop by hop over the
// inter-cube links to the home cube for a timing-and-counters-only
// service, and the response returns over the reverse path — with the
// remote cube's thermal-warning ERRSTAT stamped at its egress — and
// finally over the source cube's host response link. done fires on the
// source domain at the response's simulated delivery time. The returned
// acceptedAt is when the first inter-cube egress link finishes
// serializing the request: the local credit-clear analogue (remote bank
// backpressure is not synchronously visible across domains; egress
// congestion is, and it is what throttles posted traffic).
//
//coolpim:hotpath
func (n *Network) Submit(src int, at units.Time, req flit.Request, done func(flit.Response, units.Time)) units.Time {
	dst := n.Home(src, req.Addr)
	if dst == src {
		return n.nodes[src].cube.Submit(at, req, done)
	}
	nd := &n.nodes[src]
	cube := nd.cube
	now := max(cube.eng.Now(), at)
	if cube.shutdown {
		// The node's own cube (and so its host link) is down: mirror the
		// single-cube post-shutdown error path.
		return cube.Submit(at, req, done)
	}

	resp := flit.Response{Tag: req.Tag, Cmd: req.Cmd, WithReturn: req.WithReturn}
	if req.Cmd.IsPIM() {
		// Functional execution in source submission order, exactly as the
		// single-cube Submit does (its step 3 is synchronous too).
		old, ok := nd.space.Atomic(pimToMemOp(req.Cmd), req.Addr, uint32(req.Imm), uint32(req.Imm2))
		resp.Atomic = ok
		if req.WithReturn {
			resp.Data = uint64(old)
		}
	}

	// Host-link ingress at the source cube: the GPU reaches the network
	// through its attached cube, as in chained-HMC pass-through routing.
	reqFlits := req.Flits()
	respFlits := flit.ResponseFlits(req.Cmd, req.WithReturn)
	lid := cube.linkOf(cube.vaultOf(req.Addr))
	cube.counters.ReqFlits += uint64(reqFlits)
	cube.counters.RespFlits += uint64(respFlits)
	if busy := cube.reqLinks[lid].busyUntil; busy > now {
		cube.counters.LinkQueueSum += busy - now
	}
	enter := cube.reqLinks[lid].book(now, reqFlits) + cube.cfg.LinkLatency

	r := n.getNetReq(src)
	r.src, r.dst, r.cur = int32(src), int32(dst), int32(src)
	r.lid = int32(lid)
	r.reqFlits = reqFlits
	r.req = req
	r.resp = resp
	r.done = done
	if src == 0 {
		r.sp = n.spans.StartSpan(now, n.spanRemote)
	}
	return r.forward(enter, reqFlits, int32(dst), r.reqHopFn)
}

// forward books the egress serializer of the link from r.cur toward
// `toward`, counts the packet, and schedules arrival at the next cube
// through the cluster mailbox. It runs on r.cur's domain and returns
// the serialization completion time.
//
//coolpim:hotpath
func (r *netReq) forward(now units.Time, flits int, toward int32, arrivalFn sim.Event) units.Time {
	n := r.n
	from := r.cur
	nxt := n.next[from][toward]
	lk := n.links[n.linkIdx[from][nxt]]
	if busy := lk.ser.busyUntil; busy > now {
		lk.queueSum += busy - now
	}
	depart := lk.ser.book(now, flits)
	lk.ctr.AddPacket(flits)
	if from == 0 && n.spans != nil {
		// Link-occupancy span: serialization start to wire departure,
		// known synchronously; only node-0 egress links are recorded and
		// only from events already executing on domain 0.
		sp := n.spans.StartSpan(depart-n.flitTime.Times(flits), n.linkSpan[n.linkIdx[from][nxt]])
		sp.End(depart)
	}
	r.cur = nxt
	n.cluster.Send(int(from), int(nxt), depart+n.cfg.LinkLatency, arrivalFn)
	return depart
}

// reqHop runs on the domain of the cube that just received the request
// packet: either the home cube (serve) or a transit cube (forward on).
//
//coolpim:hotpath
func (r *netReq) reqHop(now units.Time) {
	if r.cur == r.dst {
		r.n.nodes[r.dst].cube.ServeRemote(now, &r.req, r.servedFn)
		return
	}
	r.forward(now, r.reqFlits, r.dst, r.reqHopFn)
}

// served runs on the home cube's domain when the response data leaves
// its logic layer; it stamps the cube's ERRSTAT (thermal warning or
// post-shutdown error) and starts the response's return trip.
//
//coolpim:hotpath
func (r *netReq) served(at units.Time, e flit.ErrStat) {
	r.resp.ErrStat = e
	r.forward(at, r.resp.Flits(), r.src, r.respHopFn)
}

// respHop runs on the domain of the cube that just received the
// response packet: a transit cube forwards it on; the source cube
// serializes it over its host response link toward the GPU.
//
//coolpim:hotpath
func (r *netReq) respHop(now units.Time) {
	if r.cur != r.src {
		r.forward(now, r.resp.Flits(), r.src, r.respHopFn)
		return
	}
	cube := r.n.nodes[r.src].cube
	if busy := cube.respLinks[r.lid].busyUntil; busy > now {
		cube.counters.RespQueueSum += busy - now
	}
	deliver := cube.respLinks[r.lid].book(now, r.resp.Flits()) + cube.cfg.LinkLatency
	cube.eng.AtLabel(deliver, cube.label, r.finalFn)
}

// final hands the response to the source node's caller at its simulated
// delivery time and recycles the state.
//
//coolpim:hotpath
func (r *netReq) final(at units.Time) {
	r.sp.End(at)
	done, resp := r.done, r.resp
	r.n.putNetReq(r)
	done(resp, at) //coolpim:allow hotalloc completion callback is inherently dynamic; the caller's handler is proven by its own hotpath root
}

// ServeRemote runs the cube's vault pipeline for a request that arrived
// over the inter-cube network: controller overhead, bank scheduling,
// TSV bus arbitration, and all activity counters — but no host-link
// serialization (the packet came in over a network port) and no
// functional execution (that stayed at the source node). deliver fires
// on this cube's domain when the response data is ready to leave toward
// the network egress, carrying the cube's current ERRSTAT.
//
//coolpim:hotpath
func (c *Cube) ServeRemote(at units.Time, req *flit.Request, deliver func(at units.Time, e flit.ErrStat)) {
	now := max(c.eng.Now(), at)
	if c.shutdown {
		// Post-shutdown: unreachable until recovery, data lost (the 0x7F
		// error status mirrors the host-link path).
		//coolpim:allow hotalloc post-shutdown error delivery; the cube is already off the performance path
		c.eng.AtLabel(c.shutTime+c.cfg.RecoveryDelay, c.label, func(at units.Time) {
			deliver(at, 0x7F) //coolpim:allow hotalloc completion callback is inherently dynamic; rare post-shutdown path
		})
		return
	}
	c.tags++
	vid := c.vaultOf(req.Addr)
	v := c.vaults[vid]

	var kind dram.AccessKind
	var busBytes int
	switch {
	case req.Cmd == flit.CmdRead64:
		kind, busBytes = dram.ReadAccess, 64
		c.counters.Reads++
		c.counters.ExtDataBytes += 64
		c.counters.InternalRegularBytes += 64
		v.counters.Reads++
		v.counters.InternalRegularBytes += 64
	case req.Cmd == flit.CmdWrite64:
		kind, busBytes = dram.WriteAccess, 64
		c.counters.Writes++
		c.counters.ExtDataBytes += 64
		c.counters.InternalRegularBytes += 64
		v.counters.Writes++
		v.counters.InternalRegularBytes += 64
	case req.Cmd.IsPIM():
		kind, busBytes = dram.PIMAccess, 32
		c.counters.PIMOps++
		c.counters.ExtDataBytes += 16
		v.counters.PIMOps++
	default:
		panic(fmt.Sprintf("hmc: serve remote %v", req.Cmd))
	}

	var sp telemetry.Span
	switch kind {
	case dram.ReadAccess:
		sp = c.spans.StartSpan(now, c.spanRead)
	case dram.WriteAccess:
		sp = c.spans.StartSpan(now, c.spanWrite)
	case dram.PIMAccess:
		sp = c.spans.StartSpan(now, c.spanPIM)
	}

	bank := &v.banks[c.bankOf(req.Addr)]
	ctrlDone := now + c.cfg.CtrlOverhead
	if free := bank.FreeAt(); free > ctrlDone {
		c.counters.BankQueueSum += free - ctrlDone
	}
	dataAt, _ := bank.Schedule(ctrlDone, kind, c.timing)

	r := c.getReq()
	r.v = v
	r.lid = -1 // no host response link: the reply leaves via the network
	r.kind = kind
	r.respFlits = 0
	r.busTime = units.Time(float64(c.timing.TBurst64) * float64(busBytes) / 64.0)
	r.submitAt = now
	r.sp = sp
	r.netDone = deliver
	c.eng.AtLabel(dataAt, c.label, r.dataFn)
}
