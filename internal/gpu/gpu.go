// Package gpu models the host GPU of the evaluation platform (Table IV):
// 16 SMs at 1.4 GHz running 32-thread warps, per-SM L1D and a shared L2,
// a per-warp coalescer, a thread-block manager wired to the throttling
// policy (SW-DynT's token pool decides whether each block runs
// PIM-enabled; HW-DynT's PCUs gate PIM translation per warp slot), and
// the memory path into the HMC with GraphPIM-style uncacheable
// PIM-region handling.
//
// Execution is event-driven at warp-operation granularity: warps are
// coroutines whose ops the timing model executes one at a time, in
// order, resuming a warp when the op whose result it reads completes,
// so per-warp behaviour is in-order while the SM hides latency across
// warps — the first-order performance model of a throughput GPU.
package gpu

import (
	"fmt"
	"math"

	"coolpim/internal/cache"
	"coolpim/internal/core"
	"coolpim/internal/flit"
	"coolpim/internal/hmc"
	"coolpim/internal/mem"
	"coolpim/internal/sim"
	"coolpim/internal/simt"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// Config describes the GPU.
type Config struct {
	NumSMs         int
	ClockGHz       float64
	MaxBlocksPerSM int
	MaxWarpsPerSM  int
	L1             cache.Config
	L2             cache.Config
	// L1HitLatency / L2HitLatency are load-to-use latencies for hits at
	// each level; misses additionally pay the HMC path.
	L1HitLatency units.Time
	L2HitLatency units.Time
	// StoreLatency is the issue-to-retire time of stores and
	// fire-and-forget atomics (they do not block the warp on memory).
	StoreLatency units.Time
}

// DefaultConfig returns the Table IV host configuration.
func DefaultConfig() Config {
	return Config{
		NumSMs:         16,
		ClockGHz:       1.4,
		MaxBlocksPerSM: 16,
		MaxWarpsPerSM:  64,
		L1:             cache.L1Config(),
		L2:             cache.L2Config(),
		L1HitLatency:   units.FromNanoseconds(20),
		L2HitLatency:   units.FromNanoseconds(110),
		StoreLatency:   units.FromNanoseconds(4),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0 || c.ClockGHz <= 0:
		return fmt.Errorf("gpu: bad SM count/clock %+v", c)
	case c.MaxBlocksPerSM <= 0 || c.MaxWarpsPerSM <= 0:
		return fmt.Errorf("gpu: bad occupancy limits %+v", c)
	}
	if err := c.L1.Validate(); err != nil {
		return err
	}
	return c.L2.Validate()
}

// CycleTime returns the duration of one core cycle.
func (c Config) CycleTime() units.Time {
	return units.Time(float64(units.Second) / (c.ClockGHz * 1e9))
}

// Stats aggregates GPU-side activity of one or more kernel launches.
type Stats struct {
	WarpOps      uint64
	DivergentOps uint64 // warp ops issued with a partial mask
	ComputeOps   uint64
	LoadOps      uint64
	StoreOps     uint64
	AtomicOps    uint64 // warp-level atomic ops
	// PIMLaneOps counts the lane atomics offloaded to the cube. It is
	// not a packet count: no-return lanes that hit one address combine
	// into one packet within a warp (aggregatePIM), so lanes ≥ packets,
	// equal when no warp combines lanes.
	PIMLaneOps    uint64
	HostLaneOps   uint64 // lane atomics executed as host atomics
	PIMBlocks     uint64
	NonPIMBlocks  uint64
	LoadLines     uint64 // coalesced 64B transactions from loads
	StoreLines    uint64
	UncachedLines uint64 // PIM-region (uncacheable) line transactions

	// Latency accounting (sums of simulated time, for diagnostics).
	LoadWaitTotal units.Time // issue-to-resume across blocking loads
	AtomicStall   units.Time // issue-to-retire across posted atomics
	AtomicWait    units.Time // issue-to-resume across returning atomics
	ComputeBusy   units.Time

	// PeakResidentBlocks is the most blocks resident at once over every
	// launch: the high-water mark of the live block count.
	PeakResidentBlocks int
}

// DivergenceRatio returns the fraction of warp ops issued divergent.
func (s Stats) DivergenceRatio() float64 {
	if s.WarpOps == 0 {
		return 0
	}
	return float64(s.DivergentOps) / float64(s.WarpOps)
}

// Launch describes one kernel grid.
type Launch struct {
	// Kernel is the grid's one entry point. Each block runs it as a PIM
	// or a non-PIM block: the policy decides at block launch, and every
	// atomic of a non-PIM block executes as a host atomic at decode (the
	// Table III mapping), computing the same result.
	Kernel simt.KernelFunc
	Blocks int
	// BlockDim is threads per block; must be a multiple of 32.
	BlockDim int
	// OnComplete fires when the last block retires.
	OnComplete func(now units.Time)
}

type smState struct {
	nextIssue  units.Time
	l1         *cache.Cache
	freeSlots  []int // block slot indices
	liveBlocks int
	// warps holds the running warp of each warp slot, nil when the slot
	// is free; StopWarps ends the ones a halted run leaves parked.
	warps []*warpState
}

type blockState struct {
	id    int
	isPIM bool
	sm    int
	slot  int
	live  int // running warps
	span  telemetry.Span
}

// GPU is the host processor model.
type GPU struct {
	cfg    Config
	eng    *sim.Engine
	label  sim.Label // pre-interned "gpu" profiling label
	space  *mem.Space
	cube   *hmc.Cube
	policy core.Policy

	// net/nodeID, when set (SetNetwork), route memory traffic through the
	// multi-cube network from this GPU's node instead of directly into
	// the attached cube; addresses homed at the local cube still take the
	// single-cube path inside Network.Submit.
	net    *hmc.Network
	nodeID int

	sms []*smState
	l2  *cache.Cache

	// pimOffload marks the PIM region as an active offloading target:
	// set by New for every policy but Non-Offloading. Following the
	// paper's PEI-style ISA approach, the region stays cacheable at the
	// L2 — coherence with in-memory atomics is maintained by
	// invalidating the accessed block on each PIM instruction — but its
	// lines bypass the (non-coherent) per-SM L1s, as volatile GPU
	// accesses do.
	pimOffload bool

	// Span wiring (SetSpans): one "gpu.kernel" span per launch, one
	// "gpu.block.pim"/"gpu.block.nonpim" child span per thread block, and
	// an offload.accept/offload.reject instant for every block-launch
	// decision.
	spans      *telemetry.SpanTracer
	spanKernel telemetry.SpanName
	spanPIM    telemetry.SpanName
	spanNonPIM telemetry.SpanName
	kernelSpan telemetry.Span

	launch     *Launch
	nextBlock  int
	liveBlocks int
	running    bool

	stats  Stats
	tagSeq uint64
	cycle  units.Time

	// lineBuf and pimBuf are the per-op scratch buffers behind coalesce
	// and aggregatePIM: the engine is single-threaded and both results
	// are fully consumed before the next op issues, so one fixed array
	// each replaces a map + slice allocation per memory op.
	lineBuf [simt.WarpSize]uint64
	pimBuf  [simt.WarpSize]pimPacket

	// observeCb adapts observe to the cube's completion signature once at
	// construction; fire-and-forget submissions (no-return PIM packets,
	// dirty write-backs) share it instead of minting a closure per packet.
	observeCb func(resp flit.Response, at units.Time)

	// freeMiss recycles the in-flight states of L2 misses and returning
	// PIM lanes (missState), as the cube recycles its request states.
	freeMiss *missState
}

// New builds a GPU wired to an engine, functional memory, HMC cube and
// throttling policy.
func New(eng *sim.Engine, space *mem.Space, cube *hmc.Cube, policy core.Policy, cfg Config) *GPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &GPU{
		cfg:        cfg,
		eng:        eng,
		label:      eng.Label("gpu"),
		space:      space,
		cube:       cube,
		policy:     policy,
		l2:         cache.New(cfg.L2),
		cycle:      cfg.CycleTime(),
		pimOffload: policy.Kind() != core.NonOffloading,
	}
	g.observeCb = func(resp flit.Response, _ units.Time) { g.observe(resp) }
	for i := 0; i < cfg.NumSMs; i++ {
		s := &smState{l1: cache.New(cfg.L1), warps: make([]*warpState, cfg.MaxWarpsPerSM)}
		for slot := 0; slot < cfg.MaxBlocksPerSM; slot++ {
			s.freeSlots = append(s.freeSlots, slot)
		}
		g.sms = append(g.sms, s)
	}
	return g
}

// SetSpans attaches a span tracer (nil disables span recording at zero
// cost) and pre-interns the GPU's span names.
func (g *GPU) SetSpans(st *telemetry.SpanTracer) {
	g.spans = st
	g.spanKernel = st.Name("gpu.kernel")
	g.spanPIM = st.Name("gpu.block.pim")
	g.spanNonPIM = st.Name("gpu.block.nonpim")
}

// Stats returns the accumulated statistics.
func (g *GPU) Stats() Stats { return g.stats }

// L2Stats returns the shared cache statistics.
func (g *GPU) L2Stats() cache.Stats { return g.l2.Stats() }

// Policy returns the active throttling policy.
func (g *GPU) Policy() core.Policy { return g.policy }

// RunKernel starts a kernel launch. Only one launch may be in flight at
// a time (the harness runs kernels back to back, as the GraphBIG
// workloads do).
func (g *GPU) RunKernel(l *Launch) {
	if g.running {
		panic("gpu: kernel launch while another is running")
	}
	if l.Blocks <= 0 || l.BlockDim <= 0 || l.BlockDim%simt.WarpSize != 0 {
		panic(fmt.Sprintf("gpu: bad launch geometry blocks=%d dim=%d", l.Blocks, l.BlockDim))
	}
	if l.Kernel == nil {
		panic("gpu: launch needs a kernel entry point")
	}
	g.launch = l
	g.nextBlock = 0
	g.liveBlocks = 0
	g.running = true
	// A block wider than an SM's warp slots runs alone on its SM, its
	// warps numbered past MaxWarpsPerSM.
	for _, s := range g.sms {
		if n := g.warpsPerBlock(); len(s.warps) < n {
			s.warps = make([]*warpState, n)
		}
	}
	g.kernelSpan = g.spans.StartSpan(g.eng.Now(), g.spanKernel)
	g.dispatch()
}

// warpsPerBlock returns the warp count of the current launch's blocks.
func (g *GPU) warpsPerBlock() int { return g.launch.BlockDim / simt.WarpSize }

// blocksPerSMLimit bounds concurrent blocks per SM by both the block
// slot count and the warp capacity.
func (g *GPU) blocksPerSMLimit() int {
	byWarps := g.cfg.MaxWarpsPerSM / g.warpsPerBlock()
	if byWarps < 1 {
		byWarps = 1
	}
	if byWarps > g.cfg.MaxBlocksPerSM {
		return g.cfg.MaxBlocksPerSM
	}
	return byWarps
}

// dispatch assigns pending blocks to SMs with free capacity.
func (g *GPU) dispatch() {
	limit := g.blocksPerSMLimit()
	for g.nextBlock < g.launch.Blocks {
		// Pick the SM with the fewest live blocks (round-robin-ish,
		// deterministic).
		best := -1
		for i, s := range g.sms {
			if s.liveBlocks >= limit || len(s.freeSlots) == 0 {
				continue
			}
			if best == -1 || s.liveBlocks < g.sms[best].liveBlocks {
				best = i
			}
		}
		if best == -1 {
			return // all SMs full; blocks dispatch as others retire
		}
		g.startBlock(best)
	}
}

func (g *GPU) startBlock(smID int) {
	s := g.sms[smID]
	// Occupy the lowest free block slot: PCUs gate PIM by warp-slot
	// index counting up from zero, so resident blocks must pack into the
	// low slots for warp-granularity throttling to shave intensity
	// gradually rather than disabling whole waves.
	min := 0
	for i := 1; i < len(s.freeSlots); i++ {
		if s.freeSlots[i] < s.freeSlots[min] {
			min = i
		}
	}
	slot := s.freeSlots[min]
	s.freeSlots[min] = s.freeSlots[len(s.freeSlots)-1]
	s.freeSlots = s.freeSlots[:len(s.freeSlots)-1]
	s.liveBlocks++
	g.liveBlocks++
	g.stats.PeakResidentBlocks = max(g.stats.PeakResidentBlocks, g.liveBlocks)

	// Everything allowed below is per-BLOCK setup: a block runs hundreds
	// to thousands of warp ops, so these bounded allocations amortize to
	// noise while the per-OP path above and below stays provably free.
	isPIM := g.policy.BlockLaunch() //coolpim:allow hotalloc policy decision is inherently dynamic; implementations are token-pool counter arithmetic, once per block
	spanName := g.spanPIM
	if isPIM {
		g.stats.PIMBlocks++
	} else {
		g.stats.NonPIMBlocks++
		spanName = g.spanNonPIM
	}
	g.spans.OffloadBlock(g.eng.Now(), isPIM, smID, g.nextBlock)
	b := &blockState{ //coolpim:allow hotalloc one block descriptor per thread block
		id:    g.nextBlock,
		isPIM: isPIM,
		sm:    smID,
		slot:  slot,
		live:  g.warpsPerBlock(),
		span:  g.spans.StartChild(g.eng.Now(), spanName, g.kernelSpan.ID()),
	}
	g.nextBlock++

	obs, hasObs := g.policy.(core.OccupancyObserver)
	for w := 0; w < g.warpsPerBlock(); w++ {
		if hasObs {
			obs.ObserveWarpSlot(smID, slot*g.warpsPerBlock()+w) //coolpim:allow hotalloc occupancy observation is inherently dynamic and runs once per warp launch
		}
		run := simt.StartWarp(g.launch.Kernel, simt.Ctx{ //coolpim:allow hotalloc starting the warp coroutine allocates its iter.Pull handoff once per warp
			BlockID:     b.id,
			WarpInBlock: w,
			GlobalWarp:  b.id*g.warpsPerBlock() + w,
			BlockDim:    g.launch.BlockDim,
			GridDim:     g.launch.Blocks,
		})
		warpSlot := slot*g.warpsPerBlock() + w
		wp := &warpState{gpu: g, block: b, run: run, slot: warpSlot} //coolpim:allow hotalloc one warp descriptor per warp
		wp.advanceEv = wp.advance                                    //coolpim:allow hotalloc bound once per warp; every scheduled op reuses it
		wp.loadFinishEv = wp.loadFinish                              //coolpim:allow hotalloc bound once per warp; every blocking load reuses it
		wp.asyncFinishEv = wp.asyncFinish                            //coolpim:allow hotalloc bound once per warp; every async load reuses it
		wp.atomicResumeEv = wp.atomicResume                          //coolpim:allow hotalloc bound once per warp; every blocking atomic reuses it
		s.warps[warpSlot] = wp
		g.eng.AfterLabel(0, g.label, wp.advanceEv)
	}
}

// StopWarps ends every warp still parked mid-kernel, as a run halted by
// a shutdown or a time limit leaves them, releasing their coroutines
// and, through them, the kernel's memory.
func (g *GPU) StopWarps() {
	for _, s := range g.sms {
		for i, w := range s.warps {
			if w != nil {
				w.run.Stop()
				s.warps[i] = nil
			}
		}
	}
}

func (g *GPU) blockDone(b *blockState, now units.Time) {
	b.span.End(now)
	g.policy.BlockComplete(b.isPIM) //coolpim:allow hotalloc policy completion hook is inherently dynamic and runs once per block
	s := g.sms[b.sm]
	s.freeSlots = append(s.freeSlots, b.slot) //coolpim:allow hotalloc returns the slot to a free list whose capacity New preallocated; the append never grows it
	s.liveBlocks--
	g.liveBlocks--
	if g.nextBlock < g.launch.Blocks {
		g.dispatch()
		return
	}
	if g.liveBlocks == 0 {
		g.running = false
		g.kernelSpan.End(now)
		g.kernelSpan = telemetry.Span{}
		done := g.launch.OnComplete
		g.launch = nil
		if done != nil {
			done(now) //coolpim:allow hotalloc launch-completion callback is inherently dynamic and fires once per kernel
		}
	}
}

type warpState struct {
	gpu   *GPU
	block *blockState
	run   *simt.WarpRun
	slot  int // warp slot within the SM (the PCU index)
	// advanceEv is w.advance bound once at warp start: the engine's
	// hot-path schedules reuse it instead of minting a fresh method
	// value (one closure allocation) per scheduled op.
	advanceEv sim.Event

	// Outstanding async (software-pipelined) load, if any. The op buffer
	// is shared and gets reused by subsequent ops, so the addresses are
	// copied here at issue.
	asyncAddr    [simt.WarpSize]uint64
	asyncMask    simt.Mask
	asyncPending int // outstanding line transactions
	asyncIssue   units.Time
	asyncWait    *simt.Op // non-nil while the warp is blocked in Wait

	// loadOp/loadIssue/loadPending park a blocking load's completion
	// state on the warp: the warp stalls until the load returns, so at
	// most one is outstanding at a time and the pre-bound loadFinishEv
	// replaces a capturing closure per load. atomicIssue/atomicPending
	// do the same for blocking host atomics and returning PIM atomics.
	loadOp        *simt.Op
	loadIssue     units.Time
	loadPending   int
	atomicIssue   units.Time
	atomicPending int

	// loadFinishEv, asyncFinishEv and atomicResumeEv are method values
	// bound once at warp start, like advanceEv.
	loadFinishEv   func(at units.Time)
	asyncFinishEv  func(at units.Time)
	atomicResumeEv func(at units.Time)
}

// advance resumes the warp: pull its next op and execute it. It is the
// GPU's per-operation service path — every compute, load, store and
// atomic of every warp flows through it.
//
//coolpim:hotpath
func (w *warpState) advance(now units.Time) {
	op, ok := w.run.Next() //coolpim:allow hotalloc resuming the warp coroutine goes through iter.Pull's handoff, opaque to the analyzer; the resume itself is allocation-free
	if !ok {
		w.gpu.sms[w.block.sm].warps[w.slot] = nil
		w.block.live--
		if w.block.live == 0 {
			w.gpu.blockDone(w.block, now)
		}
		return
	}
	g := w.gpu
	g.stats.WarpOps++
	if op.Mask.Divergent() {
		g.stats.DivergentOps++
	}

	// Issue-slot arbitration: one op per SM per cycle.
	s := g.sms[w.block.sm]
	issueAt := max(now, s.nextIssue)
	s.nextIssue = issueAt + g.cycle

	switch op.Kind {
	case simt.OpCompute:
		g.stats.ComputeOps++
		g.stats.ComputeBusy += g.cycle.Times(op.Cycles)
		g.eng.At(issueAt+g.cycle.Times(op.Cycles), w.advanceEv)
	case simt.OpLoad:
		g.stats.LoadOps++
		w.execLoad(op, issueAt)
	case simt.OpLoadAsync:
		g.stats.LoadOps++
		w.execLoadAsync(op, issueAt)
	case simt.OpWait:
		w.execWait(op, issueAt)
	case simt.OpStore:
		g.stats.StoreOps++
		w.execStore(op, issueAt)
	case simt.OpAtomic:
		g.stats.AtomicOps++
		w.execAtomic(op, issueAt)
	default:
		panic(fmt.Sprintf("gpu: op kind %v", op.Kind))
	}
}

// coalesce groups the active lanes' addresses into unique 64-byte lines.
// The result aliases g.lineBuf and is valid until the next coalesce; a
// warp has at most WarpSize lines, so the linear dedup scan over the
// fixed buffer replaces the old map + append (one map and one slice
// allocation per memory op) with zero allocations.
func (g *GPU) coalesce(op *simt.Op) []uint64 {
	n := 0
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !op.Mask.Lane(lane) {
			continue
		}
		line := op.Addr[lane] &^ 63
		dup := false
		for _, l := range g.lineBuf[:n] {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			g.lineBuf[n] = line
			n++
		}
	}
	return g.lineBuf[:n]
}

func (w *warpState) execLoad(op *simt.Op, issueAt units.Time) {
	g := w.gpu
	lines := g.coalesce(op)
	g.stats.LoadLines += uint64(len(lines))
	w.loadOp = op
	w.loadIssue = issueAt
	w.loadPending = len(lines)
	for _, line := range lines {
		g.lineAccess(w.block.sm, line, false, issueAt, w.loadFinishEv)
	}
}

// loadFinish retires one line transaction of the warp's blocking load;
// the last one delivers the functional values and resumes the warp.
func (w *warpState) loadFinish(at units.Time) {
	w.loadPending--
	if w.loadPending > 0 {
		return
	}
	g := w.gpu
	op := w.loadOp
	w.loadOp = nil
	g.stats.LoadWaitTotal += at - w.loadIssue
	// Deliver functional values at completion time.
	for lane := 0; lane < simt.WarpSize; lane++ {
		if op.Mask.Lane(lane) {
			op.Out[lane] = g.space.Load32(op.Addr[lane])
		}
	}
	w.advance(at)
}

// execLoadAsync starts the line transactions of a software-pipelined
// load and lets the warp continue; execWait claims the values.
func (w *warpState) execLoadAsync(op *simt.Op, issueAt units.Time) {
	g := w.gpu
	w.asyncAddr = op.Addr
	w.asyncMask = op.Mask
	w.asyncIssue = issueAt
	lines := g.coalesce(op)
	g.stats.LoadLines += uint64(len(lines))
	w.asyncPending = len(lines)
	for _, line := range lines {
		g.lineAccess(w.block.sm, line, false, issueAt, w.asyncFinishEv)
	}
	// The warp continues after the issue slot.
	g.eng.At(issueAt+g.cycle, w.advanceEv)
}

// asyncFinish retires one line transaction of the warp's async load; if
// the warp is already blocked in Wait, the last one resumes it.
func (w *warpState) asyncFinish(at units.Time) {
	w.asyncPending--
	if w.asyncPending > 0 || w.asyncWait == nil {
		return
	}
	w.completeWait(at)
}

func (w *warpState) execWait(op *simt.Op, issueAt units.Time) {
	if w.asyncPending == 0 {
		w.asyncWait = op
		w.completeWait(issueAt)
		return
	}
	w.asyncWait = op
}

// completeWait delivers the async load's values into the blocked Wait op
// and resumes the warp.
func (w *warpState) completeWait(at units.Time) {
	g := w.gpu
	op := w.asyncWait
	w.asyncWait = nil
	for lane := 0; lane < simt.WarpSize; lane++ {
		if w.asyncMask.Lane(lane) {
			op.Out[lane] = g.space.Load32(w.asyncAddr[lane])
		}
	}
	g.stats.LoadWaitTotal += at - w.asyncIssue
	w.advance(at)
}

func (w *warpState) execStore(op *simt.Op, issueAt units.Time) {
	g := w.gpu
	// Functional effect at issue (deterministic program order).
	for lane := 0; lane < simt.WarpSize; lane++ {
		if op.Mask.Lane(lane) {
			g.space.Store32(op.Addr[lane], op.Val[lane])
		}
	}
	lines := g.coalesce(op)
	g.stats.StoreLines += uint64(len(lines))
	retire := issueAt + g.cfg.StoreLatency
	for _, line := range lines {
		acceptedAt := g.lineAccess(w.block.sm, line, true, issueAt, func(units.Time) {})
		if acceptedAt > retire {
			retire = acceptedAt
		}
	}
	// Stores retire without blocking on the response, but credit flow
	// control can delay acceptance.
	g.eng.At(retire, w.advanceEv)
}

// execAtomic handles a warp atomic: each active lane either offloads as
// a PIM packet or executes as a host atomic, per the allocation
// attribute and the throttling policy's decode-time decision.
func (w *warpState) execAtomic(op *simt.Op, issueAt units.Time) {
	g := w.gpu
	inPIMRegion := g.space.InPIMRegion(op.Addr[firstLane(op.Mask)])
	offload := inPIMRegion && w.block.isPIM &&
		g.policy.WarpPIMEnabled(w.block.sm, w.slot) //coolpim:allow hotalloc PCU gate check is inherently dynamic; implementations read a counter or bitmask

	if offload {
		w.execPIMAtomic(op, issueAt)
		return
	}
	w.execHostAtomic(op, issueAt)
}

func firstLane(m simt.Mask) int {
	for i := 0; i < simt.WarpSize; i++ {
		if m.Lane(i) {
			return i
		}
	}
	panic("gpu: empty mask op")
}

// execPIMAtomic offloads the warp's atomic as PIM instruction packets.
// No-return operations whose semantics allow it are aggregated at the
// warp level first (same-address adds combine into one packet, mins into
// one min, ...), exactly as GPU atomic units aggregate intra-warp
// conflicts before they reach memory.
func (w *warpState) execPIMAtomic(op *simt.Op, issueAt units.Time) {
	g := w.gpu
	cmd, ok := hmc.MemOpToPIM(op.Atomic)
	if !ok {
		panic(fmt.Sprintf("gpu: atomic %v has no PIM encoding", op.Atomic))
	}
	g.stats.PIMLaneOps += uint64(op.Mask.Count())

	if !op.NeedReturn {
		packets := g.aggregatePIM(op)
		retire := issueAt + g.cfg.StoreLatency
		for _, p := range packets {
			g.invalidateForPIM(p.addr)
			g.tagSeq++
			acceptedAt := g.submitAt(issueAt, flit.Request{
				Tag: g.tagSeq, Cmd: cmd, Addr: p.addr, Imm: uint64(p.val), Imm2: uint64(p.cmp),
			}, g.observeCb)
			if acceptedAt > retire {
				retire = acceptedAt
			}
		}
		// Fire and forget: the warp continues once the link-layer
		// credits clear (natural backpressure under congestion).
		g.stats.AtomicStall += retire - issueAt
		g.eng.At(retire, w.advanceEv)
		return
	}

	// Each returning lane rides a pooled missState; the warp's blocking
	// atomic countdown (atomicResume) resumes it after the last lane.
	w.atomicIssue = issueAt
	w.atomicPending = op.Mask.Count()
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !op.Mask.Lane(lane) {
			continue
		}
		imm := op.Val[lane]
		if op.Atomic == mem.AtomicSub {
			imm = -imm // sub encodes as signed add of the negation
		}
		g.invalidateForPIM(op.Addr[lane])
		g.tagSeq++
		req := flit.Request{
			Tag:        g.tagSeq,
			Cmd:        cmd,
			Addr:       op.Addr[lane],
			Imm:        uint64(imm),
			Imm2:       uint64(op.Cmp[lane]),
			WithReturn: true,
		}
		m := g.getMiss()
		m.op, m.lane, m.done = op, lane, w.atomicResumeEv
		g.submitAt(issueAt, req, m.completeFn)
	}
}

type pimPacket struct {
	addr uint64
	val  uint32
	cmp  uint32 // CAS compare operand
}

// aggregatePIM combines a no-return warp atomic's lanes into per-address
// packets where the operation is combinable; non-combinable operations
// (exch, CAS) stay one packet per lane. The result aliases g.pimBuf and
// is valid until the next aggregatePIM: a warp emits at most one packet
// per active lane, so — as in coalesce — a linear scan over the fixed
// buffer replaces the old map + append with zero allocations.
func (g *GPU) aggregatePIM(op *simt.Op) []pimPacket {
	n := 0
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !op.Mask.Lane(lane) {
			continue
		}
		val := op.Val[lane]
		if op.Atomic == mem.AtomicSub {
			val = -val
		}
		addr := op.Addr[lane]
		i := -1
		for j := 0; j < n; j++ {
			if g.pimBuf[j].addr == addr {
				i = j
				break
			}
		}
		if i < 0 {
			g.pimBuf[n] = pimPacket{addr: addr, val: val, cmp: op.Cmp[lane]}
			n++
			continue
		}
		switch op.Atomic {
		case mem.AtomicAdd, mem.AtomicSub:
			g.pimBuf[i].val += val
		case mem.AtomicFAdd:
			f := math.Float32frombits(g.pimBuf[i].val) + math.Float32frombits(val)
			g.pimBuf[i].val = math.Float32bits(f)
		case mem.AtomicMin:
			if val < g.pimBuf[i].val {
				g.pimBuf[i].val = val
			}
		case mem.AtomicMax:
			if val > g.pimBuf[i].val {
				g.pimBuf[i].val = val
			}
		case mem.AtomicAnd:
			g.pimBuf[i].val &= val
		case mem.AtomicOr:
			g.pimBuf[i].val |= val
		case mem.AtomicXor:
			g.pimBuf[i].val ^= val
		default:
			// Not combinable: emit a separate packet.
			g.pimBuf[n] = pimPacket{addr: addr, val: val, cmp: op.Cmp[lane]}
			n++
		}
	}
	return g.pimBuf[:n]
}

// execHostAtomic executes the warp atomic on the host path: functional
// effect in program order, timing through the L2 atomic units.
func (w *warpState) execHostAtomic(op *simt.Op, issueAt units.Time) {
	g := w.gpu
	lanes := 0
	// Functional execution at issue, in lane order.
	for lane := 0; lane < simt.WarpSize; lane++ {
		if !op.Mask.Lane(lane) {
			continue
		}
		lanes++
		val := op.Val[lane]
		old, okA := g.space.Atomic(op.Atomic, op.Addr[lane], val, op.Cmp[lane])
		op.Out[lane] = old
		op.OutOK[lane] = okA
	}
	g.stats.HostLaneOps += uint64(lanes)

	// Timing: atomics execute at the L2 atomic units (or memory-side
	// for the uncacheable PIM region), one transaction per unique line.
	// Atomics whose result the program consumes block the warp until the
	// value returns; no-return atomics are posted — the warp continues
	// once link credits clear, as on real GPUs.
	lines := g.coalesce(op)
	w.atomicIssue = issueAt
	w.atomicPending = len(lines)
	posted := !op.NeedReturn
	retire := issueAt + g.cfg.StoreLatency
	for _, line := range lines {
		// The atomic executes at the L2: read-modify-write marks the
		// line dirty; misses fetch from the HMC.
		acceptedAt := g.l2AtomicAccess(line, issueAt, posted, w.atomicResumeEv)
		if acceptedAt > retire {
			retire = acceptedAt
		}
	}
	if posted || len(lines) == 0 {
		g.stats.AtomicStall += retire - issueAt
		g.eng.At(retire, w.advanceEv)
	}
}

// atomicResume retires one line transaction of the warp's blocking host
// atomic, or one lane of its returning PIM atomic; the last one resumes
// the warp. Posted atomics never invoke it (the warp retired at
// credit-clear time).
func (w *warpState) atomicResume(at units.Time) {
	w.atomicPending--
	if w.atomicPending == 0 {
		g := w.gpu
		g.stats.AtomicWait += at - w.atomicIssue
		w.advance(at)
	}
}

// l2AtomicAccess performs an atomic's line access at the L2 level
// (bypassing L1, as GPU global atomics do). When posted, done is not
// called — the returned accepted time is the retire point.
func (g *GPU) l2AtomicAccess(line uint64, issueAt units.Time, posted bool, done func(at units.Time)) (acceptedAt units.Time) {
	if posted {
		done = nil
	}
	if g.l2.Access(line, true) {
		if done != nil {
			g.eng.At(issueAt+g.cfg.L2HitLatency, done)
		}
		return issueAt
	}
	return g.fetchLine(issueAt, line, true, nil, false, done)
}

// lineAccess runs a 64-byte load/store line through the hierarchy on
// behalf of a warp running on SM smID. The returned acceptedAt is the
// earliest time a posted (non-blocking) operation may be considered
// retired — it reflects link-credit backpressure for uncacheable
// accesses and is just the issue time for cache-accepted ones.
func (g *GPU) lineAccess(smID int, line uint64, write bool, issueAt units.Time, done func(at units.Time)) (acceptedAt units.Time) {
	if g.pimOffload && g.space.InPIMRegion(line) {
		// Volatile path: skip the non-coherent L1, access the L2.
		g.stats.UncachedLines++
		if g.l2.Access(line, write) {
			g.eng.At(issueAt+g.cfg.L2HitLatency, done)
			return issueAt
		}
		return g.fetchLine(issueAt, line, write, nil, false, done)
	}
	l1 := g.sms[smID].l1
	if l1.Access(line, write) {
		g.eng.At(issueAt+g.cfg.L1HitLatency, done)
		return issueAt
	}
	if g.l2.Access(line, false) {
		g.fillL1(l1, line, write)
		g.eng.At(issueAt+g.cfg.L2HitLatency, done)
		return issueAt
	}
	// L2 miss: fetch from the cube.
	return g.fetchLine(issueAt, line, false, l1, write, done)
}

// fetchLine reads an L2-missing line from memory. On the response it
// fills the L2 (dirty when l2Dirty), then l1 when non-nil (dirty when
// l1Dirty), then calls done unless it is nil (a posted atomic).
func (g *GPU) fetchLine(issueAt units.Time, line uint64, l2Dirty bool, l1 *cache.Cache, l1Dirty bool, done func(at units.Time)) (acceptedAt units.Time) {
	m := g.getMiss()
	m.line, m.l2Dirty, m.l1, m.l1Dirty, m.done = line, l2Dirty, l1, l1Dirty, done
	g.tagSeq++
	return g.submitAt(issueAt+g.cfg.L2HitLatency, flit.Request{Tag: g.tagSeq, Cmd: flit.CmdRead64, Addr: line}, m.completeFn)
}

// missState carries one L2-miss line or returning PIM lane across the
// HMC round trip. States are pooled on the GPU's freelist with the
// completion bound once, as hmc.reqState is, so the steady-state miss
// path performs no allocations (TestMissPathZeroAllocs pins it).
type missState struct {
	g *GPU
	// line/l2Dirty/l1/l1Dirty describe a line fill: the L2 always, the
	// L1 too when l1 is non-nil (the cacheable path).
	line    uint64
	l2Dirty bool
	l1      *cache.Cache
	l1Dirty bool
	// op/lane, when op is non-nil, mark a returning PIM lane instead of
	// a line fill: the response's old value lands in op.Out[lane].
	op   *simt.Op
	lane int
	// done is the warp's pre-bound handler, nil for a posted atomic.
	done       func(at units.Time)
	completeFn func(resp flit.Response, at units.Time) // pre-bound m.complete
	next       *missState
}

// getMiss pops a pooled state or grows the pool by one.
//
//coolpim:hotpath
func (g *GPU) getMiss() *missState {
	m := g.freeMiss
	if m == nil {
		//coolpim:allow hotalloc pool growth: one state + one bound completion func per unit of peak outstanding misses, ever; the steady state recycles
		m = &missState{g: g}
		m.completeFn = m.complete //coolpim:allow hotalloc bound once per pooled state, reused for every miss it carries
		return m
	}
	g.freeMiss = m.next
	m.next = nil
	return m
}

// putMiss recycles a completed state, dropping its references so the
// pool never pins a warp, an op or a cache.
func (g *GPU) putMiss(m *missState) {
	m.l1 = nil
	m.op = nil
	m.done = nil
	m.next = g.freeMiss
	g.freeMiss = m
}

// complete handles the memory response of a missing line or returning
// PIM lane: observe the ERRSTAT, fill the caches or the lane's result,
// then hand the completion to the warp. The state is recycled before
// the handler runs, so a warp that issues its next miss reuses it.
//
//coolpim:hotpath
func (m *missState) complete(resp flit.Response, at units.Time) {
	g := m.g
	g.observe(resp)
	if op := m.op; op != nil {
		op.Out[m.lane] = uint32(resp.Data)
		op.OutOK[m.lane] = resp.Atomic
	} else {
		g.fillL2(m.line, m.l2Dirty)
		if m.l1 != nil {
			g.fillL1(m.l1, m.line, m.l1Dirty)
		}
	}
	done := m.done
	g.putMiss(m)
	if done != nil {
		done(at) //coolpim:allow hotalloc completion callback is inherently dynamic; warp handlers are the pre-bound method values proven under the advance root
	}
}

func (g *GPU) fillL1(l1 *cache.Cache, line uint64, dirty bool) {
	ev, evDirty, has := l1.Fill(line, dirty)
	if has && evDirty {
		// Dirty L1 victim folds into L2.
		if !g.l2.Access(ev, true) {
			g.fillL2(ev, true)
		}
	}
}

// invalidateForPIM maintains PEI-style coherence: the cache block a PIM
// instruction is about to modify in memory is dropped from the L2 (a
// dirty copy would be stale the moment the in-memory RMW executes; the
// functional image is shared, so only the timing effect matters here).
func (g *GPU) invalidateForPIM(addr uint64) {
	g.l2.Invalidate(g.l2.LineAddr(addr))
}

func (g *GPU) fillL2(line uint64, dirty bool) {
	ev, evDirty, has := g.l2.Fill(line, dirty)
	if has && evDirty {
		// Dirty L2 victim writes back to memory (fire and forget) —
		// through the network when one is attached, so victims of remote
		// lines land at their home cube.
		g.tagSeq++
		g.submitAt(g.eng.Now(), flit.Request{Tag: g.tagSeq, Cmd: flit.CmdWrite64, Addr: ev}, g.observeCb)
	}
}

// SetNetwork attaches the GPU to node of a multi-cube network; all
// memory traffic then routes by home cube (the attached cube keeps
// serving local addresses). Must be called before Launch.
func (g *GPU) SetNetwork(net *hmc.Network, node int) {
	g.net = net
	g.nodeID = node
}

// submitAt injects a request into memory with link entry no earlier
// than t, returning the credit-clear (accepted) time.
//
//coolpim:hotpath
func (g *GPU) submitAt(t units.Time, req flit.Request, done func(flit.Response, units.Time)) units.Time {
	if g.net != nil {
		return g.net.Submit(g.nodeID, t, req, done)
	}
	return g.cube.Submit(t, req, done)
}

// observe inspects every response for the thermal-warning ERRSTAT and
// forwards it to the throttling policy.
func (g *GPU) observe(resp flit.Response) {
	if resp.ThermalWarning() {
		g.policy.OnThermalWarning(g.eng.Now()) //coolpim:allow hotalloc thermal-warning feedback fires only on ERRSTAT-flagged responses; handlers do bounded counter updates
	}
}
