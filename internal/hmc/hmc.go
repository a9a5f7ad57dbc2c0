// Package hmc models an HMC 2.0 cube at transaction granularity: four
// serial links with FLIT-level serialization (Table I), a crossbar to 32
// vaults of 16 banks each (Table IV), per-vault TSV data buses, vault
// controllers executing regular reads/writes and atomic PIM
// read-modify-writes in logic-layer functional units, temperature-phased
// DRAM derating, and the ERRSTAT thermal-warning channel in response
// tails that CoolPIM's feedback loop is built on.
package hmc

import (
	"fmt"

	"coolpim/internal/dram"
	"coolpim/internal/flit"
	"coolpim/internal/mem"
	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// Config describes the cube.
type Config struct {
	Vaults        int
	BanksPerVault int
	Links         int
	// LinkDirGBps is the raw serialization bandwidth of one link
	// direction (HMC 2.0: 16 lanes × 30 Gb/s = 60 GB/s per direction,
	// i.e. "120 GB/s per link" aggregate).
	LinkDirGBps float64
	// LinkLatency is the propagation + SerDes latency of a link.
	LinkLatency units.Time
	// CtrlOverhead is the vault-controller processing time per request.
	CtrlOverhead units.Time
	Timing       dram.Timing
	// WarnTemp is the temperature at which the cube starts setting the
	// thermal-warning ERRSTAT in responses (the top of the normal
	// operating range).
	WarnTemp units.Celsius
	// RecoveryDelay is the post-shutdown recovery time ("tens of
	// seconds" on the prototype).
	RecoveryDelay units.Time
	// CreditWindow approximates the link-layer credit flow control:
	// Submit's accepted-time does not run further ahead of the target
	// bank than this window, so senders of posted (no-response-needed)
	// traffic are throttled instead of queueing unboundedly.
	CreditWindow units.Time
}

// DefaultConfig returns the Table IV HMC 2.0 configuration.
func DefaultConfig() Config {
	return Config{
		Vaults:        32,
		BanksPerVault: 16,
		Links:         4,
		LinkDirGBps:   60,
		LinkLatency:   units.FromNanoseconds(8),
		CtrlOverhead:  units.FromNanoseconds(4),
		Timing:        dram.DefaultTiming(),
		WarnTemp:      dram.NormalLimit,
		RecoveryDelay: 20 * units.Second,
		CreditWindow:  units.FromNanoseconds(2000),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Vaults <= 0 || c.BanksPerVault <= 0 || c.Links <= 0:
		return fmt.Errorf("hmc: non-positive geometry %+v", c)
	case c.Vaults%c.Links != 0:
		return fmt.Errorf("hmc: %d vaults not divisible across %d links", c.Vaults, c.Links)
	case c.LinkDirGBps <= 0:
		return fmt.Errorf("hmc: non-positive link bandwidth")
	}
	return nil
}

// Counters is a snapshot of the cube's cumulative activity. The system's
// thermal driver samples it periodically and differences consecutive
// snapshots to obtain windowed bandwidth and PIM rate.
type Counters struct {
	Reads  uint64
	Writes uint64
	PIMOps uint64
	// ExtDataBytes is off-chip payload traffic (64 B per read/write,
	// 16 B per PIM operand exchange).
	ExtDataBytes uint64
	// InternalRegularBytes is DRAM traffic serving regular requests.
	InternalRegularBytes uint64
	// ReqFlits/RespFlits are raw link occupancies.
	ReqFlits  uint64
	RespFlits uint64

	// Latency decomposition sums (diagnostics): submission-to-delivery
	// per class, and the queueing components.
	ReadLatencySum  units.Time
	WriteLatencySum units.Time
	PIMLatencySum   units.Time
	BankQueueSum    units.Time // wait for the bank to free
	LinkQueueSum    units.Time // wait for the request serializer
	BusQueueSum     units.Time // wait for the vault TSV bus
	RespQueueSum    units.Time // wait for the response serializer
}

type serializer struct {
	busyUntil units.Time
	flitTime  units.Time // current (possibly derated) FLIT serialization time
	baseFlit  units.Time
}

// book reserves the serializer for n FLITs starting no earlier than now,
// returning the completion time.
func (s *serializer) book(now units.Time, n int) units.Time {
	start := max(now, s.busyUntil)
	s.busyUntil = start + s.flitTime.Times(n)
	return s.busyUntil
}

type vault struct {
	banks    []dram.Bank
	busBusy  units.Time
	counters Counters
}

// Cube is the timing and functional model of one HMC package.
type Cube struct {
	cfg   Config
	eng   *sim.Engine
	label sim.Label // pre-interned "hmc" profiling label
	space *mem.Space

	reqLinks  []*serializer
	respLinks []*serializer
	vaults    []*vault
	freeReq   *reqState // recycled in-flight request states (reqstate.go)

	phase    dram.Phase
	timing   dram.Timing // derated per phase
	warning  bool
	shutdown bool
	shutTime units.Time

	counters Counters

	// OnShutdown, if set, is invoked once when the cube overheats past
	// the critical phase.
	OnShutdown func(now units.Time)
	// DisableThermalEffects models the Ideal-Thermal configuration: the
	// cube never derates, warns, or shuts down.
	DisableThermalEffects bool
	// Span wiring (SetSpans): one "hmc.read"/"hmc.write"/"hmc.pim" span
	// per request, from submission to response delivery, and the cube's
	// thermal and link instants (warning raise/clear, derating phase
	// transitions, shutdown, credit backpressure). System wiring
	// rate-limits the request families and backpressure
	// (SpanTracer.SetMinGap) so full-scale runs keep one representative
	// record per thermal tick.
	spans     *telemetry.SpanTracer
	spanRead  telemetry.SpanName
	spanWrite telemetry.SpanName
	spanPIM   telemetry.SpanName
}

// New builds a cube attached to an engine and a functional memory.
func New(eng *sim.Engine, space *mem.Space, cfg Config) *Cube {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	flitTime := units.Time(float64(flit.FlitBytes) / (cfg.LinkDirGBps * 1e9) * float64(units.Second))
	c := &Cube{cfg: cfg, eng: eng, label: eng.Label("hmc"), space: space, phase: dram.PhaseNormal, timing: cfg.Timing}
	for i := 0; i < cfg.Links; i++ {
		c.reqLinks = append(c.reqLinks, &serializer{flitTime: flitTime, baseFlit: flitTime})
		c.respLinks = append(c.respLinks, &serializer{flitTime: flitTime, baseFlit: flitTime})
	}
	for i := 0; i < cfg.Vaults; i++ {
		c.vaults = append(c.vaults, &vault{banks: make([]dram.Bank, cfg.BanksPerVault)})
	}
	return c
}

// SetSpans attaches a span tracer (nil disables span recording at zero
// cost) and pre-interns the cube's span names.
func (c *Cube) SetSpans(st *telemetry.SpanTracer) {
	c.spans = st
	c.spanRead = st.Name("hmc.read")
	c.spanWrite = st.Name("hmc.write")
	c.spanPIM = st.Name("hmc.pim")
}

// Config returns the cube configuration.
func (c *Cube) Config() Config { return c.cfg }

// Counters returns the cumulative activity snapshot.
func (c *Cube) Counters() Counters { return c.counters }

// VaultActivityInto fills dst with the per-vault relative activity
// weights (by internal traffic + PIM ops), used to spatially distribute
// power on the thermal grid, and returns it. The caller owns the
// buffer, so the per-tick thermal coupling reuses one scratch slice
// instead of allocating every tick. dst must have exactly one slot per
// vault.
func (c *Cube) VaultActivityInto(dst []float64) []float64 {
	if len(dst) != len(c.vaults) {
		panic(fmt.Sprintf("hmc: activity buffer for %d vaults, cube has %d", len(dst), len(c.vaults)))
	}
	for i, v := range c.vaults {
		dst[i] = float64(v.counters.InternalRegularBytes) + 32*float64(v.counters.PIMOps)
	}
	return dst
}

// SetTemperature updates the cube's thermal state from the thermal
// model's peak DRAM temperature. It applies phase-based derating
// (Table IV: 20 % frequency reduction per phase above 85 °C, doubled
// refresh), raises the warning flag at the warning threshold, and shuts
// the cube down above 105 °C.
//
// It runs once per thermal tick of every closed-loop run.
//
//coolpim:hotpath
func (c *Cube) SetTemperature(now units.Time, temp units.Celsius) {
	if c.DisableThermalEffects || c.shutdown {
		return
	}
	phase := dram.PhaseForTemp(temp)
	wasWarning := c.warning
	c.warning = temp > c.cfg.WarnTemp
	if c.warning != wasWarning {
		c.spans.ThermalWarning(now, c.warning, temp)
	}
	if phase == dram.PhaseShutdown {
		c.shutdown = true
		c.shutTime = now
		c.spans.Shutdown(now, temp)
		if c.OnShutdown != nil {
			c.OnShutdown(now) //coolpim:allow hotalloc shutdown callback fires at most once per run, on the terminal overheat event
		}
		return
	}
	if phase != c.phase {
		c.spans.PhaseTransition(now, c.phase.String(), phase.String(), temp)
		c.phase = phase
		// Derate all DRAM timing by the phase's frequency reduction and
		// fold the refresh duty cycle in as a multiplicative occupancy
		// factor (tRFC per effective tREFI).
		scaled := c.cfg.Timing.Scale(phase.TimingScale())
		duty := float64(scaled.TRFC) / float64(dram.RefreshInterval(scaled, phase))
		c.timing = scaled.Scale(1 + duty)
		// The paper models each high-temperature phase as a 20 % memory
		// frequency reduction: effective service capacity — including
		// the link protocol throttled by the slowed device — drops by
		// the same factor, not just the bank arrays.
		for _, l := range c.reqLinks {
			l.flitTime = units.Time(float64(l.baseFlit) * phase.TimingScale())
		}
		for _, l := range c.respLinks {
			l.flitTime = units.Time(float64(l.baseFlit) * phase.TimingScale())
		}
	}
}

func (c *Cube) vaultOf(addr uint64) int {
	return int(addr>>6) % c.cfg.Vaults
}

func (c *Cube) bankOf(addr uint64) int {
	return int(addr>>6) / c.cfg.Vaults % c.cfg.BanksPerVault
}

func (c *Cube) linkOf(vaultID int) int { return vaultID % c.cfg.Links }

// Submit injects a request at the current simulated time. done is called
// exactly once, at the simulated delivery time of the response packet.
// The returned acceptedAt is when the link-layer credits for the request
// clear: the sender must not issue dependent work (or, for posted
// writes/no-return PIM, consider the request retired) before then — this
// is what bounds the inflow to a congested cube.
// The request enters the link no earlier than at (which must not be in
// the past).
//
// Submit is the cube's per-request service path: every read, write and
// PIM packet of every workload flows through it. Its steps are the
// host request link (ingress), the vault stage it shares with
// ServeRemote (serve) and functional execution (execute); the host
// response link (egress) is booked once the data is ready.
//
//coolpim:hotpath
func (c *Cube) Submit(at units.Time, req flit.Request, done func(resp flit.Response, at units.Time)) (acceptedAt units.Time) {
	now := max(c.eng.Now(), at)
	if c.shutdown {
		return c.unreachable(req.Tag, req.Cmd, done)
	}
	vid := c.vaultOf(req.Addr)
	lid := c.linkOf(vid)
	respFlits := flit.ResponseFlits(req.Cmd, req.WithReturn)
	arrive := c.ingress(now, lid, req.Flits(), respFlits)
	r, dataAt := c.serve(now, arrive, vid, lid, respFlits, &req, done)
	// Only a PIM request executes here: the GPU side serves and applies
	// read and write payloads at line granularity.
	if req.Cmd.IsPIM() {
		c.execute(&req, &r.resp)
	}

	// Credit flow control: acceptance lags a congested bank.
	acceptedAt = arrive
	if bp := dataAt - c.cfg.CreditWindow; bp > acceptedAt {
		acceptedAt = bp
		// Stamp with the engine's current time, not the (possibly
		// future) link-entry time, to keep the trace monotone.
		c.spans.LinkBackpressure(c.eng.Now(), lid, acceptedAt-arrive)
	}
	return acceptedAt
}

// ServeRemote runs the vault stage for a request that arrived over the
// inter-cube network at at. There is no host-link serialization (the
// packet came in over a network port) and no functional execution (that
// stayed at the source node). done fires on this cube's domain when the
// response data is ready to leave toward the network egress, carrying
// the cube's current ERRSTAT.
//
//coolpim:hotpath
func (c *Cube) ServeRemote(at units.Time, req *flit.Request, done func(resp flit.Response, at units.Time)) {
	now := max(c.eng.Now(), at)
	if c.shutdown {
		c.unreachable(req.Tag, req.Cmd, done)
		return
	}
	c.serve(now, now, c.vaultOf(req.Addr), -1, 0, req, done) // link -1: the reply leaves via the network
}

// unreachable answers a request to a shut-down cube, which stays
// unreachable until recovery; the data is lost. done receives the 0x7F
// error status after the recovery delay, so callers unblock eventually
// (experiments treat this as failure), and the delivery time is
// returned. Only scalar copies are captured — capturing the request
// would force it to the heap on the live path too.
//
//coolpim:hotpath
func (c *Cube) unreachable(tag uint64, cmd flit.Command, done func(resp flit.Response, at units.Time)) units.Time {
	back := c.shutTime + c.cfg.RecoveryDelay
	//coolpim:allow hotalloc post-shutdown error delivery; the cube is already off the performance path
	c.eng.AtLabel(back, c.label, func(at units.Time) {
		done(flit.Response{Tag: tag, Cmd: cmd, ErrStat: 0x7F}, at) //coolpim:allow hotalloc completion callback is inherently dynamic; rare post-shutdown path
	})
	return back
}

// ingress serializes a request of reqFlits FLITs over host request link
// lid, no earlier than now, and counts the FLITs of the request and of
// its response. It returns the time the request reaches the vault
// controller. The caller picks the link, which keeps this step small
// enough to inline.
//
//coolpim:hotpath
func (c *Cube) ingress(now units.Time, lid, reqFlits, respFlits int) units.Time {
	c.counters.ReqFlits += uint64(reqFlits)
	c.counters.RespFlits += uint64(respFlits)
	l := c.reqLinks[lid]
	if busy := l.busyUntil; busy > now {
		c.counters.LinkQueueSum += busy - now
	}
	return l.book(now, reqFlits) + c.cfg.LinkLatency
}

// serve is the vault stage of every request on its home cube: the
// command's counters, its span, controller overhead and bank scheduling
// from arrive, and a pooled reqState whose data-ready event arbitrates
// the TSV bus and, when lid names a host link, the respFlits-FLIT
// response on it. lid -1 marks a reply that leaves through the
// network. now is when the request was submitted to this cube. serve
// returns the state, whose response the caller may fill in before any
// event runs, and the time the bank has the data.
//
//coolpim:hotpath
func (c *Cube) serve(now, arrive units.Time, vid, lid, respFlits int, req *flit.Request, done func(resp flit.Response, at units.Time)) (*reqState, units.Time) {
	v := c.vaults[vid]
	var kind dram.AccessKind
	var busBytes int
	var span telemetry.SpanName
	switch {
	case req.Cmd == flit.CmdRead64:
		kind, busBytes, span = dram.ReadAccess, 64, c.spanRead
		c.counters.Reads++
		c.counters.ExtDataBytes += 64
		c.counters.InternalRegularBytes += 64
		v.counters.Reads++
		v.counters.InternalRegularBytes += 64
	case req.Cmd == flit.CmdWrite64:
		kind, busBytes, span = dram.WriteAccess, 64, c.spanWrite
		c.counters.Writes++
		c.counters.ExtDataBytes += 64
		c.counters.InternalRegularBytes += 64
		v.counters.Writes++
		v.counters.InternalRegularBytes += 64
	case req.Cmd.IsPIM():
		kind, busBytes, span = dram.PIMAccess, 32, c.spanPIM // operand crosses the TSV twice
		c.counters.PIMOps++
		c.counters.ExtDataBytes += 16
		v.counters.PIMOps++
	default:
		panic(fmt.Sprintf("hmc: serve %v", req.Cmd))
	}
	sp := c.spans.StartSpan(now, span)

	bank := &v.banks[c.bankOf(req.Addr)]
	ctrlDone := arrive + c.cfg.CtrlOverhead
	if free := bank.FreeAt(); free > ctrlDone {
		c.counters.BankQueueSum += free - ctrlDone
	}
	dataAt, _ := bank.Schedule(ctrlDone, kind, &c.timing)

	// The TSV bus and the response link are arbitrated when the data is
	// actually ready (reqState.dataReady) — booking them here would
	// impose artificial head-of-line blocking across in-flight requests
	// whose bank queues differ. The in-flight state rides a pooled
	// reqState, not per-request closures.
	r := c.getReq()
	r.v = v
	r.lid = lid
	r.kind = kind
	r.respFlits = respFlits
	r.busTime = units.Time(float64(c.timing.TBurst64) * float64(busBytes) / 64.0)
	r.submitAt = now
	r.resp = flit.Response{Tag: req.Tag, Cmd: req.Cmd, WithReturn: req.WithReturn}
	r.sp = sp
	r.done = done
	c.eng.AtLabel(dataAt, c.label, r.dataFn)
	return r, dataAt
}

// execute applies a PIM request's atomic to the cube's functional
// memory, in submission order, and writes its outcome into resp.
//
//coolpim:hotpath
func (c *Cube) execute(req *flit.Request, resp *flit.Response) {
	old, ok := c.space.Atomic(pimToMemOp(req.Cmd), req.Addr, uint32(req.Imm), uint32(req.Imm2))
	resp.Atomic = ok
	if req.WithReturn {
		resp.Data = uint64(old)
	}
}

// egress serializes a response of flits FLITs over host response link
// lid, no earlier than at, and returns its delivery time at the host.
//
//coolpim:hotpath
func (c *Cube) egress(lid int, at units.Time, flits int) units.Time {
	l := c.respLinks[lid]
	if busy := l.busyUntil; busy > at {
		c.counters.RespQueueSum += busy - at
	}
	return l.book(at, flits) + c.cfg.LinkLatency
}

// pimToMemOp maps a PIM link command to its functional atomic.
func pimToMemOp(cmd flit.Command) mem.AtomicOp {
	switch cmd {
	case flit.CmdPIMSignedAdd:
		return mem.AtomicAdd
	case flit.CmdPIMFloatAdd:
		return mem.AtomicFAdd
	case flit.CmdPIMSwap, flit.CmdPIMBitWrite:
		return mem.AtomicExch
	case flit.CmdPIMAnd:
		return mem.AtomicAnd
	case flit.CmdPIMOr:
		return mem.AtomicOr
	case flit.CmdPIMXor:
		return mem.AtomicXor
	case flit.CmdPIMCASEqual:
		return mem.AtomicCAS
	case flit.CmdPIMCASGreater:
		return mem.AtomicMax
	case flit.CmdPIMCASLess:
		return mem.AtomicMin
	}
	panic(fmt.Sprintf("hmc: no atomic for %v", cmd))
}

// MemOpToPIM maps a functional atomic to its PIM link command; ok is
// false for operations without a PIM encoding.
func MemOpToPIM(op mem.AtomicOp) (flit.Command, bool) {
	switch op {
	case mem.AtomicAdd, mem.AtomicSub: // sub encodes as signed add of the negated immediate
		return flit.CmdPIMSignedAdd, true
	case mem.AtomicFAdd:
		return flit.CmdPIMFloatAdd, true
	case mem.AtomicExch:
		return flit.CmdPIMSwap, true
	case mem.AtomicAnd:
		return flit.CmdPIMAnd, true
	case mem.AtomicOr:
		return flit.CmdPIMOr, true
	case mem.AtomicXor:
		return flit.CmdPIMXor, true
	case mem.AtomicCAS:
		return flit.CmdPIMCASEqual, true
	case mem.AtomicMax:
		return flit.CmdPIMCASGreater, true
	case mem.AtomicMin:
		return flit.CmdPIMCASLess, true
	}
	return flit.CmdInvalid, false
}
