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
	tags     uint64

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

// VaultActivity returns per-vault relative activity weights (by internal
// traffic + PIM ops), used to spatially distribute power on the thermal
// grid.
func (c *Cube) VaultActivity() []float64 {
	return c.VaultActivityInto(make([]float64, len(c.vaults)))
}

// VaultActivityInto fills dst with the per-vault activity weights and
// returns it, so per-tick callers (the thermal coupling) can reuse one
// scratch buffer instead of allocating every tick. dst must have
// exactly one slot per vault.
func (c *Cube) VaultActivityInto(dst []float64) []float64 {
	if len(dst) != len(c.vaults) {
		panic(fmt.Sprintf("hmc: activity buffer for %d vaults, cube has %d", len(dst), len(c.vaults)))
	}
	for i, v := range c.vaults {
		dst[i] = float64(v.counters.InternalRegularBytes) + 32*float64(v.counters.PIMOps)
	}
	return dst
}

// Phase returns the cube's current DRAM operating phase.
func (c *Cube) Phase() dram.Phase { return c.phase }

// Warning reports whether the cube is currently raising thermal
// warnings.
func (c *Cube) Warning() bool { return c.warning }

// IsShutdown reports whether the cube has thermally shut down.
func (c *Cube) IsShutdown() bool { return c.shutdown }

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
// PIM packet of every workload flows through it.
//
//coolpim:hotpath
func (c *Cube) Submit(at units.Time, req flit.Request, done func(resp flit.Response, at units.Time)) (acceptedAt units.Time) {
	now := max(c.eng.Now(), at)
	if c.shutdown {
		// Post-shutdown: the cube is unreachable until recovery; data is
		// lost. Deliver an error response after the recovery delay so
		// callers unblock eventually (experiments treat this as failure).
		// Only scalar copies are captured — capturing req itself would
		// force the request parameter to heap on the live path too.
		tag, cmd := req.Tag, req.Cmd
		//coolpim:allow hotalloc post-shutdown error delivery; the cube is already off the performance path
		c.eng.AtLabel(c.shutTime+c.cfg.RecoveryDelay, c.label, func(at units.Time) {
			done(flit.Response{Tag: tag, Cmd: cmd, ErrStat: 0x7F}, at) //coolpim:allow hotalloc completion callback is inherently dynamic; rare post-shutdown path
		})
		return c.shutTime + c.cfg.RecoveryDelay
	}
	c.tags++
	vid := c.vaultOf(req.Addr)
	v := c.vaults[vid]
	lid := c.linkOf(vid)

	reqFlits := req.Flits()
	respFlits := flit.ResponseFlits(req.Cmd, req.WithReturn)
	c.counters.ReqFlits += uint64(reqFlits)
	c.counters.RespFlits += uint64(respFlits)

	// 1. Request serialization and flight.
	if busy := c.reqLinks[lid].busyUntil; busy > now {
		c.counters.LinkQueueSum += busy - now
	}
	arrive := c.reqLinks[lid].book(now, reqFlits) + c.cfg.LinkLatency

	// 2. Vault controller + bank + TSV bus.
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
		kind, busBytes = dram.PIMAccess, 32 // operand crosses the TSV twice
		c.counters.PIMOps++
		c.counters.ExtDataBytes += 16
		v.counters.PIMOps++
	default:
		panic(fmt.Sprintf("hmc: submit %v", req.Cmd))
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
	ctrlDone := arrive + c.cfg.CtrlOverhead
	if free := bank.FreeAt(); free > ctrlDone {
		c.counters.BankQueueSum += free - ctrlDone
	}
	dataAt, _ := bank.Schedule(ctrlDone, kind, c.timing)

	// 3. Functional execution, in vault-processing order.
	resp := flit.Response{Tag: req.Tag, Cmd: req.Cmd, WithReturn: req.WithReturn}
	switch kind {
	case dram.ReadAccess:
		// The 64-byte payload is modelled at line granularity; the word
		// contents are served from functional memory by the GPU side.
	case dram.WriteAccess:
		// Payload writes are applied by the GPU side at line granularity.
	case dram.PIMAccess:
		old, ok := c.space.Atomic(mem.AtomicOp(pimToMemOp(req.Cmd)), req.Addr, uint32(req.Imm), uint32(req.Imm2))
		resp.Atomic = ok
		if req.WithReturn {
			resp.Data = uint64(old)
		}
	}

	// 4. TSV bus and response serialization are arbitrated when the data
	// is actually ready (reqState.dataReady) — booking them at submit
	// time would impose artificial head-of-line blocking across
	// in-flight requests whose bank queues differ. The in-flight state
	// rides a pooled reqState, not per-request closures.
	r := c.getReq()
	r.v = v
	r.lid = lid
	r.kind = kind
	r.respFlits = respFlits
	r.busTime = units.Time(float64(c.timing.TBurst64) * float64(busBytes) / 64.0)
	r.submitAt = now
	r.resp = resp
	r.sp = sp
	r.done = done
	c.eng.AtLabel(dataAt, c.label, r.dataFn)

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
