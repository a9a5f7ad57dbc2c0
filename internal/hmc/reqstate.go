package hmc

import (
	"coolpim/internal/dram"
	"coolpim/internal/flit"
	"coolpim/internal/sim"
	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

// reqState carries one in-flight request's routing and latency state
// from submit to response delivery. Historically Submit captured this
// state in two closures per request — the residual 4 allocs/op on the
// cube throughput path. States are pooled on the cube's freelist with
// both event functions pre-bound at construction, so the steady-state
// Submit path performs no allocations (TestCubeSubmitZeroAllocs pins
// it); the pool grows to the peak in-flight depth once and is reused
// thereafter.
type reqState struct {
	c *Cube
	v *vault
	// lid is the host response link, or -1 for a request that arrived
	// over the inter-cube network (Cube.ServeRemote): its response leaves
	// via a network egress port, so dataReady books no host link.
	lid       int
	kind      dram.AccessKind
	respFlits int
	busTime   units.Time
	submitAt  units.Time
	resp      flit.Response
	sp        telemetry.Span
	done      func(resp flit.Response, at units.Time)
	dataFn    sim.Event // pre-bound r.dataReady
	deliverFn sim.Event // pre-bound r.deliver
	next      *reqState
}

// getReq pops a pooled state or grows the pool by one.
//
//coolpim:hotpath
func (c *Cube) getReq() *reqState {
	r := c.freeReq
	if r == nil {
		//coolpim:allow hotalloc pool growth: one state + two bound event funcs per unit of peak in-flight depth, ever; the steady state recycles
		r = &reqState{c: c}
		r.dataFn = r.dataReady  //coolpim:allow hotalloc bound once per pooled state, reused for every request it carries
		r.deliverFn = r.deliver //coolpim:allow hotalloc bound once per pooled state, reused for every request it carries
		return r
	}
	c.freeReq = r.next
	r.next = nil
	return r
}

// putReq recycles a delivered state, dropping caller references so the
// pool never pins a workload's callback graph.
func (c *Cube) putReq(r *reqState) {
	r.done = nil
	r.sp = telemetry.Span{}
	r.next = c.freeReq
	c.freeReq = r
}

// dataReady arbitrates the TSV bus and the host response link once the
// bank has the data — booking them at submit time would impose
// artificial head-of-line blocking across in-flight requests whose bank
// queues differ.
//
//coolpim:hotpath
func (r *reqState) dataReady(at units.Time) {
	c := r.c
	busStart := max(at, r.v.busBusy)
	c.counters.BusQueueSum += busStart - at
	busDone := busStart + r.busTime
	r.v.busBusy = busDone
	deliver := busDone
	if r.lid >= 0 {
		deliver = c.egress(r.lid, busDone, r.respFlits)
	}
	switch r.kind {
	case dram.ReadAccess:
		c.counters.ReadLatencySum += deliver - r.submitAt
	case dram.WriteAccess:
		c.counters.WriteLatencySum += deliver - r.submitAt
	case dram.PIMAccess:
		c.counters.PIMLatencySum += deliver - r.submitAt
	}
	c.eng.AtLabel(deliver, c.label, r.deliverFn)
}

// deliver stamps the cube's ERRSTAT into the response tail, hands the
// response to the caller at its simulated delivery time and recycles
// the state (before the callback, so a handler that re-submits reuses
// this state instead of growing the pool). For a request served over
// the network the cube stamps at its own egress, so the warning travels
// back to the source node exactly as on the host-link path.
//
//coolpim:hotpath
func (r *reqState) deliver(at units.Time) {
	c := r.c
	if c.warning && !c.DisableThermalEffects {
		r.resp.ErrStat = flit.ErrThermalWarning
	}
	r.sp.End(at)
	done, resp := r.done, r.resp
	c.putReq(r)
	done(resp, at) //coolpim:allow hotalloc completion callback is inherently dynamic; the caller's handler is proven by its own hotpath root
}
