package telemetry

import (
	"fmt"

	"coolpim/internal/units"
)

// The instant taxonomy: the closed control loop's typed events, stored
// by SpanTracer as zero-duration records (ID 0, Start == End) beside
// the spans. Names use a dotted <subsystem>.<event> scheme so a stream
// can be filtered by prefix. NewSpanTracer pre-interns them, so the
// constants are valid handles on every tracer (SetMinGap included).
// Each kind documents its payload fields.
const (
	// EvWarnRaise / EvWarnClear mark the cube entering/leaving the
	// thermal-warning state (ERRSTAT 0x01 set in response tails).
	// Fields: temp_c.
	EvWarnRaise SpanName = iota + 1
	EvWarnClear
	// EvPhase marks a DRAM derating phase transition (Table IV).
	// Fields: from, to, temp_c.
	EvPhase
	// EvShutdown marks the cube exceeding the 105 °C operating limit.
	// Fields: temp_c.
	EvShutdown
	// EvPoolInit records a throttling mechanism's initial capacity.
	// Fields: mechanism, size.
	EvPoolInit
	// EvPoolResize records one control update: a SW-DynT token-pool
	// reduction or a HW-DynT aggregate PCU-limit step.
	// Fields: mechanism, from, to, reason ("warning" or "critical").
	EvPoolResize
	// EvOffloadAccept / EvOffloadReject record the block-launch offload
	// decision: whether the thread-block manager launched the PIM-enabled
	// kernel (token acquired / PCU path) or the non-PIM shadow kernel.
	// Fields: sm, block.
	EvOffloadAccept
	EvOffloadReject
	// EvBackpressure records link-layer credit flow control delaying a
	// request's acceptance beyond its serialization time (a congested
	// bank holding back the sender). Fields: link, wait_ns. System
	// wiring rate-limits it with SetMinGap.
	EvBackpressure
)

// instantNames maps each instant handle to its name.
var instantNames = [...]string{
	EvWarnRaise:     "thermal.warning.raise",
	EvWarnClear:     "thermal.warning.clear",
	EvPhase:         "thermal.phase",
	EvShutdown:      "thermal.shutdown",
	EvPoolInit:      "pool.init",
	EvPoolResize:    "pool.resize",
	EvOffloadAccept: "offload.accept",
	EvOffloadReject: "offload.reject",
	EvBackpressure:  "link.backpressure",
}

// instant records one zero-duration record of kind at at; data is its
// pre-rendered payload (a JSON object body, or empty). It shares the
// spans' min-gap sampling, cap and flight hook.
func (t *SpanTracer) instant(at units.Time, kind SpanName, data string) {
	t.mu.Lock()
	if !t.admit(at, kind) {
		t.mu.Unlock()
		return
	}
	t.spans = append(t.spans, spanRec{name: kind, start: at, end: at, data: data})
	fl := t.flight
	t.mu.Unlock()
	if fl != nil {
		fd := fmt.Sprintf(`"kind":%q`, instantNames[kind])
		if data != "" {
			fd += "," + data
		}
		fl.Record(at, "event", fd)
	}
}

// ThermalWarning records the cube raising (raised=true) or clearing the
// thermal-warning state.
//
//coolpim:hotpath nilfast disabled-tracer emit is a no-op
func (t *SpanTracer) ThermalWarning(at units.Time, raised bool, temp units.Celsius) {
	if t == nil {
		return
	}
	kind := EvWarnRaise
	if !raised {
		kind = EvWarnClear
	}
	t.instant(at, kind, fmt.Sprintf(`"temp_c":%.2f`, float64(temp)))
}

// PhaseTransition records a DRAM derating phase change.
//
//coolpim:hotpath nilfast disabled-tracer emit is a no-op
func (t *SpanTracer) PhaseTransition(at units.Time, from, to string, temp units.Celsius) {
	if t == nil {
		return
	}
	t.instant(at, EvPhase, fmt.Sprintf(`"from":%q,"to":%q,"temp_c":%.2f`, from, to, float64(temp)))
}

// Shutdown records a thermal shutdown.
//
//coolpim:hotpath nilfast disabled-tracer emit is a no-op
func (t *SpanTracer) Shutdown(at units.Time, temp units.Celsius) {
	if t == nil {
		return
	}
	t.instant(at, EvShutdown, fmt.Sprintf(`"temp_c":%.2f`, float64(temp)))
}

// PoolInit records a throttling mechanism's initial capacity.
//
//coolpim:hotpath nilfast disabled-tracer emit is a no-op
func (t *SpanTracer) PoolInit(at units.Time, mechanism string, size int) {
	if t == nil {
		return
	}
	t.instant(at, EvPoolInit, fmt.Sprintf(`"mechanism":%q,"size":%d`, mechanism, size))
}

// PoolResize records one control update of a throttling mechanism.
//
//coolpim:hotpath nilfast disabled-tracer emit is a no-op
func (t *SpanTracer) PoolResize(at units.Time, mechanism string, from, to int, reason string) {
	if t == nil {
		return
	}
	t.instant(at, EvPoolResize, fmt.Sprintf(`"mechanism":%q,"from":%d,"to":%d,"reason":%q`,
		mechanism, from, to, reason))
}

// OffloadBlock records a block-launch offload decision.
//
//coolpim:hotpath nilfast disabled-tracer emit is a no-op
func (t *SpanTracer) OffloadBlock(at units.Time, accepted bool, sm, block int) {
	if t == nil {
		return
	}
	kind := EvOffloadAccept
	if !accepted {
		kind = EvOffloadReject
	}
	t.instant(at, kind, fmt.Sprintf(`"sm":%d,"block":%d`, sm, block))
}

// LinkBackpressure records credit flow control delaying acceptance on a
// link by wait.
//
//coolpim:hotpath nilfast disabled-tracer emit is a no-op
func (t *SpanTracer) LinkBackpressure(at units.Time, link int, wait units.Time) {
	if t == nil {
		return
	}
	t.instant(at, EvBackpressure, fmt.Sprintf(`"link":%d,"wait_ns":%.1f`, link, wait.Nanoseconds()))
}
