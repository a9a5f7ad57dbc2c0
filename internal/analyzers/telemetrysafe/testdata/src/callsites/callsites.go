// Package callsites is analyzer testdata for telemetrysafe's call-site
// rule: arguments to instrument methods are evaluated before the
// callee's nil guard, so they must not allocate unless an enclosing
// check proved telemetry enabled.
package callsites

import (
	"fmt"

	"coolpim/internal/telemetry"
	"coolpim/internal/units"
)

func emit(st *telemetry.SpanTracer, at units.Time, vault int, name string) {
	st.PoolInit(at, fmt.Sprintf("vault-%d", vault), 4) // want `fmt.Sprintf call is evaluated before SpanTracer.PoolInit`
	st.PoolInit(at, "vault-3", 4)                      // ok: constant payload
	st.PoolInit(at, "vault-"+name, 4)                  // want `non-constant string concatenation`
	st.PoolInit(at, "vault-"+"3", 4)                   // ok: folded at compile time

	if st != nil {
		st.PoolInit(at, fmt.Sprintf("vault-%d", vault), 4) // ok: behind an explicit nil guard
	}
}

func hub(h *telemetry.Telemetry, at units.Time, v int) {
	if h.Enabled() {
		h.Spans.PoolInit(at, fmt.Sprintf("pcu-%d", v), v) // ok: behind an Enabled() guard
	}
}

func spans(st *telemetry.SpanTracer, at units.Time, key string) {
	st.Name("job:" + key)   // want `non-constant string concatenation`
	st.Name("thermal.tick") // ok: constant name
	n := st.Name(key)       // ok: plain value argument
	st.StartSpan(at, n)

	if st != nil {
		st.Name("job:" + key) // ok: behind an explicit nil guard
	}
}

func flight(fr *telemetry.FlightRecorder, at units.Time, temp float64) {
	fr.Record(at, "thermal", fmt.Sprintf(`"temp_c":%.2f`, temp)) // want `fmt.Sprintf call is evaluated before FlightRecorder.Record`
	fr.Record(at, "thermal", `"temp_c":85`)                      // ok: constant payload
}
