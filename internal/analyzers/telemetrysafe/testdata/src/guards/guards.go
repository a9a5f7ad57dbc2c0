// Package telemetry is analyzer testdata loaded under the import path
// coolpim/internal/telemetry: exported pointer-receiver methods on
// instrument types must open with a nil-receiver guard so that a nil
// instrument is the disabled state.
package telemetry

// SpanTracer mimics an instrument type (the name is what matters).
type SpanTracer struct{ n int }

// Emit is guarded: ok.
func (t *SpanTracer) Emit(msg string) {
	if t == nil {
		return
	}
	t.n++
}

// EmitIf is guarded with a compound short-circuit condition: ok.
func (t *SpanTracer) EmitIf(cond bool, msg string) {
	if t == nil || !cond {
		return
	}
	t.n++
}

func (t *SpanTracer) Record(msg string) { // want `exported SpanTracer.Record must begin with`
	t.n++
}

// Enabled is the predicate shape, dereferencing nothing: ok.
func (t *SpanTracer) Enabled() bool { return t != nil }

// emit is unexported and runs post-guard: ok.
func (t *SpanTracer) emit(msg string) { t.n++ }

// Len guards via reversed operands: ok.
func (t *SpanTracer) Len() int {
	if nil == t {
		return 0
	}
	return t.n
}

// Name is guarded: ok.
func (t *SpanTracer) Name(s string) int {
	if t == nil {
		return 0
	}
	t.n++
	return t.n
}

func (t *SpanTracer) StartSpan(name int) { // want `exported SpanTracer.StartSpan must begin with`
	t.n++
}

// Registry is registration-time plumbing, exempt by design: ok.
type Registry struct{ names map[string]bool }

// Claim may assume a live registry.
func (r *Registry) Claim(name string) { r.names[name] = true }

// FlightRecorder mimics the crash-dump ring: nil means not recording.
type FlightRecorder struct{ n int }

// Record is guarded: ok.
func (f *FlightRecorder) Record(kind string) {
	if f == nil {
		return
	}
	f.n++
}

func (f *FlightRecorder) Dump() int { // want `exported FlightRecorder.Dump must begin with`
	return f.n
}
