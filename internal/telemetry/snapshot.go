package telemetry

import (
	"bytes"

	"coolpim/internal/units"
)

// Snapshot is an immutable view of a run's observability state, built
// on the simulation goroutine and handed to a SnapshotSink. Readers
// (the diag server's HTTP handlers) only ever see whole published
// snapshots through an atomic pointer swap — they never touch the live
// registry or span store, which are not safe for concurrent
// use. This is the snapshot-publication rule that keeps the simulation
// deterministic and race-free with a diag server attached.
type Snapshot struct {
	RunID   string
	SimTime units.Time
	// Metrics is the Prometheus text rendering of the registry.
	Metrics []byte
	// Spans is a JSON array of the most recent spans (live view,
	// including wall stamps).
	Spans []byte
	// TraceEvents / SpanCount are cheap progress totals for /healthz:
	// the stream's instants and spans.
	TraceEvents int
	SpanCount   int
}

// SnapshotSink receives published snapshots. Implementations must
// treat the snapshot as immutable and must not block (the publisher
// runs on the simulation goroutine).
type SnapshotSink interface {
	PublishSnapshot(*Snapshot)
}

// snapshotSpanLimit bounds the span payload of one snapshot; the full
// tree is available via -spans-out after the run.
const snapshotSpanLimit = 512

// BuildSnapshot renders the hub's current state into an immutable
// snapshot stamped with the given simulated time.
func (t *Telemetry) BuildSnapshot(now units.Time) *Snapshot {
	if t == nil {
		return nil
	}
	spans, instants := t.Spans.counts()
	var metrics bytes.Buffer
	if t.Registry != nil {
		_ = t.Registry.WritePrometheus(&metrics)
	}
	return &Snapshot{
		RunID:       t.RunID,
		SimTime:     now,
		Metrics:     metrics.Bytes(),
		Spans:       t.Spans.snapshotJSON(snapshotSpanLimit),
		TraceEvents: instants,
		SpanCount:   spans,
	}
}

// Publish builds a snapshot and hands it to the attached sink, if any.
// Harness wiring (internal/system) calls this from a periodic engine
// event and once at run end; with no sink attached it is a no-op.
func (t *Telemetry) Publish(now units.Time) {
	if t == nil || t.Sink == nil {
		return
	}
	t.Sink.PublishSnapshot(t.BuildSnapshot(now))
}
