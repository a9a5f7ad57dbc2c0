// Package telemetry is the simulation-time observability layer shared by
// every component of the CoolPIM platform. It provides:
//
//   - a metrics Registry of counters, gauges and histograms with a
//     Prometheus-text exporter, the queryable end-of-run state of a run;
//   - a SpanTracer holding the run's one event stream: the span tree of
//     the causal chain (engine run, GPU kernels and blocks, HMC
//     requests, thermal ticks, throttle reactions) and, beside it, the
//     typed instants of the closed control loop — thermal warning
//     raise/clear, DRAM derating phase transitions, token-pool resizes,
//     PIM offload accept/reject, link FLIT backpressure — the Fig.
//     8/14-style view, exported as one JSONL file and as Chrome
//     trace_event JSON;
//   - a Series sampler driven by sim.Engine.Every that records aligned
//     per-component time series and exports them as CSV;
//   - an EngineProfile implementing sim.Observer, aggregating event
//     counts and wall-clock handler time per component label;
//   - a FlightRecorder ring of the most recent records for crash dumps.
//
// The whole layer is opt-in and nil-safe: components hold a *SpanTracer
// that may be nil, and every emit method on a nil tracer is a single
// predictable branch with no allocation, so the simulation hot path is
// unaffected when telemetry is disabled (see the package benchmarks).
// All recorded data is a pure function of the simulation, so two runs
// with identical seeds produce byte-identical span, series and metrics
// exports — the determinism regression test in internal/system relies
// on this. Wall-clock profiling data is kept out of those exporters for
// the same reason (it only appears in the human-readable summary and
// the live snapshots).
package telemetry

import (
	"fmt"
	"io"
	"sort"

	"coolpim/internal/units"
)

// Telemetry bundles the observability subsystem of one simulation run:
// one registry, one event stream, one time-series sampler and one engine
// profile. A nil *Telemetry means "disabled" throughout the codebase.
// A Telemetry must not be shared between concurrent runs.
type Telemetry struct {
	Registry *Registry
	Series   *Series
	Spans    *SpanTracer
	profile  *EngineProfile

	// Flight, if non-nil, is the crash-evidence ring buffer: the span
	// tracer feeds it copies of its records and the system wiring adds
	// thermal snapshots, so a panicking or wedged run can be
	// dumped post-mortem (see FlightRecorder). Opt-in; set it before the
	// run is wired.
	Flight *FlightRecorder

	// Sink, if non-nil, receives periodically published snapshots for
	// live inspection (see Snapshot); PublishEvery sets the cadence
	// (0 → the system config's sample interval). RunID labels the
	// snapshots.
	Sink         SnapshotSink
	PublishEvery units.Time
	RunID        string
}

// New returns an enabled, empty telemetry hub.
func New() *Telemetry {
	t := &Telemetry{
		Registry: NewRegistry(),
		Series:   NewSeries(),
		Spans:    NewSpanTracer(),
		profile:  NewEngineProfile(),
	}
	t.profile.spans = t.Spans
	return t
}

// Enabled reports whether the hub is active (non-nil).
func (t *Telemetry) Enabled() bool { return t != nil }

// Profile returns the engine profile observer, for sim.Engine.SetObserver.
// A disabled (nil) hub has no profile.
func (t *Telemetry) Profile() *EngineProfile {
	if t == nil {
		return nil
	}
	return t.profile
}

// EngineProfile aggregates engine-level profiling per component label:
// how many events each component executed and how much wall-clock time
// its handlers took. It implements sim.Observer structurally, and —
// when a span tracer is attached — sim.RunObserver as well, opening the
// "engine.run" root span around each Run/RunUntil so every component
// span of the run hangs off one root.
type EngineProfile struct {
	byLabel map[string]*labelStats
	spans   *SpanTracer
	runName SpanName
	runSpan Span
}

type labelStats struct {
	events uint64
	wallNs int64
}

// NewEngineProfile returns an empty profile.
func NewEngineProfile() *EngineProfile {
	return &EngineProfile{byLabel: make(map[string]*labelStats)}
}

// EventExecuted records one executed engine event (sim.Observer).
func (p *EngineProfile) EventExecuted(label string, _ units.Time, wallNs int64) {
	if p == nil {
		return
	}
	if label == "" {
		label = "(unlabeled)"
	}
	s := p.byLabel[label]
	if s == nil {
		s = &labelStats{}
		p.byLabel[label] = s
	}
	s.events++
	s.wallNs += wallNs
}

// RunStarted opens the "engine.run" root span (sim.RunObserver).
func (p *EngineProfile) RunStarted(at units.Time) {
	if p == nil || p.spans == nil {
		return
	}
	if p.runName == 0 {
		p.runName = p.spans.Name("engine.run")
	}
	p.runSpan = p.spans.StartRoot(at, p.runName)
}

// RunEnded closes the "engine.run" root span (sim.RunObserver).
func (p *EngineProfile) RunEnded(at units.Time) {
	if p == nil || p.spans == nil {
		return
	}
	p.runSpan.End(at)
	p.runSpan = Span{}
}

// LabelStat is one row of the engine profile.
type LabelStat struct {
	Label  string
	Events uint64
	WallNs int64
}

// Stats returns the profile rows sorted by descending wall time.
func (p *EngineProfile) Stats() []LabelStat {
	if p == nil {
		return nil
	}
	out := make([]LabelStat, 0, len(p.byLabel))
	for l, s := range p.byLabel {
		out = append(out, LabelStat{Label: l, Events: s.events, WallNs: s.wallNs})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallNs != out[j].WallNs {
			return out[i].WallNs > out[j].WallNs
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// WriteSummary prints the human-readable end-of-run summary: stored
// counts of every instant and every sampled name, with what sampling
// and the store cap discarded, the engine profile, and every registered
// metric.
func (t *Telemetry) WriteSummary(w io.Writer) error {
	if t == nil {
		return nil
	}
	if counts := t.Spans.countsByName(); len(counts) > 0 {
		spans, instants := t.Spans.counts()
		fmt.Fprintf(w, "trace records (%d events, %d spans):\n", instants, spans)
		for _, c := range counts {
			line := fmt.Sprintf("  %-28s %8d", c.Name, c.Count)
			if c.Sampled {
				line += fmt.Sprintf("  (+%d rate-limited)", c.Suppressed)
			}
			fmt.Fprintln(w, line)
		}
	}
	if d := t.Spans.Dropped(); d > 0 {
		fmt.Fprintf(w, "trace records dropped at the store cap: %d\n", d)
	}
	if stats := t.profile.Stats(); len(stats) > 0 {
		fmt.Fprintf(w, "engine profile (events scheduled under each component label):\n")
		fmt.Fprintf(w, "  %-14s %12s %12s\n", "component", "events", "wall")
		for _, s := range stats {
			fmt.Fprintf(w, "  %-14s %12d %11.1fms\n", s.Label, s.Events, float64(s.WallNs)/1e6)
		}
	}
	if rows := t.Registry.Snapshot(); len(rows) > 0 {
		fmt.Fprintln(w, "metrics:")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-36s %s\n", r.Name, r.Value)
		}
	}
	return nil
}
