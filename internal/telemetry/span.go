package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"

	"coolpim/internal/units"
)

// SpanID identifies one span within a run's stream. IDs are assigned
// sequentially from 1; 0 means "no span" and is the parent of roots.
type SpanID uint32

// SpanName is an interned span-name handle returned by SpanTracer.Name.
// Components intern their names once at wiring time so starting a span
// on the hot path is a mutex acquire and a slice append, never a map
// lookup or a string allocation. The zero SpanName renders as "".
type SpanName uint32

// DefaultMaxSpans caps the in-memory store of spans and instants
// together; beyond it records are dropped and counted, so a runaway
// emitter cannot exhaust memory.
const DefaultMaxSpans = 1 << 20

// spanOpen marks a span's End while it is still in flight.
const spanOpen = units.Time(-1)

// spanRec is the stored form of one span or instant (id 0).
type spanRec struct {
	id          SpanID
	parent      SpanID
	name        SpanName
	start, end  units.Time
	wallStartNs int64
	wallEndNs   int64
	data        string // instant payload (JSON object body)
}

// SpanTracer records the event stream of one run. It holds the
// hierarchical span tree — every span has an explicit parent (spans
// routinely outlive the engine event that opened them, so there is
// deliberately no implicit "current span" stack), an interned name, a
// simulated start/end time and, when a wall clock is injected,
// wall-clock stamps for harness-level spans — and, beside it in
// emission order, the typed instants of the control loop (see
// EvWarnRaise): zero-duration records with ID 0 and a JSON payload.
// Instants take no span ID, so span numbering ignores them. One cap,
// one per-name min-gap sampler and one flight hook serve both kinds.
//
// A nil *SpanTracer is the disabled state: every method returns
// immediately without allocating, and the Span values it hands out are
// inert. An enabled tracer is safe for concurrent use (the campaign
// runner opens job spans from worker goroutines); within a
// single-threaded simulation the mutex is uncontended.
//
// Wall-clock stamps never appear in the deterministic JSONL/Chrome
// exports — they are only visible through live snapshots — so two runs
// with identical seeds still produce byte-identical span exports.
type SpanTracer struct {
	mu       sync.Mutex
	names    []string            //coolpim:guard mu (index = SpanName-1)
	nameIDs  map[string]SpanName //coolpim:guard mu
	spans    []spanRec           //coolpim:guard mu (spans and instants, in emission order)
	nextID   SpanID              //coolpim:guard mu (also the number of stored spans)
	curRoot  SpanID              //coolpim:guard mu (most recently started, still-open root span)
	maxSpans int                 //coolpim:guard mu
	dropped  uint64              //coolpim:guard mu
	gaps     []nameGap           //coolpim:guard mu (index = SpanName-1; zero gap = record every span)
	wall     func() int64        //coolpim:guard mu (optional wall clock (UnixNano); nil = no stamps)
	flight   *FlightRecorder     //coolpim:guard mu
}

// nameGap is the per-name sampling state installed by SetMinGap.
type nameGap struct {
	gap        units.Time
	last       units.Time
	seen       bool
	suppressed uint64
}

// NewSpanTracer returns an enabled, empty span tracer with the instant
// names pre-interned.
func NewSpanTracer() *SpanTracer {
	t := &SpanTracer{
		nameIDs:  make(map[string]SpanName),
		maxSpans: DefaultMaxSpans,
	}
	for _, name := range instantNames[1:] {
		t.Name(name)
	}
	return t
}

// SetWallClock injects the wall-clock source (a UnixNano reading) used
// to stamp spans. The telemetry package never reads the wall clock
// itself — harness code that wants wall stamps (the campaign runner,
// the diag server) passes its own reader, keeping simulation packages
// free of timing syscalls. A nil fn disables wall stamping.
//
//coolpim:hotpath nilfast wiring setter; nil tracer returns immediately
func (t *SpanTracer) SetWallClock(fn func() int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.wall = fn
	t.mu.Unlock()
}

// SetFlight attaches a flight recorder that receives one record per
// span closure and per recorded instant (see FlightRecorder).
//
//coolpim:hotpath nilfast wiring setter; nil tracer returns immediately
func (t *SpanTracer) SetFlight(fr *FlightRecorder) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flight = fr
	t.mu.Unlock()
}

// SetMinGap rate-limits one name, span or instant: after a record of
// that name is stored, further records of the same name starting closer
// than gap to it are suppressed — counted, not stored, not counted
// against the cap, and their Span handles are inert. The first record
// of the name always stores, and (re)installing a gap resets the name's
// sampling state. Gating is on simulated start time only, so sampling
// is deterministic.
//
// System wiring uses this for per-request span families (one span per
// HMC request) and link backpressure: without sampling, a long run
// fills the capped store with bulk records in its first few hundred
// microseconds and the rare control-plane spans (throttle reactions)
// that arrive later are silently dropped.
//
//coolpim:hotpath nilfast wiring setter; nil tracer returns immediately
func (t *SpanTracer) SetMinGap(name SpanName, gap units.Time) {
	if t == nil || name == 0 || gap <= 0 {
		return
	}
	t.mu.Lock()
	for int(name) > len(t.gaps) {
		t.gaps = append(t.gaps, nameGap{})
	}
	t.gaps[name-1] = nameGap{gap: gap, suppressed: t.gaps[name-1].suppressed}
	t.mu.Unlock()
}

// Name interns a span name and returns its handle. Interning the same
// string twice returns the same handle. On a nil tracer (or for the
// empty string) it returns the zero handle.
//
//coolpim:hotpath nilfast interning on a nil tracer returns the zero handle without allocating
func (t *SpanTracer) Name(name string) SpanName {
	if t == nil || name == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.nameIDs[name]; ok {
		return id
	}
	t.names = append(t.names, name)
	id := SpanName(len(t.names))
	t.nameIDs[name] = id
	return id
}

// Span is a handle to one in-flight span. The zero Span (from a nil or
// saturated tracer) is inert: End and ID are no-ops. Span values are
// small and copyable; exactly one End per span is the caller's
// responsibility (a second End overwrites the stamps).
type Span struct {
	t   *SpanTracer
	idx int32
}

// StartRoot opens a top-level span (parent 0) and makes it the current
// root: until it ends, StartSpan parents new spans under it. The engine
// profile opens the "engine.run" root; campaign code opens one root per
// campaign.
//
//coolpim:hotpath nilfast disabled tracer hands out the inert zero Span without allocating
func (t *SpanTracer) StartRoot(at units.Time, name SpanName) Span {
	if t == nil {
		return Span{}
	}
	return t.start(at, name, 0, true)
}

// StartSpan opens a span parented under the current root span (or as a
// root itself if none is open). Components on the simulation hot path
// use this: their spans hang off the run's "engine.run" root without
// the component having to thread the root's ID around.
//
//coolpim:hotpath nilfast disabled tracer hands out the inert zero Span without allocating (TestNilSpanTracerZeroAlloc pins this)
func (t *SpanTracer) StartSpan(at units.Time, name SpanName) Span {
	if t == nil {
		return Span{}
	}
	return t.startUnderRoot(at, name)
}

// StartChild opens a span under an explicit parent (0 for a root
// without current-root tracking). Use this to build causal edges that
// cross components — e.g. a kernel span parenting its block spans.
//
//coolpim:hotpath nilfast disabled tracer hands out the inert zero Span without allocating
func (t *SpanTracer) StartChild(at units.Time, name SpanName, parent SpanID) Span {
	if t == nil {
		return Span{}
	}
	return t.start(at, name, parent, false)
}

// startUnderRoot is StartSpan's enabled path. It stays out of line so
// the disabled path, the nil check, inlines into every caller.
func (t *SpanTracer) startUnderRoot(at units.Time, name SpanName) Span {
	t.mu.Lock()
	r := t.curRoot
	t.mu.Unlock()
	return t.start(at, name, r, false)
}

func (t *SpanTracer) start(at units.Time, name SpanName, parent SpanID, root bool) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.admit(at, name) {
		return Span{}
	}
	t.nextID++
	rec := spanRec{id: t.nextID, parent: parent, name: name, start: at, end: spanOpen}
	if t.wall != nil {
		rec.wallStartNs = t.wall()
	}
	t.spans = append(t.spans, rec)
	if root {
		t.curRoot = rec.id
	}
	return Span{t: t, idx: int32(len(t.spans) - 1)}
}

// admit applies name's min-gap sampling and the store cap to a record
// starting at at, counting what it turns away.
//
//coolpim:locked mu
func (t *SpanTracer) admit(at units.Time, name SpanName) bool {
	if n := int(name); n > 0 && n <= len(t.gaps) && t.gaps[n-1].gap > 0 {
		g := &t.gaps[n-1]
		if g.seen && at < g.last+g.gap {
			g.suppressed++
			return false
		}
		g.seen = true
		g.last = at
	}
	if len(t.spans) >= t.maxSpans {
		t.dropped++
		return false
	}
	return true
}

// ID returns the span's identifier (0 for the inert zero Span), for use
// as an explicit parent in StartChild.
//
//coolpim:hotpath nilfast the inert zero Span reads no state
func (s Span) ID() SpanID {
	if s.t == nil {
		return 0
	}
	s.t.mu.Lock()
	id := s.t.spans[s.idx].id
	s.t.mu.Unlock()
	return id
}

// End closes the span at simulated time at.
//
//coolpim:hotpath nilfast ending the inert zero Span is a no-op
func (s Span) End(at units.Time) {
	if s.t == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	rec := &t.spans[s.idx]
	rec.end = at
	if t.wall != nil {
		rec.wallEndNs = t.wall()
	}
	if rec.parent == 0 && t.curRoot == rec.id {
		t.curRoot = 0
	}
	fl := t.flight
	var name string
	var start units.Time
	if fl != nil {
		name = t.nameStr(rec.name)
		start = rec.start
	}
	t.mu.Unlock()
	if fl != nil {
		fl.Record(at, "span", fmt.Sprintf(`"name":%q,"start_ps":%d,"dur_ps":%d`,
			name, int64(start), int64(at-start)))
	}
}

// nameStr resolves a name handle; callers hold t.mu.
//
//coolpim:locked mu
func (t *SpanTracer) nameStr(n SpanName) string {
	if n == 0 || int(n) > len(t.names) {
		return ""
	}
	return t.names[n-1]
}

// Dropped returns how many records the in-memory cap discarded.
//
//coolpim:hotpath nilfast disabled-tracer read is allocation-free
func (t *SpanTracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// counts splits the stored records into spans and instants.
func (t *SpanTracer) counts() (spans, instants int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int(t.nextID), len(t.spans) - int(t.nextID)
}

// nameCount is one row of the by-name record summary.
type nameCount struct {
	Name       string
	Count      uint64 // records stored
	Sampled    bool   // SetMinGap installed a gap for the name
	Suppressed uint64 // records the gap discarded
}

// countsByName returns, sorted by name, the stored count of every
// instant kind recorded and every name with a min gap, with what
// sampling suppressed. Span names without a gap are left out: the span
// tree itself counts them.
func (t *SpanTracer) countsByName() []nameCount {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	stored := make([]uint64, len(t.names)+1)
	for _, r := range t.spans {
		stored[r.name]++
	}
	var out []nameCount
	for n := 1; n <= len(t.names); n++ {
		row := nameCount{Name: t.names[n-1], Count: stored[n]}
		if n <= len(t.gaps) && t.gaps[n-1].gap > 0 {
			row.Sampled, row.Suppressed = true, t.gaps[n-1].suppressed
		}
		// Handles below len(instantNames) are the pre-interned instants.
		if (n < len(instantNames) && row.Count > 0) || row.Sampled {
			out = append(out, row)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SpanExport is the externalized form of one record: a span (End equal
// to -1 while it is open), or an instant (ID 0, End == Start) with its
// payload in Data. Wall stamps are deliberately absent (see
// SpanTracer).
type SpanExport struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  units.Time
	End    units.Time // -1 = still open
	Data   string     // instant payload: a JSON object body, e.g. `"temp_c":86.20`
}

// Open reports whether the span had not ended at export time.
func (s SpanExport) Open() bool { return s.End == spanOpen }

// Instant reports whether the record is a typed instant, not a span.
func (s SpanExport) Instant() bool { return s.ID == 0 }

// Export returns a copy of all stored records in emission order (spans
// by start).
func (t *SpanTracer) Export() []SpanExport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanExport, len(t.spans))
	for i, r := range t.spans {
		out[i] = SpanExport{ID: r.id, Parent: r.parent, Name: t.nameStr(r.name), Start: r.start, End: r.end, Data: r.data}
	}
	return out
}

// WriteJSONL writes every stored record as one JSON object per line
// (see WriteSpansJSONL for the format).
func (t *SpanTracer) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	return WriteSpansJSONL(w, t.Export())
}

// WriteSpansJSONL writes records as one JSON object per line:
//
//	{"id":3,"parent":1,"name":"thermal.tick","start_ps":10000000,"end_ps":10002000}
//	{"id":0,"parent":0,"name":"thermal.warning.raise","start_ps":10000000,"end_ps":10000000,"temp_c":86.20}
//
// Open spans carry "end_ps":-1; an instant's payload fields follow
// end_ps. The format round-trips byte-identically through
// ParseSpansJSONL.
func WriteSpansJSONL(w io.Writer, spans []SpanExport) error {
	var sb strings.Builder
	for _, s := range spans {
		sb.Reset()
		writeRecordPrefix(&sb, s)
		if s.Data != "" {
			sb.WriteByte(',')
			sb.WriteString(s.Data)
		}
		sb.WriteString("}\n")
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeRecordPrefix writes a record's line up to its payload.
func writeRecordPrefix(sb *strings.Builder, s SpanExport) {
	fmt.Fprintf(sb, `{"id":%d,"parent":%d,"name":%q,"start_ps":%d,"end_ps":%d`,
		uint32(s.ID), uint32(s.Parent), s.Name, int64(s.Start), int64(s.End))
}

// ParseSpansJSONL parses the WriteSpansJSONL format back into records.
// The parse is exact: each line's fixed prefix is re-rendered from the
// parsed fields and verified byte for byte, and the rest of the line
// becomes the record's Data verbatim, so WriteSpansJSONL of the result
// reproduces every accepted line.
func ParseSpansJSONL(r io.Reader) ([]SpanExport, error) {
	var out []SpanExport
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var sb strings.Builder
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec struct {
			ID      uint32 `json:"id"`
			Parent  uint32 `json:"parent"`
			Name    string `json:"name"`
			StartPs int64  `json:"start_ps"`
			EndPs   int64  `json:"end_ps"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("telemetry: spans line %d: %w", lineNo, err)
		}
		s := SpanExport{
			ID:     SpanID(rec.ID),
			Parent: SpanID(rec.Parent),
			Name:   rec.Name,
			Start:  units.Time(rec.StartPs),
			End:    units.Time(rec.EndPs),
		}
		sb.Reset()
		writeRecordPrefix(&sb, s)
		rest, ok := strings.CutPrefix(line, sb.String())
		if !ok {
			return nil, fmt.Errorf("telemetry: spans line %d: not in canonical WriteSpansJSONL form", lineNo)
		}
		if rest = rest[:len(rest)-1]; rest != "" { // valid JSON: rest ends in '}'
			if rest[0] != ',' {
				return nil, fmt.Errorf("telemetry: spans line %d: malformed payload", lineNo)
			}
			s.Data = rest[1:]
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// spanSnapshotRow is the /spans live-view record; unlike SpanExport it
// carries the wall-clock stamps (the live view is not a deterministic
// artifact).
type spanSnapshotRow struct {
	ID          uint32  `json:"id"`
	Parent      uint32  `json:"parent"`
	Name        string  `json:"name"`
	StartMs     float64 `json:"start_ms"`
	EndMs       float64 `json:"end_ms"` // -1 while open; open spans also carry "open":true
	Open        bool    `json:"open,omitempty"`
	WallStartNs int64   `json:"wall_start_ns,omitempty"`
	WallEndNs   int64   `json:"wall_end_ns,omitempty"`
}

// snapshotJSON renders the most recent max spans (0 = all; instants
// are left out) as a JSON array for the diag server's /spans endpoint.
func (t *SpanTracer) snapshotJSON(max int) []byte {
	if t == nil {
		return []byte("[]")
	}
	t.mu.Lock()
	rows := []spanSnapshotRow{}
	for i := len(t.spans) - 1; i >= 0 && (max <= 0 || len(rows) < max); i-- {
		r := t.spans[i]
		if r.id == 0 {
			continue
		}
		row := spanSnapshotRow{
			ID:          uint32(r.id),
			Parent:      uint32(r.parent),
			Name:        t.nameStr(r.name),
			StartMs:     r.start.Milliseconds(),
			EndMs:       r.end.Milliseconds(),
			Open:        r.end == spanOpen,
			WallStartNs: r.wallStartNs,
			WallEndNs:   r.wallEndNs,
		}
		if row.Open {
			row.EndMs = -1
		}
		rows = append(rows, row)
	}
	t.mu.Unlock()
	slices.Reverse(rows)
	b, err := json.Marshal(rows)
	if err != nil {
		return []byte("[]")
	}
	return b
}
