package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"coolpim/internal/units"
)

func TestSpanTreeStructure(t *testing.T) {
	st := NewSpanTracer()
	nRun := st.Name("engine.run")
	nTick := st.Name("thermal.tick")
	nKernel := st.Name("gpu.kernel")

	if again := st.Name("engine.run"); again != nRun {
		t.Fatalf("re-interning engine.run: %d != %d", again, nRun)
	}

	root := st.StartRoot(0, nRun)
	if root.ID() != 1 {
		t.Fatalf("root ID = %d, want 1", root.ID())
	}
	// StartSpan parents under the open root without being told about it.
	tick := st.StartSpan(10, nTick)
	tick.End(12)
	// StartChild builds explicit cross-component edges.
	kernel := st.StartSpan(20, nKernel)
	block := st.StartChild(21, st.Name("gpu.block.pim"), kernel.ID())
	block.End(30)
	kernel.End(31)
	root.End(100)
	// After the root closes, new spans are roots themselves.
	orphan := st.StartSpan(200, nTick)
	orphan.End(201)

	got := st.Export()
	want := []SpanExport{
		{ID: 1, Parent: 0, Name: "engine.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "thermal.tick", Start: 10, End: 12},
		{ID: 3, Parent: 1, Name: "gpu.kernel", Start: 20, End: 31},
		{ID: 4, Parent: 3, Name: "gpu.block.pim", Start: 21, End: 30},
		{ID: 5, Parent: 0, Name: "thermal.tick", Start: 200, End: 201},
	}
	if len(got) != len(want) {
		t.Fatalf("exported %d spans, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestSpanOpenExport(t *testing.T) {
	st := NewSpanTracer()
	st.StartRoot(5, st.Name("engine.run"))
	ex := st.Export()
	if len(ex) != 1 || !ex[0].Open() {
		t.Fatalf("open root should export as open: %+v", ex)
	}
	if ex[0].End != spanOpen {
		t.Fatalf("open span End = %d, want %d", ex[0].End, spanOpen)
	}
}

func TestSpanCapDrops(t *testing.T) {
	st := NewSpanTracer()
	st.maxSpans = 2
	n := st.Name("x")
	a := st.StartSpan(0, n)
	b := st.StartSpan(1, n)
	c := st.StartSpan(2, n) // over cap: inert
	if c.ID() != 0 {
		t.Fatalf("over-cap span got real ID %d", c.ID())
	}
	c.End(3) // must be a no-op, not a panic
	a.End(4)
	b.End(5)
	if len(st.Export()) != 2 || st.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", len(st.Export()), st.Dropped())
	}
}

// TestNilSpanTracerZeroAlloc pins the disabled-telemetry contract for
// the span API: a nil tracer must cost zero allocations on every path a
// simulation component exercises per event.
func TestNilSpanTracerZeroAlloc(t *testing.T) {
	var st *SpanTracer
	name := st.Name("anything")
	allocs := testing.AllocsPerRun(1000, func() {
		sp := st.StartSpan(42, name)
		sp.End(43)
		child := st.StartChild(42, name, sp.ID())
		child.End(44)
		root := st.StartRoot(0, name)
		root.End(1)
		_ = st.Export()
		_ = st.Dropped()
	})
	if allocs != 0 {
		t.Fatalf("nil SpanTracer allocated %.1f per op, want 0", allocs)
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	st := NewSpanTracer()
	root := st.StartRoot(0, st.Name("engine.run"))
	sp := st.StartSpan(1000, st.Name(`odd "name"`))
	sp.End(2000)
	_ = root // left open: end_ps must round-trip as -1

	var first bytes.Buffer
	if err := st.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpansJSONL(&first)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteSpansJSONL(&second, parsed); err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := st.WriteJSONL(&third); err != nil {
		t.Fatal(err)
	}
	if second.String() != third.String() {
		t.Fatalf("round trip not byte-identical:\n%q\nvs\n%q", third.String(), second.String())
	}
	if parsed[0].End != spanOpen || !parsed[0].Open() {
		t.Fatalf("open root lost its open marker: %+v", parsed[0])
	}
}

func TestSpanWallStampsStayOutOfExports(t *testing.T) {
	st := NewSpanTracer()
	wall := int64(1000)
	st.SetWallClock(func() int64 { wall += 7; return wall })
	sp := st.StartRoot(0, st.Name("engine.run"))
	sp.End(50)

	var out strings.Builder
	if err := st.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "wall") {
		t.Fatalf("deterministic JSONL export leaked wall stamps: %s", out.String())
	}
	// The live snapshot view is where the wall stamps surface.
	var rows []spanSnapshotRow
	if err := json.Unmarshal(st.snapshotJSON(0), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].WallStartNs == 0 || rows[0].WallEndNs == 0 {
		t.Fatalf("snapshot rows missing wall stamps: %+v", rows)
	}
}

func TestSpanSnapshotJSONLimitsAndOpen(t *testing.T) {
	st := NewSpanTracer()
	n := st.Name("s")
	for i := 0; i < 5; i++ {
		sp := st.StartSpan(units.Time(i), n)
		if i != 4 {
			sp.End(units.Time(i + 10))
		}
	}
	var rows []spanSnapshotRow
	if err := json.Unmarshal(st.snapshotJSON(3), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("snapshot returned %d rows, want 3", len(rows))
	}
	last := rows[len(rows)-1]
	if !last.Open || last.EndMs != -1 {
		t.Fatalf("open span not marked in snapshot: %+v", last)
	}
	if got := string((*SpanTracer)(nil).snapshotJSON(0)); got != "[]" {
		t.Fatalf("nil tracer snapshot = %q, want []", got)
	}
}

func TestSpanEndFeedsFlightRecorder(t *testing.T) {
	st := NewSpanTracer()
	fr := NewFlightRecorder(8)
	st.SetFlight(fr)
	sp := st.StartSpan(1000, st.Name("thermal.tick"))
	sp.End(3000)

	var out bytes.Buffer
	if err := fr.WriteJSONL(&out); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(out.String())
	if !strings.Contains(line, `"kind":"span"`) ||
		!strings.Contains(line, `"name":"thermal.tick"`) ||
		!strings.Contains(line, `"dur_ps":2000`) {
		t.Fatalf("flight record missing span closure fields: %s", line)
	}
}

func TestSpanMinGapSampling(t *testing.T) {
	st := NewSpanTracer()
	bulk := st.Name("hmc.pim")
	rare := st.Name("throttle.react.hw")
	st.SetMinGap(bulk, 100)

	// 0,10,...,290: only starts >= last+100 record (0, 100, 200).
	for i := 0; i < 30; i++ {
		sp := st.StartSpan(units.Time(i*10), bulk)
		sp.End(units.Time(i*10 + 5))
	}
	// Un-gapped names are never sampled, whatever the timing.
	st.StartSpan(205, rare).End(206)
	st.StartSpan(207, rare).End(208)

	var bulkN, rareN int
	for _, s := range st.Export() {
		switch s.Name {
		case "hmc.pim":
			bulkN++
		case "throttle.react.hw":
			rareN++
		}
	}
	if bulkN != 3 {
		t.Errorf("gapped spans recorded = %d, want 3 (starts 0, 100, 200)", bulkN)
	}
	if rareN != 2 {
		t.Errorf("un-gapped spans recorded = %d, want 2", rareN)
	}
	if got := suppressed(st, "hmc.pim"); got != 27 {
		t.Errorf("suppressed = %d, want 27", got)
	}
	// Suppressed handles are inert: End must not corrupt other spans.
	st.SetMinGap(bulk, 1000)         // resets the name's sampling state
	st.StartSpan(250, bulk).End(251) // first after reconfigure records
	sp := st.StartSpan(260, bulk)    // 260 < 250+1000 -> suppressed
	sp.End(9999)
	for _, s := range st.Export() {
		if s.End == 9999 {
			t.Fatalf("suppressed span's End stamped a stored span: %+v", s)
		}
	}
}

func TestSpanMinGapSuppressionDoesNotCountAgainstCap(t *testing.T) {
	st := NewSpanTracer()
	st.maxSpans = 4
	bulk := st.Name("bulk")
	st.SetMinGap(bulk, 1000)
	// One recorded bulk span, then a flood of suppressed ones.
	for i := 0; i < 100; i++ {
		st.StartSpan(units.Time(i), bulk).End(units.Time(i))
	}
	// The rare late span must still fit under the cap.
	sp := st.StartSpan(5000, st.Name("rare"))
	sp.End(5001)
	var rare int
	for _, s := range st.Export() {
		if s.Name == "rare" {
			rare++
		}
	}
	if rare != 1 {
		t.Fatalf("rare span dropped despite sampling (len=%d dropped=%d)", len(st.Export()), st.Dropped())
	}
	if st.Dropped() != 0 {
		t.Fatalf("Dropped() = %d, want 0: suppressed spans must not hit the cap", st.Dropped())
	}
}
