package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestChromeTraceShape(t *testing.T) {
	records := []SpanExport{
		{ID: 1, Parent: 0, Name: "engine.run", Start: 0, End: 5_000_000},
		{ID: 2, Parent: 1, Name: "thermal.tick", Start: 1_000_000, End: 1_002_000},
		{Name: "thermal.warning.raise", Start: 1_500_000, End: 1_500_000, Data: `"temp_c":85.10`},
		{ID: 3, Parent: 1, Name: "gpu.kernel", Start: 2_000_000, End: spanOpen}, // open: skipped
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, records); err != nil {
		t.Fatal(err)
	}

	var entries []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatalf("output is not a trace_event JSON array: %v\n%s", err, buf.String())
	}
	// 2 closed spans, then 1 instant event; the open span is skipped.
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3: %s", len(entries), buf.String())
	}
	for i, e := range entries {
		for _, k := range []string{"name", "ph"} {
			if _, ok := e[k].(string); !ok {
				t.Fatalf("entry %d missing string %q: %v", i, k, e)
			}
		}
		for _, k := range []string{"ts", "pid", "tid"} {
			if _, ok := e[k].(float64); !ok {
				t.Fatalf("entry %d missing numeric %q: %v", i, k, e)
			}
		}
	}
	// Span durations are microseconds (ps / 1e6).
	if entries[0]["ph"] != "X" || entries[0]["dur"].(float64) != 5.0 {
		t.Fatalf("engine.run complete event wrong: %v", entries[0])
	}
	if entries[2]["ph"] != "i" {
		t.Fatalf("event should be an instant: %v", entries[2])
	}
	// Same name family ("thermal.*") shares a tid; different family gets
	// its own lane.
	if entries[1]["tid"] == entries[0]["tid"] {
		t.Fatalf("thermal.tick should not share engine.run's tid: %v", entries)
	}
	args := entries[2]["args"].(map[string]any)
	if args["temp_c"].(float64) != 85.10 {
		t.Fatalf("instant event lost its payload: %v", entries[2])
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	spans := []SpanExport{
		{ID: 1, Name: "a.x", Start: 0, End: 10},
		{ID: 2, Name: "b.y", Start: 5, End: 15},
	}
	var one, two bytes.Buffer
	if err := WriteChromeTrace(&one, spans); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&two, spans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("chrome trace output is not deterministic")
	}
}
