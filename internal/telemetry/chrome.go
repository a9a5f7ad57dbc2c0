package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// WriteChromeTrace writes a record stream (SpanTracer.Export or
// ParseSpansJSONL) in the Chrome trace_event JSON array format, directly
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
//
//   - each closed span becomes a "complete" event (ph "X") with ts/dur
//     in microseconds of simulated time and its id/parent in args;
//   - each instant becomes an "instant" event (ph "i") with its payload
//     fields in args.
//
// All spans come first, then all instants, each kind in stream order.
// Everything runs under pid 1; tracks (tid) are assigned per name
// family — the part of the name before the first dot — in
// first-appearance order, so "gpu.*", "hmc.*", "thermal.*" land on
// separate swimlanes. Open spans are skipped (a normal run closes all
// spans before export). The output is deterministic: same input, same
// bytes.
func WriteChromeTrace(w io.Writer, records []SpanExport) error {
	var sb strings.Builder
	sb.WriteString("[")
	sep := "\n" // before the first entry; ",\n" before the others
	tids := make(map[string]int)
	tidFor := func(name string) int {
		fam := name
		if i := strings.IndexByte(fam, '.'); i >= 0 {
			fam = fam[:i]
		}
		id, ok := tids[fam]
		if !ok {
			id = len(tids) + 1
			tids[fam] = id
		}
		return id
	}
	for _, s := range records {
		if s.Instant() || s.Open() {
			continue
		}
		fmt.Fprintf(&sb, `%s{"name":%q,"cat":"span","ph":"X","ts":%.6f,"dur":%.6f,"pid":1,"tid":%d,"args":{"id":%d,"parent":%d}}`,
			sep, s.Name, float64(s.Start)/1e6, float64(s.End-s.Start)/1e6, tidFor(s.Name), uint32(s.ID), uint32(s.Parent))
		sep = ",\n"
	}
	for _, s := range records {
		if !s.Instant() {
			continue
		}
		fmt.Fprintf(&sb, `%s{"name":%q,"cat":"event","ph":"i","ts":%.6f,"pid":1,"tid":%d,"s":"p","args":{%s}}`,
			sep, s.Name, float64(s.Start)/1e6, tidFor(s.Name), s.Data)
		sep = ",\n"
	}
	sb.WriteString("\n]\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
