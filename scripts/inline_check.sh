#!/bin/sh
# inline_check.sh — guard that the checked per-lane helpers stay inlined.
#
# The simulator calls these once per lane of every warp op, per cache
# lookup, or per HMC request. Each keeps its range or nil check, and
# stays under the inliner's budget only because the check panics with a
# small typed value instead of formatting a message (DESIGN.md §8b). A
# fmt call put back into one of them would move it out of line, and no
# test would fail; this script does. The graph generator's branch-free
# quadrant step is checked too: it runs once per bit of every edge the
# generator draws (over 10 M times for a scale-16 graph), and out of
# line each would be a call (DESIGN.md §2). It builds the six packages with
# -gcflags=-m=2 and fails unless the compiler reports `can inline` for
# every function listed below.
#
# Usage: scripts/inline_check.sh   (from the repository root)
set -eu

GO=${GO:-go}

out=$($GO build -gcflags=-m=2 ./internal/simt ./internal/mem ./internal/telemetry ./internal/cache ./internal/flit ./internal/graph 2>&1)
inlined=$(printf '%s\n' "$out" | sed -n 's/^[^ ]*: can inline \([^ ]*\) with cost .*/\1/p')

status=0
for fn in \
	'LaneMask' 'Mask.Lane' \
	'Buffer.Addr' '(*Space).index' '(*Space).Load32' '(*Space).Store32' \
	'(*SpanTracer).StartSpan' '(*SpanTracer).StartChild' \
	'(*Cache).locate' \
	'RequestFlits' 'ResponseFlits' \
	'quadrant'; do
	if ! printf '%s\n' "$inlined" | grep -qxF "$fn"; then
		echo "inline_check: $fn is no longer inlinable:"
		printf '%s\n' "$out" | grep -F "cannot inline $fn:" || echo "  (no inlining report for $fn)"
		status=1
	fi
done
[ "$status" -eq 0 ] && echo "inline_check: all 12 checked helpers inline"
exit "$status"
