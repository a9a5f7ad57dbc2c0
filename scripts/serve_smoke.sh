#!/bin/sh
# serve_smoke.sh — end-to-end guard on the simulation service.
#
# Boots coolpim-serve on an ephemeral port, fires three concurrent
# identical campaign submissions at it, and asserts the memoization
# contract: exactly one campaign executes (the other two join it), all
# three response bodies are byte-identical, the ledger holds exactly
# one entry per matrix cell plus one campaign record, and a re-POST
# after the fact is a hit. It then restarts the server on the same
# ledger: the run still reports done, and a re-POST is a hit with the
# same bytes that simulates no cell. Uses cmd/coolpim-trace as the
# HTTP client so the test needs nothing beyond the Go toolchain.
#
# Usage: scripts/serve_smoke.sh   (from the repository root)
set -eu

GO=${GO:-go}
OUT=bin/serve-smoke
rm -rf "$OUT"
mkdir -p "$OUT"

$GO build -o bin/coolpim-serve ./cmd/coolpim-serve
$GO build -o bin/coolpim-trace ./cmd/coolpim-trace

SPEC='{"profile":"test","workloads":["dc","pagerank"],"policies":["baseline","coolpim-hw"],"parallel":2}'

# start_server boots coolpim-serve on the smoke ledger, logging to $1,
# and sets SERVE_PID and ADDR once it announces its bound address.
start_server() {
    bin/coolpim-serve -addr 127.0.0.1:0 -ledger "$OUT/ledger.jsonl" >"$1" 2>&1 &
    SERVE_PID=$!
    ADDR=
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's|^coolpim-serve: listening on http://\([^ ]*\).*|\1|p' "$1")
        [ -n "$ADDR" ] && break
        sleep 0.1
    done
    [ -n "$ADDR" ] || { echo "serve-smoke: server never announced its address"; cat "$1"; exit 1; }
}

# cell_entries counts the ledger's matrix-cell entries (campaign
# records excluded).
cell_entries() { grep -vc '^{"key":"campaign/' "$OUT/ledger.jsonl" || true; }

start_server "$OUT/serve.log"
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT INT TERM

bin/coolpim-trace -get "http://$ADDR/healthz" | grep -q ok \
    || { echo "serve-smoke: /healthz unhealthy"; exit 1; }

# Three concurrent identical submissions: one execution, two joins.
for i in 1 2 3; do
    bin/coolpim-trace -post "http://$ADDR/v1/runs" -data "$SPEC" -v \
        >"$OUT/body.$i" 2>"$OUT/hdr.$i" &
    eval "CLIENT_$i=\$!"
done
for i in 1 2 3; do
    eval "pid=\$CLIENT_$i"
    wait "$pid" || { echo "serve-smoke: client $i failed"; cat "$OUT/hdr.$i"; exit 1; }
done

# Byte-identical bodies.
cmp -s "$OUT/body.1" "$OUT/body.2" && cmp -s "$OUT/body.1" "$OUT/body.3" \
    || { echo "serve-smoke: concurrent responses differ"; exit 1; }
[ -s "$OUT/body.1" ] || { echo "serve-smoke: empty response body"; exit 1; }

# Exactly two of the three were cache hits (in-flight joins).
HITS=$(cat "$OUT"/hdr.1 "$OUT"/hdr.2 "$OUT"/hdr.3 | grep -c '^X-Cache: hit' || true)
[ "$HITS" = 2 ] || { echo "serve-smoke: $HITS cache hits, want 2"; cat "$OUT"/hdr.*; exit 1; }

# The server agrees: one execution, two hits, nothing failed.
bin/coolpim-trace -get "http://$ADDR/metrics" >"$OUT/metrics.prom"
for want in 'coolpim_campaigns_executed_total 1' 'coolpim_cache_hits_total 2' \
            'coolpim_cache_misses_total 1' 'coolpim_campaigns_failed_total 0'; do
    grep -q "^$want\$" "$OUT/metrics.prom" \
        || { echo "serve-smoke: metrics missing '$want'"; cat "$OUT/metrics.prom"; exit 1; }
done

# The shared ledger holds exactly one entry per matrix cell (2x2): the
# concurrent submissions never re-entered the runner. The finished
# campaign added exactly one campaign record beside them.
CELLS=$(cell_entries)
[ "$CELLS" -eq 4 ] || { echo "serve-smoke: ledger has $CELLS cell entries, want 4"; cat "$OUT/ledger.jsonl"; exit 1; }
RECORDS=$(grep -c '^{"key":"campaign/' "$OUT/ledger.jsonl" || true)
[ "$RECORDS" -eq 1 ] || { echo "serve-smoke: ledger has $RECORDS campaign records, want 1"; cat "$OUT/ledger.jsonl"; exit 1; }

# A fourth, sequential re-POST is a hit with the same bytes.
bin/coolpim-trace -post "http://$ADDR/v1/runs" -data "$SPEC" -v \
    >"$OUT/body.4" 2>"$OUT/hdr.4"
grep -q '^X-Cache: hit' "$OUT/hdr.4" || { echo "serve-smoke: re-POST missed"; cat "$OUT/hdr.4"; exit 1; }
cmp -s "$OUT/body.1" "$OUT/body.4" || { echo "serve-smoke: re-POST returned different bytes"; exit 1; }

# The run id resolves to a done status document.
RUNID=$(sed -n 's/^X-Run-Id: //p' "$OUT/hdr.4")
[ -n "$RUNID" ] || { echo "serve-smoke: no X-Run-Id header"; cat "$OUT/hdr.4"; exit 1; }
bin/coolpim-trace -get "http://$ADDR/v1/runs/$RUNID" | grep -q '"state":"done"' \
    || { echo "serve-smoke: run $RUNID not done"; exit 1; }

kill $SERVE_PID 2>/dev/null || true
wait $SERVE_PID 2>/dev/null || true

# Restart on the same ledger: the campaign record rebuilds the run, and
# a re-POST, with another parallel, is a hit with the original bytes.
start_server "$OUT/serve.2.log"
bin/coolpim-trace -get "http://$ADDR/v1/runs/$RUNID" | grep -q '"state":"done"' \
    || { echo "serve-smoke: run $RUNID not done after restart"; exit 1; }
bin/coolpim-trace -post "http://$ADDR/v1/runs" -data "$(echo "$SPEC" | sed 's/"parallel":2/"parallel":1/')" -v \
    >"$OUT/body.5" 2>"$OUT/hdr.5"
grep -q '^X-Cache: hit' "$OUT/hdr.5" || { echo "serve-smoke: re-POST after restart missed"; cat "$OUT/hdr.5"; exit 1; }
cmp -s "$OUT/body.1" "$OUT/body.5" || { echo "serve-smoke: re-POST after restart returned different bytes"; exit 1; }
CELLS=$(cell_entries)
[ "$CELLS" -eq 4 ] || { echo "serve-smoke: ledger has $CELLS cell entries after restart, want 4"; cat "$OUT/ledger.jsonl"; exit 1; }

kill $SERVE_PID 2>/dev/null || true
wait $SERVE_PID 2>/dev/null || true
trap - EXIT INT TERM

echo "serve-smoke OK"
