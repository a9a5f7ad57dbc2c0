#!/bin/sh
# obs_smoke.sh — end-to-end guard on the live observability plane.
#
# Runs a short simulation with the diagnostics HTTP server attached and
# held open, fetches /metrics, /healthz and /spans while it is up, and
# validates the run's Chrome trace export as trace_event JSON against
# the converted JSONL stream of spans and instants. Uses
# cmd/coolpim-trace as the HTTP client and the JSON validator so the
# test needs nothing beyond the Go toolchain.
#
# Usage: scripts/obs_smoke.sh   (from the repository root)
set -eu

GO=${GO:-go}
OUT=bin/obs-smoke
mkdir -p "$OUT"

$GO build -o bin/coolpim-sim ./cmd/coolpim-sim
$GO build -o bin/coolpim-trace ./cmd/coolpim-trace

# Launch the sim on an ephemeral port, holding the server open after the
# run so the endpoint fetches below cannot race run completion.
bin/coolpim-sim -workload dc -policy coolpim-hw -scale 12 -reps 1 \
    -diag-addr 127.0.0.1:0 -diag-hold 60s \
    -spans-out "$OUT/spans.jsonl" -trace-chrome "$OUT/trace.json" \
    -flight-out "$OUT/ring.flight.jsonl" \
    >"$OUT/sim.log" 2>&1 &
SIM_PID=$!
trap 'kill $SIM_PID 2>/dev/null || true' EXIT INT TERM

# Wait for the server to announce its bound address.
ADDR=
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|^diag: serving on http://\([^ ]*\).*|\1|p' "$OUT/sim.log")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "obs-smoke: diag server never announced its address"; cat "$OUT/sim.log"; exit 1; }

# Wait for the run to finish (the hold banner prints after the exports).
for _ in $(seq 1 600); do
    grep -q 'diag: holding server' "$OUT/sim.log" && break
    sleep 0.2
done
grep -q 'diag: holding server' "$OUT/sim.log" || { echo "obs-smoke: run did not complete"; cat "$OUT/sim.log"; exit 1; }

# Live endpoints.
bin/coolpim-trace -get "http://$ADDR/healthz" | grep -q '"status":"ok"' \
    || { echo "obs-smoke: /healthz unhealthy"; exit 1; }
bin/coolpim-trace -get "http://$ADDR/metrics" >"$OUT/metrics.prom"
grep -q '^coolpim_pim_ops_total' "$OUT/metrics.prom" \
    || { echo "obs-smoke: /metrics missing simulator counters"; cat "$OUT/metrics.prom"; exit 1; }
# /spans is a recency window (the last 512 spans), so assert on the
# thermal ticks that run to the end of the simulation rather than the
# id-1 engine.run root.
bin/coolpim-trace -get "http://$ADDR/spans" | grep -q '"name":"thermal.tick"' \
    || { echo "obs-smoke: /spans missing thermal.tick spans"; exit 1; }
grep -q '"name":"engine.run"' "$OUT/spans.jsonl" \
    || { echo "obs-smoke: spans export missing engine.run root"; exit 1; }
grep -q '^{"id":0,"parent":0,"name":"pool.init",' "$OUT/spans.jsonl" \
    || { echo "obs-smoke: spans export missing the pool.init instant"; exit 1; }

kill $SIM_PID 2>/dev/null || true
wait $SIM_PID 2>/dev/null || true
trap - EXIT INT TERM

# Offline artifacts: the Chrome export must validate as trace_event
# JSON, and converting the JSONL stream must agree with it.
bin/coolpim-trace -check "$OUT/trace.json"
bin/coolpim-trace -spans "$OUT/spans.jsonl" -out "$OUT/trace2.json"
cmp "$OUT/trace.json" "$OUT/trace2.json" \
    || { echo "obs-smoke: converter disagrees with the sim's own Chrome export"; exit 1; }
[ -s "$OUT/ring.flight.jsonl" ] || { echo "obs-smoke: empty flight ring dump"; exit 1; }

echo "obs-smoke OK"
