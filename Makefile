# CoolPIM reproduction — developer entry points.

GO ?= go
BENCH_DATE := $(shell date +%Y%m%d)
VETTOOL := bin/coolpim-vet

.PHONY: all build test vet lint lint-fixtures race bench bench-json bench-smoke figs-check figs-check-system accuracy-check sweep-smoke obs-smoke serve-smoke clean

# Default: a tree that builds, passes the static-analysis suite, and
# passes the tests — in that order, so lint failures surface fast.
all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the whole static gate: formatting, standard vet, the
# inlining guard on the checked per-lane helpers (scripts/inline_check.sh)
# and the repo's own analyzer suite (cmd/coolpim-vet) over every package
# via the -vettool protocol. Any diagnostic fails the target.
lint:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v '/testdata/')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	GO=$(GO) scripts/inline_check.sh
	$(GO) build -o $(VETTOOL) ./cmd/coolpim-vet
	$(GO) vet -vettool=$(CURDIR)/$(VETTOOL) ./...

# lint-fixtures tests the analyzers themselves: every testdata-driven
# fixture suite, the call-graph unit tests, the fact round-trip
# byte-identity test, and the vetx unitchecker-protocol test.
lint-fixtures:
	$(GO) test ./internal/analyzers/... ./cmd/coolpim-vet

# -timeout 20m: under the race detector the internal/system suite runs
# ~15x slower and exceeds go test's default 10m per-package limit on
# small (1-2 core) hosts.
race:
	$(GO) test -race -timeout 20m ./...

# bench writes a dated machine-readable benchmark snapshot (one pass per
# benchmark; the paper-figure benchmarks report their headline quantity
# as a custom metric).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -json . > BENCH_full_$(BENCH_DATE).json
	@echo "wrote BENCH_full_$(BENCH_DATE).json"

# The performance trajectory: bench-json regenerates the committed
# BENCH_<n>.json snapshots (event-engine ns/op + allocs/op, cube
# read/PIM throughput, cache lookup and fill, one full-system run's wall
# time). Each benchmark runs BENCH_COUNT times; benchjson folds the runs
# into a median with its min-max spread, and compares the new snapshot
# against the previous one, flagging every delta outside the observed
# spread. Each PR that claims a speedup commits the next numbered
# snapshot, and that comparison is the review artifact.
BENCH_NEXT := $(shell n=$$(ls BENCH_[0-9]*.json 2>/dev/null | wc -l); echo $$((n+1)))
BENCH_PREV := BENCH_$(shell echo $$(($(BENCH_NEXT)-1))).json
BENCH_COUNT := 5
BENCH_SUBSTRATE := ^(BenchmarkEventEngine|BenchmarkEventQueueMix|BenchmarkCubeReadThroughput|BenchmarkCubePIMThroughput)$$
BENCH_CACHE := ^(BenchmarkCacheAccess|BenchmarkCacheFill)$$
BENCH_THERMAL := ^(BenchmarkThermalStep|BenchmarkSolveSteady|BenchmarkFastSolve|BenchmarkStepFast)$$
BENCH_COUPLER := ^BenchmarkApplyPowerTick(Adaptive)?$$
BENCH_CLUSTER := ^(BenchmarkShardedEngine|BenchmarkMultiCubeSystem)$$

bench-json:
	@( $(GO) test -run '^$$' -bench '$(BENCH_SUBSTRATE)|$(BENCH_CACHE)' -benchmem -count $(BENCH_COUNT) . && \
	   $(GO) test -run '^$$' -bench '$(BENCH_THERMAL)' -benchmem -count $(BENCH_COUNT) . && \
	   $(GO) test -run '^$$' -bench '$(BENCH_COUPLER)' -benchmem -count $(BENCH_COUNT) ./internal/system && \
	   $(GO) test -run '^$$' -bench '$(BENCH_CLUSTER)' -benchtime 3x -benchmem -count $(BENCH_COUNT) . && \
	   $(GO) test -run '^$$' -bench '^BenchmarkFig10Speedup$$/^dc$$/^Naive-Offloading$$' -benchtime 3x -count $(BENCH_COUNT) . \
	 ) | $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_NEXT).json $(if $(wildcard $(BENCH_PREV)),-compare $(BENCH_PREV))

# bench-smoke is the CI guard: a fixed, tiny iteration count over the
# substrate micro-benches so they cannot silently stop compiling or
# start failing, piped through benchjson to keep the tooling honest.
bench-smoke:
	( $(GO) test -run '^$$' -bench '$(BENCH_SUBSTRATE)|$(BENCH_CACHE)|$(BENCH_THERMAL)|^(BenchmarkDRAMBankSchedule|BenchmarkPowerModel)$$' \
		-benchtime 100x -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(BENCH_CLUSTER)' -benchtime 1x -benchmem . && \
	  $(GO) test -run '^$$' -bench '$(BENCH_COUPLER)' -benchtime 100x -benchmem ./internal/system \
	) | $(GO) run ./cmd/benchjson

# figs-check regenerates the committed closed-loop time series with the
# paper profile and fails on any byte difference — the guard that keeps
# results_fig14.txt in lockstep with the simulator (and, since the
# stencil kernel is pinned bit-identical to the reference model, with
# the thermal arithmetic itself). Fig. 14 alone runs a 3-cell matrix:
# the sssp-twc naive cell, then its SW and HW cells.
figs-check:
	$(GO) run ./cmd/figures -exp fig14 -profile paper | diff -u results_fig14.txt - \
		&& echo "results_fig14.txt up to date"

# figs-check-system regenerates the committed paper-profile system
# figures — the full Figs. 10-13 matrix (10 workloads x 5 policies, all
# 50 cells, the 16 inert ones derived from their naive cells) plus the
# Fig. 14 series, printed from that matrix's sssp-twc row — and fails on
# any byte difference from results_system.txt. The matrix runs on
# GOMAXPROCS workers.
figs-check-system:
	$(GO) run ./cmd/figures -exp fig10,fig11,fig12,fig13,fig14 -profile paper | diff -u results_system.txt - \
		&& echo "results_system.txt up to date"

# accuracy-check re-runs the epsilon-bounded adaptive-vs-exact harness
# (DESIGN.md §6c) at campaign scale: the full paper-profile matrix under
# both thermal tiers, asserting the pinned figure-quantity tolerances on
# every cell and the Fig. 14 series contract on its sssp-twc naive, SW
# and HW cells. Slow (two full campaigns); figs-check remains the
# byte-identity guard for the committed exact-tier outputs.
accuracy-check:
	COOLPIM_ACCURACY_PROFILE=paper $(GO) test ./internal/experiments \
		-run '^TestAdaptiveMatrixWithinEpsilon$$' -v -timeout 120m

# sweep-smoke exercises the fault-tolerant campaign runner end to end:
# a TestProfile 2x2 matrix through coolpim-sweep, killed after two runs
# (exit 3, the interrupt hook), then resumed from the JSONL ledger. The
# resumed campaign must reuse exactly the two completed cells.
sweep-smoke:
	$(GO) build -o bin/coolpim-sweep ./cmd/coolpim-sweep
	rm -f bin/sweep-smoke.ledger bin/sweep-smoke.prom
	bin/coolpim-sweep -profile test -workloads dc,pagerank -policies baseline,naive \
		-parallel 2 -ledger bin/sweep-smoke.ledger -metrics-out bin/sweep-smoke.prom \
		-interrupt-after 2; \
	status=$$?; if [ $$status -ne 3 ]; then \
		echo "expected interrupt exit 3, got $$status"; exit 1; fi
	grep -q '^runner_jobs_completed_total 2' bin/sweep-smoke.prom \
		|| { echo "interrupted campaign left stale metrics:"; cat bin/sweep-smoke.prom; exit 1; }
	bin/coolpim-sweep -profile test -workloads dc,pagerank -policies baseline,naive \
		-parallel 2 -ledger bin/sweep-smoke.ledger -resume \
		| tee /dev/stderr | grep -q "executed 2, from ledger 2, failed 0"
	@echo "sweep-smoke OK"

# obs-smoke exercises the live observability plane end to end: a short
# sim with the diagnostics HTTP server held open, /metrics + /healthz +
# /spans fetched live, and the Chrome trace export validated as
# trace_event JSON (see scripts/obs_smoke.sh).
obs-smoke:
	scripts/obs_smoke.sh

# serve-smoke exercises the simulation service end to end: coolpim-serve
# on an ephemeral port, three concurrent identical campaign submissions,
# asserting exactly one execution (two cache hits), byte-identical
# responses, one ledger entry per matrix cell plus one campaign record,
# and, after a restart on the same ledger, a hit with the same bytes
# that simulates nothing (see scripts/serve_smoke.sh).
serve-smoke:
	scripts/serve_smoke.sh

clean:
	rm -f BENCH_full_*.json spans.jsonl metrics.prom series.csv
	rm -rf bin
