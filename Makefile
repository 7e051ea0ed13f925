# Local developer targets. `make ci` runs exactly what
# .github/workflows/ci.yml runs, in the same order.

GO ?= go

.PHONY: build examples cpabench-build test race bench bench-cpacache bench-compare bench-gate bench-multicore bench-gate-server bench-record opt-scoreboard alloc-guard fuzz-smoke serve loadtest server-smoke chaos-smoke mem-storm fmt fmt-check vet staticcheck vulncheck docs-check ci

build:
	$(GO) build ./...

examples:
	$(GO) build ./examples/...

# cpabench/ is a separate module that imports this one (including its
# internal packages); nothing else compiles it, so a change here could
# break the benchmark unnoticed. Vet and build it on its own.
cpabench-build:
	cd cpabench && $(GO) vet ./... && $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass of every benchmark — a smoke test that the bench harness
# still runs, not a measurement. pkg/cpacache is excluded here because
# bench-cpacache gives it its own (longer) smoke pass.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x $$($(GO) list ./... | grep -v pkg/cpacache)

# Quick sanity pass over the cpacache hot paths (the BENCH_cpacache.json
# baseline uses -benchtime=1s instead).
bench-cpacache:
	$(GO) test -run=NONE -bench=. -benchtime=100x ./pkg/cpacache/

# Compare a fresh cpacache bench run against the checked-in
# BENCH_cpacache.json baseline with benchstat (skipped when benchstat is
# not installed: go install golang.org/x/perf/cmd/benchstat@latest).
# cmd/benchjson renders the JSON baseline in benchstat's input format.
bench-compare:
	@if ! command -v benchstat >/dev/null; then \
		echo "benchstat not installed (go install golang.org/x/perf/cmd/benchstat@latest); skipping"; exit 0; fi
	$(GO) run ./cmd/benchjson BENCH_cpacache.json > /tmp/bench_baseline.txt
	$(GO) test -run=NONE -bench='GetHit|SetChurn|ParallelGetSet|Rebalance|GetBatch|SetBatch' \
		-benchtime=1s -count=5 ./pkg/cpacache/ > /tmp/bench_fresh.txt
	benchstat /tmp/bench_baseline.txt /tmp/bench_fresh.txt

# Bench-regression gate: run the two headline hot-path benchmarks and
# fail if the best-of-3 ns/op regresses more than 15% against the
# checked-in BENCH_cpacache.json (or allocs/op grow at all). CI runs
# this; it is a smoke gate for gross regressions, not a statistically
# careful comparison — use bench-compare for that. The server req/s
# baseline (bench-gate-server) rides along as a prerequisite so one
# target gates both numbers.
bench-gate: bench-gate-server
	$(GO) test -run=NONE -bench='^BenchmarkGetHit$$|^BenchmarkParallelGetSet$$' \
		-benchtime=1s -count=3 ./pkg/cpacache/ | tee /tmp/bench_gate.txt
	$(GO) run ./cmd/benchjson -gate -tolerance 0.15 BENCH_cpacache.json /tmp/bench_gate.txt

# Multi-core scaling lane: the parallel hot-path benchmarks at
# GOMAXPROCS=1 vs GOMAXPROCS=NumCPU, gated on BenchmarkParallelGetHit
# showing at least 1.3x parallel speedup. On a single-core host the
# comparison is meaningless, so it degrades to an informational run.
bench-multicore:
	$(GO) test -run=NONE -bench='^BenchmarkParallelGetHit$$|^BenchmarkParallelGetSet$$' \
		-benchtime=1s -count=3 -cpu 1 ./pkg/cpacache/ | tee /tmp/bench_cpu1.txt
	$(GO) test -run=NONE -bench='^BenchmarkFig7Serial$$|^BenchmarkFig7Parallel$$' \
		-benchtime=1x -count=3 -cpu 1 . | tee -a /tmp/bench_cpu1.txt
	$(GO) test -run=NONE -bench='^BenchmarkParallelGetHit$$|^BenchmarkParallelGetSet$$' \
		-benchtime=1s -count=3 -cpu $$(nproc) ./pkg/cpacache/ | tee /tmp/bench_cpuN.txt
	$(GO) test -run=NONE -bench='^BenchmarkFig7Serial$$|^BenchmarkFig7Parallel$$' \
		-benchtime=1x -count=3 -cpu $$(nproc) . | tee -a /tmp/bench_cpuN.txt
	@if [ "$$(nproc)" -le 1 ]; then \
		echo "single-core host: reporting scaling informationally, no gate"; \
		$(GO) run ./cmd/benchjson -scaling -min 0 -benches '' /tmp/bench_cpu1.txt /tmp/bench_cpuN.txt; \
	else \
		$(GO) run ./cmd/benchjson -scaling -min 1.3 -benches BenchmarkParallelGetHit \
			/tmp/bench_cpu1.txt /tmp/bench_cpuN.txt; \
	fi

# Server throughput gate: boot cpacached on a free port, drive it with
# cpaload, and fail if req/s drops more than 40% below the committed
# BENCH_cpacached.json. The tolerance is wide because the baseline and
# the CI runner are different hosts; it catches gross regressions
# (an accidental per-command syscall, a lost pipelining path), not drift.
bench-gate-server:
	$(GO) build -o /tmp/cpacached ./cmd/cpacached
	$(GO) build -o /tmp/cpaload ./cmd/cpaload
	/tmp/cpacached -addr 127.0.0.1:0 -policy bt 2> /tmp/cpacached_gate.log & \
	pid=$$!; \
	for i in $$(seq 50); do \
		addr=$$(grep -oE 'listening on [^ ]+' /tmp/cpacached_gate.log | awk '{print $$3}'); \
		[ -n "$$addr" ] && break; sleep 0.1; done; \
	if [ -z "$$addr" ]; then echo "cpacached never came up"; kill $$pid; exit 1; fi; \
	/tmp/cpaload -addr "$$addr" -conns 4 -pipeline 32 -requests 400000 \
		-keyspace 20000 -value-size 128 -set-ratio 0.1 -zipf 1.1 \
		-json /tmp/cpaload_fresh.json; rc=$$?; \
	kill -TERM $$pid; wait $$pid || rc=1; \
	[ $$rc -eq 0 ] || exit $$rc; \
	$(GO) run ./cmd/benchjson -gate-server -tolerance 0.40 \
		BENCH_cpacached.json /tmp/cpaload_fresh.json

# Re-record the BENCH_cpacache.json hot-path baseline from a fresh run.
# REFUSES on a single-core host or with GOMAXPROCS=1: the parallel
# benchmarks degenerate to serial there, and committing those numbers
# would poison bench-gate and bench-multicore for every other machine.
# The shell guard catches the obvious case early; benchjson -record
# re-checks the GOMAXPROCS suffix actually present in the bench output,
# so piping in a stale single-core file fails too. Procedure and
# rationale: EXPERIMENTS.md "Re-recording benchmark baselines".
bench-record:
	@procs=$${GOMAXPROCS:-$$(nproc)}; \
	if [ "$$procs" -le 1 ]; then \
		echo "bench-record: refusing with GOMAXPROCS=$$procs — baselines must"; \
		echo "come from a multi-core run (see EXPERIMENTS.md)"; exit 1; fi
	$(GO) test -run=NONE -bench='GetHit|SetChurn|ParallelGet|Rebalance|GetBatch|SetBatch' \
		-benchtime=1s -count=3 ./pkg/cpacache/ | tee /tmp/bench_record.txt
	$(GO) run ./cmd/benchjson -record BENCH_cpacache.json /tmp/bench_record.txt

# Belady/OPT competitive-analysis gate: regenerate the fig6-style OPT
# scoreboard on the two cheapest workloads per thread count (the run is
# fully deterministic, ~1s) and diff it row-by-row against the committed
# OPT_SCOREBOARD.csv golden within a small tolerance band. Catches any
# change that silently shifts a policy's hit rate or its distance from
# optimal. Re-record the golden with the same repro invocation after an
# intentional policy change (see EXPERIMENTS.md).
opt-scoreboard:
	$(GO) run ./cmd/repro -experiment opt -insts 150000 -interval 50000 \
		-sample 8 -limit 2 -opt-cores 1,2 -opt-sizes 256 -csvdir /tmp/opt_lane
	$(GO) run ./cmd/benchjson -opt-gate -tolerance 0.02 \
		OPT_SCOREBOARD.csv /tmp/opt_lane/opt_scoreboard.csv

# Fuzz smoke: a short bounded pass over every fuzz target. Go allows one
# -fuzz pattern per invocation, so each target gets its own run.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzRESPParse$$' -fuzztime=30s ./internal/resp/
	$(GO) test -run=NONE -fuzz='^FuzzRESPRoundTrip$$' -fuzztime=10s ./internal/resp/
	$(GO) test -run=NONE -fuzz='^FuzzVictimInMask$$' -fuzztime=10s ./pkg/plru/
	$(GO) test -run=NONE -fuzz='^FuzzTouchBatchEquivalence$$' -fuzztime=10s ./pkg/plru/
	$(GO) test -run=NONE -fuzz='^FuzzTagCollisionFallback$$' -fuzztime=10s ./pkg/cpacache/
	$(GO) test -run=NONE -fuzz='^FuzzTouchRing$$' -fuzztime=10s ./pkg/cpacache/
	$(GO) test -run=NONE -fuzz='^FuzzCollisionStorm$$' -fuzztime=10s ./pkg/cpacache/

# Run the cache server on the default redis port (ctrl-C drains).
serve:
	$(GO) run ./cmd/cpacached -addr :6379 -policy bt

# Drive a running `make serve` with the default load mix.
loadtest:
	$(GO) run ./cmd/cpaload -addr 127.0.0.1:6379 -conns 4 -pipeline 32 \
		-requests 400000 -keyspace 20000 -value-size 128 -set-ratio 0.1 -zipf 1.1

# Server integration smoke: protocol conformance, in-process server
# tests, and the exec-based daemon end-to-end (SIGTERM drain) under -race.
server-smoke:
	$(GO) test -race -count=1 ./internal/resp/ ./internal/server/ ./internal/loadgen/ ./internal/faultinject/ ./cmd/cpacached/

# Chaos lane: the fault-injection unit tests plus the exec-based chaos
# smoke — a race-instrumented cpacached under injected accept errors,
# latency stalls, partial writes and resets, with connection caps and
# slow-client deadlines armed. Asserts the retrying load engine finishes
# its full budget with zero lost acknowledged writes, over-cap connects
# are refused, a client-triggered panic is contained, and the process
# still drains cleanly.
chaos-smoke: mem-storm
	$(GO) test -race -count=1 ./internal/faultinject/
	$(GO) test -race -count=1 -run '^TestDaemonChaosSmoke$$' -v ./cmd/cpacached/

# Memory-pressure chaos lane: a race-instrumented cpacached with a tiny
# -max-bytes cap stormed with 1 KB short-TTL values. Asserts the
# governor's three promises under fire: used_memory never exceeds the
# cap by more than the writers' in-flight entries, no acknowledged write
# is lost (-OOM refusals are requeued, never acked), and the server
# recovers to pressure_state:ok with ordinary writes flowing once the
# storm drains.
mem-storm:
	$(GO) test -race -count=1 -run '^TestDaemonMemStorm$$' -v ./cmd/cpacached/

# The hot-path allocation guards (testing.AllocsPerRun) run without -race:
# instrumentation skews the accounting. Alloc regressions fail here fast
# even on hosts too noisy for ns/op comparisons.
alloc-guard:
	$(GO) test -run 'ZeroAlloc|Allocs' ./pkg/cpacache/ ./pkg/cpapart/ ./internal/resp/ ./internal/server/

# staticcheck / govulncheck run when installed and are skipped otherwise,
# so `make ci` works in hermetic containers; the CI lint job always runs
# them.
staticcheck:
	@if command -v staticcheck >/dev/null; then staticcheck ./...; \
	else echo "staticcheck not installed; skipping"; fi

vulncheck:
	@if command -v govulncheck >/dev/null; then govulncheck ./...; \
	else echo "govulncheck not installed; skipping"; fi

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Docs gate (cmd/doccheck): every relative link in *.md resolves, every
# ```go fence parses (full-file blocks must also be gofmt-clean), and vet
# stays green. CI runs this as its own job.
docs-check: vet
	$(GO) run ./cmd/doccheck .

ci: fmt-check vet staticcheck build examples cpabench-build race alloc-guard bench bench-cpacache bench-gate opt-scoreboard server-smoke chaos-smoke docs-check
