# Repeatable verification gate for the ascc reproduction.
#
#   make check          - everything CI should run (build, vet, fmt, tests,
#                         race, bounded differential fuzz)
#   make test           - the tier-1 suite only
#   make race           - race-detector pass over the concurrent packages
#   make fuzz           - bounded run of the differential fuzzers (packed
#                         kernel vs reference model, cache group vs
#                         independent caches, run-to-event engine vs the
#                         frozen per-reference loop, directory vs broadcast,
#                         sampled vs full machine, trace arena codec and
#                         -trace file readers, persistent arena-store file
#                         round-trip)
#   make cover          - aggregate internal/... statement coverage with a
#                         hard floor (scripts/cover.sh)
#   make bench-check    - one short perfbench run per workload, failing
#                         unless every simulation's digest matches its pin
#   make bench          - compile-and-run pass over every microbenchmark
#                         (packed kernel vs the frozen reference kernel,
#                         run-to-event engine vs the frozen per-reference
#                         loop, stream set-up and arena-store replay,
#                         coherence probes, end-to-end simulation)
#   make profile        - CPU + heap profile of a representative run
#   make prewarm        - synthesise every experiment-suite stream into the
#                         persistent arena store (~/.cache/ascc/arenas) so
#                         later runs, sweeps and CI jobs replay from mmap
#
# The repository benchmark — end-to-end and per-layer figures over the paper
# workloads, taken as interleaved runs — is perfbench: bash perfbench/run.sh
# (perfbench/README.md).

GO ?= go

.PHONY: check build vet fmt test race fuzz cover bench-check bench profile prewarm clean

check: build vet fmt test race fuzz

build:
	$(GO) build ./...

# perfbench/ is a nested module, so the root ./... skips it; vetting it too
# type-checks every internal API the benchmark calls.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The harness worker pool, the experiment fan-outs and the shared trace
# arenas are the concurrent code; cmp is single-goroutine but stays in the
# pass, since the harness runs many Systems at once and any state they came
# to share would surface only under the detector. -race over just these
# keeps the gate fast. The experiments differentials (arena on/off plus
# store off/cold/warm, every id) outgrew go test's default 10-minute
# ceiling under the race detector's slowdown.
race:
	$(GO) test -race -timeout 30m ./internal/trace/... ./internal/harness/... ./internal/experiments/... ./internal/cmp/...

# Differential smoke: each fuzzer gets ten seconds of fuzzed inputs beyond
# its committed corpus (the corpora always run as part of plain `go test`).
# FuzzBurstEquivalence gets thirty: it draws the most dimensions (core
# count, policy, contention) and is the exactness wall for
# run-ahead rollback.
fuzz:
	$(GO) test ./internal/cachesim -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime 10s
	$(GO) test ./internal/cachesim -run '^$$' -fuzz FuzzGroupEquivalence -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzRefCodec -fuzztime 10s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzTraceReaders -fuzztime 10s
	$(GO) test ./internal/trace/store -run '^$$' -fuzz FuzzStoreRoundTrip -fuzztime 10s
	$(GO) test ./internal/cmp -run '^$$' -fuzz FuzzBurstEquivalence -fuzztime 30s
	$(GO) test ./internal/cmp -run '^$$' -fuzz FuzzDirectoryEquivalence -fuzztime 10s
	$(GO) test ./internal/cmp -run '^$$' -fuzz FuzzSampleEquivalence -fuzztime 10s

# Aggregate statement coverage over internal/... with a floor that pins the
# baseline; a PR landing untested simulator code fails here.
cover:
	GO="$(GO)" sh scripts/cover.sh

# Every perfbench workload at seed 1 for one second: perfbench checks each
# simulation's result digest against its pin, which the golden CSVs (the
# printed tables only) do not. The last output line is the run's summary; it
# must report "correct":true and "failed":0. The ok line also shows the run's
# peak_rss_mb and wall_s, so a memory or speed regression is visible in CI
# logs; they are informational, not gated.
BENCH_WORKLOADS = paper4-full paper2-sampled mt4-shared scaleout64
bench_metric = sed -n 's/.*"$(1)":{"value":\([^,}]*\).*/\1/p'

bench-check:
	@for w in $(BENCH_WORKLOADS); do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		if echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -Eq '"failed":0[,}]'; then \
			rss=$$(echo "$$last" | $(call bench_metric,peak_rss_mb)); \
			wall=$$(echo "$$last" | $(call bench_metric,wall_s)); \
			printf 'bench-check %s: ok (peak_rss_mb %.1f, wall_s %.3f)\n' $$w "$${rss:-0}" "$${wall:-0}"; \
		else \
			echo "bench-check $$w: FAILED"; echo "$$last"; exit 1; \
		fi; \
	done

# ./... rather than a package list, so a package that gains a benchmark is
# covered without editing this target.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# CPU + heap profile of the heaviest configuration (the 4-core AVGCC mix the
# end-to-end benchmark measures) through the CLI's -cpuprofile/-memprofile
# flags, with the hot functions summarised. Inspect interactively with
#   go tool pprof asccbench-cpu.prof
profile:
	$(GO) run ./cmd/asccbench -mix 445+401+444+456 -policy AVGCC \
		-cpuprofile asccbench-cpu.prof -memprofile asccbench-mem.prof >/dev/null
	$(GO) tool pprof -top -nodecount 15 asccbench-cpu.prof

# Fill the persistent arena store at the default configuration: every later
# asccbench/test/CI run with -arena-store replays packed streams from mmap'd
# files instead of re-synthesising them (DESIGN.md 14).
prewarm:
	$(GO) run ./cmd/asccbench -arena-store -prewarm

clean:
	$(GO) clean ./...
