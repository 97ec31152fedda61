# Development targets. `make check` is the gate a change must pass:
# formatting, vet, and the full test suite under the race detector.

GO ?= go

# The staticcheck release both CI and local runs must use. Pinning keeps
# "make lint here" and "lint job there" analyzing with the same checks:
# an unpinned @latest drifts silently and the two disagree about what is
# clean. CI reads this via `make print-staticcheck-version`.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check fmt vet lint disco-lint print-staticcheck-version test test-race bench bench-compile build chaos

check: fmt lint test-race

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet: the project's own invariant suite
# (cmd/disco-lint, always runs — it builds from this repo) plus
# staticcheck. staticcheck is optional locally (the CI lint job installs
# the pinned release); when absent the skip is loud and names the version
# to install, and when present a version other than the pin fails rather
# than silently analyzing with different checks.
lint: vet disco-lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		got="$$(staticcheck -version 2>/dev/null | sed -n 's/^staticcheck \([^ ]*\).*/\1/p')"; \
		if [ "$$got" != "$(STATICCHECK_VERSION)" ]; then \
			echo "staticcheck version $$got does not match pinned $(STATICCHECK_VERSION)"; \
			echo "install with: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
			exit 1; \
		fi; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; SKIPPING staticcheck (go vet and disco-lint ran)"; \
		echo "install with: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

# The project-specific analyzers (internal/lint): eofidentity, ctxflow,
# gotrack, locksend, traceexplain. Mechanizes the bug classes the chaos
# harness keeps rediscovering; see the "Correctness invariants" section
# in disco.go.
disco-lint:
	$(GO) run ./cmd/disco-lint ./...

# Used by CI to install the exact staticcheck release the Makefile pins.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The perf trajectory: compiled vs tree-walking expression evaluation,
# batched vs tuple-at-a-time Volcano iteration, remote point-query
# throughput (pooled wire connections at 1/4/16 concurrent clients),
# prepared-statement hits vs full recompiles, scatter-gather fan-out and
# partition pruning across 1/4/16 partitions,
# replica failover with a dead primary (breaker-warm vs the cold timeout
# path), the hedged-request tail cut with one slow copy (p99-ms, hedged vs
# unhedged), read throughput scaling across 1/2/4 load-balanced copies,
# overload protection (goodput-q/s, shed-%, admitted p99-ms at 1x/2x/4x
# saturation), end-to-end cancellation (survivor goodput with cancel
# propagation, plus wasted handler executions), and live shard migration
# (read p50/p99 before, during dual-read, and after cutover, plus reader
# errors across the cutover itself).
# Each benchmark runs 5 times (-count 5), so every recorded file carries a
# spread. The benchstat-compatible output lands in $(BENCH_OUT) so runs can
# be diffed across changes (benchstat old.txt new.txt); set PR, or
# BENCH_OUT itself, to name the run: make bench PR=12.
PR ?= dev
BENCH_OUT ?= bench/PR$(PR).txt
bench:
	@mkdir -p "$(dir $(BENCH_OUT))"
	$(GO) test -run xxx -bench 'CompiledEval|Volcano|RemoteQuery|PreparedStatements|ScatterGather|PartitionPruning|Failover|HedgedTail|ReplicaThroughput|Overload|Cancellation|LiveMigration' -benchmem -count 5 . | tee $(BENCH_OUT)

# The seeded fault-injection suite: chaos-proxy unit tests, the admission
# gate and retry-budget tests, the chaos soaks (overload -> partition ->
# recovery, hedge-loser cancellation reclaim, and the migration soak that
# faults a live shard move at every phase boundary), and the end-to-end
# cancellation tests — all under the race detector. Deterministic: the
# chaos timelines are seeded, so a failure replays.
chaos:
	$(GO) test -race -run 'TestChaosSoak|TestProxy|TestAdmission|TestRetryBudget|TestMediatorCloseWithQueriesQueued|TestQueryShed|TestClassifySourceError|TestHedgeLoserReclaimsServerWork|TestCallerCancelReclaimsServerWork' ./internal/chaos/ ./internal/core/ ./internal/harness/

bench-all:
	$(GO) test -run xxx -bench . -benchmem .

# Compile-and-smoke every benchmark in every package (one iteration each)
# so bench rot fails CI rather than lingering.
bench-compile:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
