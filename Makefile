GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test race vet lint bench bench-sampling bench-smoke layout fuzz fuzz-smoke soak coverage clean

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Static checks over the Go sources: gofmt and vet always (both ship with
# the toolchain; any file gofmt would change fails the target; vet also
# runs over the vftmc-tagged files of the interleaving explorer, which
# nothing else compiles), staticcheck when it is on PATH (CI installs it;
# locally `go install honnef.co/go/tools/cmd/staticcheck@latest`).
lint: vet
	$(GO) vet -tags vftmc ./internal/core ./internal/reduction
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt would change:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# One quick Table 1 regeneration; BENCH_table1.json lands in the repo root.
bench:
	$(GO) run ./cmd/vft-bench -quick -iters 3

# The sampling-tier overhead-vs-recall sweep (EXPERIMENTS.md E22);
# BENCH_sampling.json lands in the repo root. Drop -quick to reproduce the
# committed numbers. Exits nonzero if any rate violates the soundness
# gates (subset below 1.0, identity at 1.0).
bench-sampling:
	$(GO) run ./cmd/vft-bench -sampling -quick -iters 3

# The nested bench module (its own go.mod, so the root ./... never sees
# it): vet and test it, then one quick traced run — the traced pass is
# what drives the per-layer probes against internal/vc and internal/core.
# The clock-kernel micro-benchmarks run a hundred iterations each, vft-go's
# load, build and streamed-check benchmarks, the offline machine-beside-core.V2
# comparison and the bytes-to-verdict offline path beside the pull pipeline
# it replaced three, so they cannot rot (a warm Build and a warm
# Instrument + Build of vft-go, each about a millisecond, fifty, so that
# the figure is not one cold cache's); so does the server's upload path,
# with -benchmem, so its allocations per upload print on every run. The
# shim's goroutine-id read runs a thousand times: it is the per-call cost
# every instrumented function pays in Bind. Beside it, BenchmarkEmit prints
# the shim's cost per logged event (ns/event for Rd, RdWr and a
# MutexLock/MutexUnlock pair, capture on to a temp file): interning, the
# record's append and the inline check, under the shim's one mutex.
# BenchmarkShutdown, three times, prices a run's end over 100,000
# variables and prints the sidecar's bytes, which follow the reports.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh --workload offline-syncdense --quick --trace 1
	$(GO) test -run '^$$' -bench 'Join|Leq' -benchtime 100x ./internal/vc
	$(GO) test -run '^$$' -bench 'LoadPool|CheckStream' -benchtime 3x ./internal/goinstr
	$(GO) test -run '^$$' -bench 'BuildPool/cold' -benchtime 3x ./internal/goinstr
	$(GO) test -run '^$$' -bench 'BuildPool/(warm|pair)' -benchtime 50x ./internal/goinstr
	$(GO) test -run '^$$' -bench 'ID$$|Emit' -benchtime 1000x ./internal/goinstr/rt
	$(GO) test -run '^$$' -bench Shutdown -benchtime 3x ./internal/goinstr/rt
	$(GO) test -run '^$$' -bench 'CheckLowered|CheckReader' -benchtime 3x ./internal/parcheck
	$(GO) test -run '^$$' -bench IngestThroughput -benchmem -benchtime 3x ./internal/ingest

# Where the checker's code sits in vft-server and the benchmark binary, at
# REV and in the working tree: the first repro/internal/core. text address,
# that address mod 64 (and the bench's first main. one), whether every text
# symbol ahead of repro/internal/goinstr kept REV's address, and how many
# symbols of main and of the checker's packages changed their address mod
# 64. New standard-library code that only goinstr calls lands ahead of the
# checker and can shift it to another cache-line offset, which slowed
# offline-syncdense by 10–15% (EXPERIMENTS E38); the bench's main sits after
# goinstr and moves with it (E41). Usage: make layout REV=<rev>.
layout:
	@test -n "$(REV)" || { echo "usage: make layout REV=<rev>"; exit 2; }
	bash scripts/layout.sh $(REV)

# The differential fuzzers: generated core and Go-sync traces through the
# sequential check and 20,000 controlled schedules each (it logs the
# schedules/distinct/racy summary), then a bounded run of each
# coverage-guided target.
fuzz:
	VFT_SOAK=1 $(GO) test ./internal/conformance -run TestGeneratedTracesConform -count 1 -v
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzFromBytes -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzBinaryRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzBinaryDecodeChunked -fuzztime $(FUZZTIME)
	$(GO) test ./internal/spec -run '^$$' -fuzz FuzzPrecision -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parcheck -run '^$$' -fuzz FuzzParallelEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parcheck -run '^$$' -fuzz FuzzFeedMatchesPulled -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzIngestHTTP -fuzztime $(FUZZTIME)
	$(GO) test . -run '^$$' -fuzz FuzzSamplingSoundness -fuzztime $(FUZZTIME)

# Quick pass over every coverage-guided target's checked-in seed corpus
# (no fuzzing time budget — just the deterministic seeds, as CI does).
fuzz-smoke:
	$(GO) test ./internal/trace -run 'Fuzz' -count 1
	$(GO) test ./internal/spec -run 'FuzzPrecision' -count 1
	$(GO) test ./internal/parcheck -run 'FuzzParallelEquivalence|FuzzFeedMatchesPulled' -count 1
	$(GO) test ./internal/ingest -run 'FuzzIngestHTTP' -count 1
	$(GO) test . -run 'FuzzSamplingSoundness' -count 1

# Long-running schedule exploration (hundreds of schedules per program),
# then ten shuffled tier-1 runs: a test that fails on any of them fails the
# target, after all ten have run and each failure has printed.
soak:
	VFT_SOAK=1 $(GO) test ./internal/conformance -timeout 60m -count 1 -v
	@failed=0; for i in 1 2 3 4 5 6 7 8 9 10; do \
		echo "soak: tier-1 run $$i of 10"; \
		$(GO) test -count=1 -shuffle=on ./... || failed=$$((failed + 1)); \
	done; \
	if [ $$failed -gt 0 ]; then echo "soak: $$failed of 10 tier-1 runs failed"; exit 1; fi

coverage:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -n 1

clean:
	rm -f coverage.out BENCH_table1.json
