#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it. Go's build cache and temp space are kept inside the checkout,
# with the network off, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/bin/bench" .)
# One processor, literally: the benchmark pins GOMAXPROCS to 1 for itself
# and its children, and here the whole family is tied to one CPU — the last
# one this shell may use — so that the reference loop that reads the host's
# speed runs where the work runs, and whatever else the machine does has the
# other CPUs to itself. Without taskset the run goes ahead untied.
pin=()
if command -v taskset >/dev/null; then
	for ((c = $(nproc --all) - 1; c >= 0; c--)); do
		if taskset -c "$c" true 2>/dev/null; then
			pin=(taskset -c "$c")
			break
		fi
	done
fi
exec "${pin[@]}" "$build/bin/bench" -root "$root" "$@"
