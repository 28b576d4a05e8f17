#!/usr/bin/env bash
# Usage: scripts/layout.sh <rev>
#
# Builds vft-server and the benchmark binary at <rev> (from `git archive`)
# and from the working tree into a temp dir, both as bench/run.sh builds
# them, and prints for each binary the address of its first
# repro/internal/core. text symbol and that address mod 64, then whether
# every text symbol laid out before repro/internal/goinstr sits at the same
# address in both builds. Code that moves the checker to another offset in
# its cache lines can slow it by 10–15% on offline-syncdense with no change
# to the checker itself (EXPERIMENTS E38).
set -euo pipefail
rev="${1:?usage: $0 <rev>}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

mkdir -p "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"

build() { # build <checkout> <side>
	(cd "$1/bench" && go build -o "$tmp/bin-$2/vft-server" repro/cmd/vft-server && go build -o "$tmp/bin-$2/bench" .)
}
build "$tmp/rev" rev
build "$root" tree

# text <binary>: the text symbols ahead of repro/internal/goinstr, one
# "address name" line each, in address order. Symbols that share an
# address print in no fixed order, so the comparison sorts them.
text() {
	go tool nm -n "$1" | awk '$3 ~ /^repro\/internal\/goinstr/ { done = 1 } !done && ($2 == "T" || $2 == "t") { print $1, $3 }'
}
for bin in vft-server bench; do
	for side in rev tree; do
		first="$(text "$tmp/bin-$side/$bin" | awk '!found && $2 ~ /^repro\/internal\/core\./ { print $1; found = 1 }')"
		printf '%-10s %-4s first repro/internal/core. text at 0x%s (mod 64 = %d)\n' \
			"$bin" "$side" "$first" "$((16#$first % 64))"
	done
	moved="$(diff <(text "$tmp/bin-rev/$bin" | sort) <(text "$tmp/bin-tree/$bin" | sort) | grep -c '^>' || true)"
	if [ "$moved" = 0 ]; then
		echo "$bin: every text symbol before repro/internal/goinstr is at $rev's address"
	else
		echo "$bin: $moved text symbols before repro/internal/goinstr moved or are new"
	fi
done
