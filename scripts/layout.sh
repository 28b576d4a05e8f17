#!/usr/bin/env bash
# Usage: scripts/layout.sh <rev>
#
# Builds vft-server and the benchmark binary at <rev> (from `git archive`)
# and from the working tree into a temp dir, both as bench/run.sh builds
# them, and prints for each binary the address of its first
# repro/internal/core. text symbol and that address mod 64 (for the bench
# binary also its first main. text symbol's, the kernels online-readshared
# runs), whether every text symbol laid out before repro/internal/goinstr
# sits at the same address in both builds, and how many text symbols of
# main and of the checker's packages, matched by name, changed their
# address mod 64. Code that moves the checker to another offset in its
# cache lines can slow it by 10–15% on offline-syncdense with no change to
# the checker itself (EXPERIMENTS E38); main sits after goinstr, so any
# size change there moves it (E41).
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
# mod64 <binary> <pattern>: "addr-mod-64 name" for each text symbol whose
# name matches pattern, first occurrence of each name. A name may hold
# spaces (generic shapes), so it is the rest of the line.
mod64() {
	go tool nm -n "$1" | awk -v pat="$2" '
		($2 == "T" || $2 == "t") {
			name = $0; sub(/^ *[0-9a-f]+ [Tt] /, "", name)
			if (name !~ pat || seen[name]++) next
			a = substr($1, length($1) - 1)
			print (16 * (index("0123456789abcdef", substr(a, 1, 1)) - 1) + index("0123456789abcdef", substr(a, 2, 1)) - 1) % 64, name
		}'
}
checker='^repro/internal/(core|parcheck|trace|vc|epoch|shadow|spec|sample)\.'
for bin in vft-server bench; do
	for side in rev tree; do
		first="$(text "$tmp/bin-$side/$bin" | awk '!found && $2 ~ /^repro\/internal\/core\./ { print $1; found = 1 }')"
		printf '%-10s %-4s first repro/internal/core. text at 0x%s (mod 64 = %d)\n' \
			"$bin" "$side" "$first" "$((16#$first % 64))"
		if [ "$bin" = bench ]; then
			first="$(go tool nm -n "$tmp/bin-$side/$bin" | awk '!found && ($2 == "T" || $2 == "t") && $3 ~ /^main\./ { print $1; found = 1 }')"
			printf '%-10s %-4s first main. text at 0x%s (mod 64 = %d)\n' \
				"$bin" "$side" "$first" "$((16#$first % 64))"
		fi
	done
	moved="$(diff <(text "$tmp/bin-rev/$bin" | sort) <(text "$tmp/bin-tree/$bin" | sort) | grep -c '^>' || true)"
	if [ "$moved" = 0 ]; then
		echo "$bin: every text symbol before repro/internal/goinstr is at $rev's address"
	else
		echo "$bin: $moved text symbols before repro/internal/goinstr moved or are new"
	fi
	for pkg in main checker; do
		pat='^main\.'
		[ "$pkg" = checker ] && pat="$checker"
		count="$(awk 'NR == FNR { m[substr($0, length($1) + 2)] = $1; next }
			{ name = substr($0, length($1) + 2) }
			name in m { n++; if (m[name] != $1) moved++ }
			END { printf "%d of %d", moved, n }' \
			<(mod64 "$tmp/bin-rev/$bin" "$pat") <(mod64 "$tmp/bin-tree/$bin" "$pat"))"
		echo "$bin: $count $pkg text symbols in both builds changed their address mod 64"
	done
done
