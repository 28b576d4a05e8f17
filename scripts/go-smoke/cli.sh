#!/usr/bin/env bash
# The vft-go binary driven the way a user does, from a scratch working
# directory: `-o <relative>` must build exactly one vftbin (go build runs
# inside the shadow module, where the same relative path would nest), the
# racy corpus program must be reported with exit 1, and -v must say where
# the time went.
set -uo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
(cd "$root" && go build -o "$work/vft-go" ./cmd/vft-go) || exit 1
cd "$work" || exit 1
./vft-go -v -o shadow run "$root/internal/goinstr/testdata/corpus/racy_global_counter" >out.txt 2>err.txt
code=$?
cat out.txt err.txt
fail() { echo "go-smoke: $*" >&2; exit 1; }
[ "$code" -eq 1 ] || fail "vft-go -o shadow run exited $code, want 1"
grep -q '^race on counter' out.txt || fail "no report naming counter"
[ "$(find . -name vftbin)" = "./shadow/vftbin" ] || fail "want exactly ./shadow/vftbin, found: $(find . -name vftbin | tr '\n' ' ')"
grep -Eq '^vft-go: instrument [^ ]+ \(go list [^ ]+\) build [^ ]+ run [^ ]+ check [^ ]+$' err.txt || fail "-v printed no phase line"
echo "go-smoke: relative -o and -v phase line ok"
