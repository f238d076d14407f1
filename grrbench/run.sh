#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it with the
# given arguments. Everything it writes (Go build cache, binary, journals,
# profiles) lands under .bench_build/ at the checkout root.
#
#   bash grrbench/run.sh --workload table1 --seed 1 --seconds 35 --trace 0 ...
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/grrbench" .) >&2
exec "$out/grrbench" --root "$root" "$@"
