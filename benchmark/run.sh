#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload design-sweep --seed 1 --seconds 40 --trace 0
#
# Every build and run artifact (Go build cache, binary, temporary stores,
# traces) stays under .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd "$here" && go build -o "$out/twolevel-bench" .)
cd "$root"
exec "$out/twolevel-bench" "$@"
