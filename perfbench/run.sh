#!/usr/bin/env bash
# Builds the wall-clock benchmark from this checkout's sources and runs one
# workload. Every build artifact, cache and span dump stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload sessions --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
