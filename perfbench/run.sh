#!/usr/bin/env bash
# Builds gbkmvd and the benchmark program from this tree, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload search-large --seed 1 --seconds 25 --trace 0
#
# Build outputs, Go caches and run data stay under .bench_build/ in the
# repository root, so a run writes nothing outside it.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gbkmvd" ]]; then
	echo "perfbench: run from the repository root (no go.mod with cmd/gbkmvd here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/work" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off GOENV=off XDG_CONFIG_HOME="$out/config"

go build -o "$out/gbkmvd" ./cmd/gbkmvd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/gbkmvd" --work "$out/work" "$@"
