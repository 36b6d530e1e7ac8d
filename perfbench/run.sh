#!/usr/bin/env bash
# Builds heatmapd and the benchmark program from the checkout this is run in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (the Go build cache, both binaries,
# per-run scratch directories, traces) stays under .bench_build/ in the
# current directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off GOFLAGS= \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" CGO_ENABLED=0 \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"

go -C perfbench build -o "$out/perfbench" . >&2
go -C perfbench build -o "$out/heatmapd" rnnheatmap/cmd/heatmapd >&2
exec "$out/perfbench" "$@"
