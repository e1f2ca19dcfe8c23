#!/usr/bin/env bash
# Builds clustersim and the perfbench binary from the source tree this
# script sits in, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# live under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's caches and its telemetry counters (kept under the
# user config directory) inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off
# With telemetry in its default "local" mode, the first go command in a fresh
# config directory starts a detached sidecar (its own session) that outlives
# the build. Turn telemetry off before any go command runs so the benchmark
# leaves no process behind, on the failure paths too.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
(cd "$root" && go build -o "$build/clustersim" ./cmd/clustersim)
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" -clustersim "$build/clustersim" -work "$build/work" -root "$root" "$@"
