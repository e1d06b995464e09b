#!/usr/bin/env bash
# Builds kvnode, kvfront and the benchmark from this checkout, then runs
# the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), Go's caches included.
set -euo pipefail

# Without the program's sources there is nothing to measure: fail before
# any tool starts.
if [[ ! -f go.mod || ! -d cmd/kvnode || ! -d cmd/kvfront ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/kvnode, cmd/kvfront)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
out="$(cd "$out" && pwd)"
# Telemetry off: in its default mode the go command forks a detached
# sidecar that outlives the build.
echo off >"$out/config/go/telemetry/mode"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# Build output goes to stderr: the last line of stdout is the result.
go build -o "$out/bin/" ./cmd/kvnode ./cmd/kvfront >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/perfbench" "$@"
