#!/usr/bin/env bash
# Builds the benchmark and ccserve from this checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload core_reno --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ccserve" ]]; then
	echo "perfbench: run from the root of a ccatscale checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac

# XDG_CONFIG_HOME keeps the go command's config and telemetry files
# inside the build directory too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
mkdir -p "$GOCACHE" "$GOPATH" "$GOTMPDIR" "$XDG_CONFIG_HOME" "$build/bin"

go build -buildvcs=false -o "$build/bin/ccserve" ./cmd/ccserve
(cd perfbench && go build -buildvcs=false -o "$build/bin/perfbench" .)

rev=unknown
if [[ -e .git ]]; then
	rev=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/bin/perfbench" -ccserve "$build/bin/ccserve" -work "$build/work-$$" -rev "$rev" "$@"
