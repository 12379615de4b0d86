#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload serve-bulk --seed 3 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, temp files) stays under $CARGO_TARGET_DIR,
# default .bench_build, so a checkout is the only directory touched.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath
export TMPDIR=$build/tmp
# The go command's config and telemetry counters live under here.
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export GOFLAGS="-mod=readonly -buildvcs=false"

(cd "$root/bench" && go build -o "$build/datasculpt-bench" .)
exec "$build/datasculpt-bench" "$@"
