#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload repro-cold --seed 1 --seconds 25 --trace 0
#
# Every build artefact, Go cache and toolchain state file goes under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. Build
# output goes to stderr; stdout carries only the benchmark's report, whose
# last line is the JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
