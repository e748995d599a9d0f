#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root; every flag is passed through (see bench/README.md):
#
#   bash bench/run.sh -workload service_mix -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh -seed 1                 # every workload, one child process each
#   bash bench/run.sh compare BASE_DIR HEAD_DIR
#
# The build cache, temporary files, the binary and every file the
# benchmark writes stay under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's config and telemetry live under XDG_CONFIG_HOME.
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
