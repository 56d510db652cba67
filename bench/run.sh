#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to
# the binary. This is the command BENCHMARK.json names:
#
#   bash bench/run.sh --workload oltp_durable --seed 1 --seconds 30 --trace 0
#
# The harness is a Go module of its own (bench/go.mod) whose only
# dependency is the repository's module one directory up, so the build
# fails — and this script exits non-zero — where that module is absent.
# Everything the build and the run leave behind stays under bench/out/:
# build cache, binary and temporary files in bench/out/build/, databases
# in bench/out/tmp/, results in bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/out/build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off
# go writes its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/instantdb-bench" .)
cd "$(dirname "$here")"
exec "$build/instantdb-bench" "$@"
