#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of the checkout.  Everything the Go toolchain writes (build
# cache, temporary files, the binary) stays under .bench_build/ in the
# checkout, and the toolchain never reaches the network.
#
#   bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1]
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$root/benchmark" && go build -o "$build/qnetbench" .)
cd "$root"
exec "$build/qnetbench" "$@"
