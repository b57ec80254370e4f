#!/usr/bin/env bash
# Builds perfbench from source inside the checkout it is run from, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload tcp_small --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# the binary) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
