#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload compile-paper --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write (Go
# build cache, binary, scratch caches, trace files) stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/perfbench/home"

# Keep the toolchain's caches and config inside the build directory.
export GOCACHE=$build/perfbench/gocache
export HOME=$build/perfbench/home
export XDG_CONFIG_HOME=$HOME/.config
export XDG_CACHE_HOME=$HOME/.cache
export GOPATH=$HOME/go
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --workdir "$build/perfbench" "$@"
