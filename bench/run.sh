#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it from there. Every file the build and the run write stays
# inside the checkout: the Go build cache, module cache, temporary directory
# and telemetry directory are redirected, and the benchmark keeps its own
# output under bench/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$build/joinbench" .)
exec "$build/joinbench" "$@"
