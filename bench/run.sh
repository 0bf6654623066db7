#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays under .bench_build/ (Go's
# build cache, module cache and temporary files included) and bench/out/,
# both inside the checkout; nothing is read from the user's Go settings.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
# The image keeps the Go toolchain here; a bare PATH does not name it.
command -v go >/dev/null 2>&1 || PATH=$PATH:/usr/local/go/bin
export PATH HOME="$build" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$build/rocksmash-bench" .
cd "$root"
exec "$build/rocksmash-bench" "$@"
