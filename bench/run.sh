#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources (once; rebuilt when a Go
# source is newer than the binary) and runs it. Everything the build and the
# run leave behind stays inside the checkout: .bench_build/ and bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/dloop-bench"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	go build -C "$here" -o "$bin" . >&2
fi
exec "$bin" -out "$here/out" "$@"
