#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with
# every argument passed through (see README.md). The binary, the Go
# build cache, temporary files, span files and CRAM spill runs all stay
# under the checkout's build directory ($CARGO_TARGET_DIR, default
# .bench_build).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/perfbench-bin" .)
cd "$root"
exec "$build/perfbench-bin" --out "$build/perfbench" "$@"
