#!/usr/bin/env bash
# Builds the benchmark from source and runs it once; the harness appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Works from any directory. Everything the build and the run write —
# Go's build cache and temp files, the binary, the servers' data, the
# span files — stays inside the checkout: .bench_build/ at its root and
# benchmark/out/. Both are in .gitignore.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
# The module imports nothing outside this repository, so the build needs
# no network; it fails here, before any result is printed, when the
# repository's own packages are missing.
(cd "$here" && go build -o "$build/bondbench" .)
exec "$build/bondbench" -tmp "$build/tmp" -out "$here/out" "$@"
