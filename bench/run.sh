#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there with the given arguments. The build
# cache, temporary files and Go's own per-user files are kept inside
# .bench_build/ too, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/parmp-bench" .)
cd "$root"
exec "$build/parmp-bench" "$@"
