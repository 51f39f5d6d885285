#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the harness from
# source into .bench_build/ at the checkout root (Go build cache
# included, so nothing is written outside the checkout) and runs it from
# the root with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
