#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark driver from
# source and runs it with the caller's arguments. Everything the build
# and the run write (Go build cache, temp files, binaries, datasets)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
