#!/usr/bin/env bash
# Builds the benchmark and the daemon it drives, then runs the benchmark
# with the given arguments. Everything it writes stays inside the
# checkout: binaries and the Go build cache under .bench_build/, run
# output under .bench_out/ (or -out).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
# One invocation builds both main packages: the bench (this module) and
# geoblocksd (the parent module, reached through the replace directive).
(cd "$here" && go build -o "$build/bin/" . geoblocks/cmd/geoblocksd)
cd "$root"
exec "$build/bin/bench" "$@"
