#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments. Everything the build leaves behind — the binary, Go's
# build cache, its temporary files, the go command's own counters (which
# it keeps under the user configuration directory) — stays under
# .bench_build/ in the checkout, so a run reads and writes nothing
# outside it.
#
# The go command starts a detached telemetry child the first time it
# sees a configuration directory, and that child outlives `go build`
# (as a zombie where pid 1 does not reap). `go telemetry off` is the one
# go invocation that does not start it, and it switches the child off
# for the build that follows, so this script leaves no process behind —
# also when the build fails, as it does in a directory without the
# program.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go telemetry off
go build -o "$build/seedscan-benchmark" ./benchmark
exec "$build/seedscan-benchmark" "$@"
