#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload ask-repeat --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, trained weights, answer table) stays under
# .bench_build/ in the current directory. The first run of a version of
# the served program trains the tenant model in a process of its own,
# so every measured process starts the same way.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
"$out/perfbench" --state "$out" --provision-only >&2
exec "$out/perfbench" --state "$out" "$@"
