#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload swarm-coverage --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh report out1.txt out2.txt ...
#
# Build outputs and the Go build cache live under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" GOMODCACHE="$build/gomodcache"
if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
exec "$build/perfbench" "$@"
