#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. Run it
# from the repository root, for example:
#
#   bash perfbench/run.sh --workload ball3d-1m --seed 1 --seconds 8 --trace 0
#
# The Go build cache, module cache and toolchain configuration are kept
# under .bench_build/ so a run reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

commit=""
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off \
		go build -o "$out/perfbench" .
) >&2

PERFBENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
