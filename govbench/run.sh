#!/usr/bin/env bash
# Builds pds2-node from this tree and the govbench harness, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash govbench/run.sh --workload transfer-20k --seed 1 --seconds 16 --trace 0
#
# Build outputs, the Go build cache, node logs, data dirs and traces all
# stay under .bench_build/ in the repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/pds2-node" ./cmd/pds2-node >&2
(cd govbench && go build -o "$out/bin/govbench" .) >&2
exec "$out/bin/govbench" -node "$out/bin/pds2-node" -workdir "$out/run" "$@"
