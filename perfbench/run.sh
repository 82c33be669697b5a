#!/usr/bin/env bash
# Builds the prover-stack benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload msm-g1 --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, temporaries, Chrome traces) go to
# .bench_build/ in the current directory and nowhere else.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# Build output goes to stderr so the result line stays the last line of stdout.
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
