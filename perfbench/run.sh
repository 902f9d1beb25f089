#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload flow-apu --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files stay under
# .bench_build/ in the checkout. The last line of standard output is the
# JSON result; build output goes to standard error.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the repository root; no TSteiner sources found in $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out/work" "$@"
