#!/usr/bin/env bash
# Builds the served feed benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload feed-dense-64q --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so the run writes nowhere else.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
