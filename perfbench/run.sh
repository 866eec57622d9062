#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source in this checkout and runs it.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload poi-query|bulk-mix|tiled-lod --seed N --seconds S --trace 0|1
#
# Every build and run artifact (Go build cache, binary, container files,
# trace spans) stays under .bench_build/perfbench in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root; the seoracle sources are not here" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
