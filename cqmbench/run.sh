#!/usr/bin/env bash
# Builds cqmserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash cqmbench/run.sh --workload steady --seed 1 --seconds 30 --trace 0
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/cqmserve" ]; then
	echo "run.sh: run from the repository root (no cmd/cqmserve here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp"
export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off
go build -o "$out/cqmserve" ./cmd/cqmserve
(cd "$root/cqmbench" && go build -o "$out/cqmbench" .)
exec "$out/cqmbench" --server "$out/cqmserve" --workdir "$out" "$@"
