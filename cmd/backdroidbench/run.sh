#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout it sits in and runs it
# from the checkout root; every argument is passed through, e.g.
#
#   bash cmd/backdroidbench/run.sh --workload cold-corpus --seed 7 --seconds 10 --trace 0
#
# The Go build cache, the go command's config and telemetry, the binary
# and the benchmark's scratch files all live under .bench_build/ in the
# checkout root, so nothing outside the checkout is written and a fresh
# checkout builds from source.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/cmd/backdroidbench" && go build -o "$build/backdroidbench" .)
cd "$root"
exec "$build/backdroidbench" -workdir "$build" "$@"
