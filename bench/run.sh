#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash bench/run.sh --workload fit-paper --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, temporary build files, and the go command's
# configuration and telemetry directory. The toolchain must be the local
# one; nothing is downloaded.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/hicsd ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and cmd/hicsd not found)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/bench" ./bench
exec "$out/bin/bench" "$@"
