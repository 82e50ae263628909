#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload synth-paper --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, Go cache, Go
# configuration file and temporary file stays under .bench_build/ in the
# current directory, and nothing is fetched over the network. Without the
# main module next to perfbench/ the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# The go command's telemetry counters would otherwise be written under the
# (relocated) home directory on every build.
go telemetry off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
