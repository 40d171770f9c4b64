#!/usr/bin/env bash
# Builds perabench from the sources of the repository this script sits in
# and runs it with the given arguments, e.g.
#
#   bash perabench/run.sh -workload uc1_fresh -seed 1
#
# Build outputs, the Go build cache and scratch files stay in
# $CARGO_TARGET_DIR (default: .bench_build in the current directory), so
# nothing is written outside the working tree. The build is offline.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp" "$out/gotmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$here" && go build -buildvcs=false -o "$out/perabench" .) >&2
exec "$out/perabench" -workdir "$out/tmp" "$@"
