#!/usr/bin/env bash
# Builds the release-pipeline benchmark from source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash relbench/run.sh --workload k-audit-10k --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and temporary files stay in .bench_build
# under the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"

go -C "$here" build -o "$build/relbench" .
exec "$build/relbench" "$@"
