#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root, then runs it with the given arguments. Everything the build and
# the runs write (Go build cache, temp files, database directories)
# stays under .bench_build/.
#
#   bash perfbench/run.sh --workload kv-hot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --workload kv-hot --repeat 10   # steadiness report
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
