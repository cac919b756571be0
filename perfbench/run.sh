#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the benchmark write lands under the build
# directory ($CARGO_TARGET_DIR, default .bench_build), inside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/server ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a dualradio checkout" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/xdg" "$build/perfbench"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/xdg
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

go build -C perfbench -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" --work "$build/perfbench" --benchmark "$root/BENCHMARK.json" "$@"
