#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Invoke from the
# repository root:
#
#   bash perfbench/run.sh --workload paper4-full --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh -mode selfcheck -runs 5 -sets 2
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, temporary
# files, the benchmark binary and each run's private arena stores.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod/internal here)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOMODCACHE=$build/gomod
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" -build "$build" "$@"
