#!/usr/bin/env bash
# run.sh builds the fobench driver and runs it against this checkout:
#
#   bash bench/run.sh --workload hot-direct --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build at the repository root):
# the Go build cache, temporary files, the server binaries, the systems'
# artifact stores and logs, and the span file. The driver's flags are
# documented in bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$build/bin/fobench" ./fobench)
exec "$build/bin/fobench" -root "$root" -workdir "$build" "$@"
