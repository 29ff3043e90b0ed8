#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it. Run it
# from the repository root:
#
#   bash eofbench/run.sh --workload solo --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the binary,
# temporary files and the workloads' corpus stores and journals.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

(cd "$root/eofbench" && go build -o "$out/eofbench" .) >&2
exec "$out/eofbench" --workdir "$out/work" "$@"
