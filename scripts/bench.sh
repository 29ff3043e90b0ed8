#!/bin/sh
# Runs the named repo benchmarks and records each one's reported metrics in
# BENCH_<name>.json next to the module root. Requires only the Go toolchain.
#
#   scripts/bench.sh NAME...
#
#   fleet    BenchmarkFleet: solo vs 4-shard pool, vectored vs legacy link
#   trace    BenchmarkTraceOverhead: nop sink vs JSONL journal vs metrics
#            sink on identical campaigns (fails above 5% overhead)
#   restore  BenchmarkRestore: classic full restoration vs the
#            snapshot/delta rung (fails below a 3x per-restore saving)
#   tier     BenchmarkTier: emulation explore tier vs an all-hardware fleet
#            (fails below 5x faster time-to-coverage)
#
# Each reported value/unit pair becomes one JSON key: the unit, with "%"
# spelled "pct" and any other character outside [a-zA-Z0-9_/.-] dropped.
set -eu

cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
    echo "usage: $0 fleet|trace|restore|tier ..." >&2
    exit 2
fi

for name in "$@"; do
    case $name in
    fleet) bench=BenchmarkFleet ;;
    trace) bench=BenchmarkTraceOverhead ;;
    restore) bench=BenchmarkRestore ;;
    tier) bench=BenchmarkTier ;;
    *)
        echo "bench: unknown benchmark $name (want fleet, trace, restore or tier)" >&2
        exit 2
        ;;
    esac
    out=BENCH_$name.json

    raw=$(go test -run '^$' -bench "^$bench\$" -benchtime 1x . 2>&1) || {
        echo "$raw" >&2
        exit 1
    }
    echo "$raw"

    # The benchmark line looks like:
    #   BenchmarkTraceOverhead  1  4571234567 ns/op  2411 nop-execs/host-s  0.92 overhead-%
    echo "$raw" | awk -v bench="$bench" '
    $1 == bench || index($1, bench "-") == 1 {
        printf "{\n  \"benchmark\": \"%s\",\n", bench
        printf "  \"ns_per_op\": %s", $3
        for (i = 5; i + 1 <= NF; i += 2) {
            key = $(i + 1)
            gsub(/%/, "pct", key)
            gsub(/[^a-zA-Z0-9_\/.-]/, "", key)
            printf ",\n  \"%s\": %s", key, $i
        }
        printf "\n}\n"
        found = 1
    }
    END { if (!found) exit 1 }
    ' > "$out" || {
        echo "bench: no $bench line in output" >&2
        rm -f "$out"
        exit 1
    }
    echo "wrote $out"
done
