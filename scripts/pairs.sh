#!/usr/bin/env bash
# Alternating parent/change runs of one benchmark workload.
#
#   scripts/pairs.sh <parent-checkout> <change-checkout> <workload> <pairs> [seed]
#
# Builds the benchmark (BENCHMARK.json's package) in each checkout, into
# <checkout>/.bench_build, putting the package's Cargo.lock back after
# the build. Then it runs <pairs> pairs, parent first in odd pairs and
# change first in even ones, and prints one line per run:
#
#   - the six end-to-end metrics and the failed/attempted operations;
#   - cpu_us_op: the benchmark process's user+sys CPU time per attempted
#     operation, in microseconds (set-up and oracle included);
#   - probe: wall time of two one-thread awk loops run side by side over
#     the time of one run alone, taken just before the run. About 1.0
#     means a second core was free, about 2.0 that the run met one core.
#
# Last come each side's medians and, per metric, the pairs the change
# won (higher throughput, lower everything else). Only bash and awk.
set -euo pipefail

if (( $# < 4 )); then
    echo "usage: $0 <parent-checkout> <change-checkout> <workload> <pairs> [seed]" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="$4"
seed="${5:-42}"
package=crates/bench/src/bin/benchmark

build() {   # build <checkout>
    local lock="$1/$package/Cargo.lock" saved
    saved="$(mktemp)"
    cp "$lock" "$saved"
    CARGO_TARGET_DIR="$1/.bench_build" cargo build --release --offline --quiet \
        --manifest-path "$1/$package/Cargo.toml"
    cp "$saved" "$lock"
    rm -f "$saved"
}

# Wall seconds of one awk loop alone and of two side by side.
spin() { awk 'BEGIN { for (i = 0; i < 4e7; i++) s += i }'; }
probe() {
    local t0 t1 t2
    t0=$EPOCHREALTIME; spin; t1=$EPOCHREALTIME
    spin & spin & wait
    t2=$EPOCHREALTIME
    awk -v a="$t0" -v b="$t1" -v c="$t2" 'BEGIN { printf "%.2f", (c - b) / (b - a) }'
}

# run <side> <checkout> <pair>: prints one result row.
run() {
    local side="$1" dir="$2" pair="$3" ratio out cpu
    ratio="$(probe)"
    out="$(mktemp)"
    cpu="$( { TIMEFORMAT='%U %S'; time (cd "$dir" && ./.bench_build/release/benchmark \
        --workload "$workload" --seed "$seed" > "$out" 2>/dev/null); } 2>&1 )"
    awk -v side="$side" -v pair="$pair" -v probe="$ratio" -v cpu="$cpu" '
        END {
            line = $0
            n = split("setup_s throughput_ops_s latency_p50_us latency_p99_us publish_p50_ms peak_rss_mib", names, " ")
            row = side " " pair
            for (i = 1; i <= n; i++) {
                v = "nan"
                if (match(line, "\"" names[i] "\": *\\{\"value\": *[-0-9.eE+]+")) {
                    v = substr(line, RSTART, RLENGTH); sub(/.*: */, "", v)
                }
                row = row " " v
            }
            attempted = failed = "nan"
            if (match(line, /"attempted": *[0-9]+/)) { attempted = substr(line, RSTART, RLENGTH); sub(/.*: */, "", attempted) }
            if (match(line, /"failed": *[0-9]+/)) { failed = substr(line, RSTART, RLENGTH); sub(/.*: */, "", failed) }
            split(cpu, c, " ")
            per_op = (attempted + 0 > 0) ? sprintf("%.3f", (c[1] + c[2]) * 1e6 / attempted) : "nan"
            print row, failed "/" attempted, per_op, probe
        }' "$out"
    rm -f "$out"
}

build "$parent"
build "$change"

rows="$(mktemp)"
trap 'rm -f "$rows"' EXIT
printf '%-7s %4s %9s %12s %9s %9s %9s %9s %16s %9s %6s\n' side pair setup_s \
    throughput p50_us p99_us pub_ms rss_mib failed/attempt cpu_us_op probe
for (( p = 1; p <= pairs; p++ )); do
    if (( p % 2 )); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [[ "$side" == parent ]]; then dir="$parent"; else dir="$change"; fi
        row="$(run "$side" "$dir" "$p")"
        echo "$row" >> "$rows"
        echo "$row" | awk '{ printf "%-7s %4s %9.4f %12.1f %9.2f %9.2f %9.3f %9.2f %16s %9s %6s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11 }'
    done
done

awk -v pairs="$pairs" '
    function median(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    BEGIN {
        split("setup_s throughput_ops_s latency_p50_us latency_p99_us publish_p50_ms peak_rss_mib cpu_us_op", names, " ")
        split("3 4 5 6 7 8 10", cols, " ")
        split("-1 1 -1 -1 -1 -1 -1", better, " ")
    }
    { side[NR] = $1; pair[NR] = $2; for (k = 1; k <= 7; k++) v[NR, k] = $(cols[k]) }
    END {
        printf "\n%-18s %14s %14s %8s %10s\n", "metric", "parent_median", "change_median", "change", "pairs_won"
        for (k = 1; k <= 7; k++) {
            np = nc = won = 0
            delete p; delete c; delete pp; delete cc
            for (r = 1; r <= NR; r++) {
                if (side[r] == "parent") { p[++np] = v[r, k]; pp[pair[r]] = v[r, k] }
                else { c[++nc] = v[r, k]; cc[pair[r]] = v[r, k] }
            }
            for (q in pp) if (q in cc && (cc[q] - pp[q]) * better[k] > 0) won++
            mp = median(p, np); mc = median(c, nc)
            printf "%-18s %14.4f %14.4f %+7.1f%% %6d/%d\n", names[k], mp, mc, (mp != 0 ? 100 * (mc - mp) / mp : 0), won, pairs
        }
    }' "$rows"
