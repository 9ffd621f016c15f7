#!/usr/bin/env bash
# The whole local gate, fully offline. Run before pushing.
#
#   scripts/ci.sh             # the mandatory gate
#   SSQ_CI_DEEP=1 scripts/ci.sh   # + miri and ThreadSanitizer stages
#
# Mirrors what reviewers run: static analysis, format check, clippy
# (mandatory — a missing clippy component fails the gate), release build,
# full tests. The deep stages need a nightly toolchain with the miri and
# rust-src components; when those are absent each stage prints a SKIPPED
# notice and the gate continues — deep stages never fail the build by
# being unavailable, only by finding bugs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> ssq-analyze (mandatory static analysis; exit 1 = violations or stale suppressions, 2 = internal error)"
# The rules rustc and clippy cannot check: float-cmp and deny-alloc on
# each file, deny-alloc-transitive and lock-rank-static over the
# workspace call graph. The JSON report is the gate's build artifact
# (git-ignored); --audit-suppressions additionally fails the stage when
# an allow directive no longer matches anything.
cargo run -q -p ssq-analyze -- --json ANALYZE_REPORT.json --audit-suppressions
test -s ANALYZE_REPORT.json

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (mandatory, warnings are errors)"
# Besides clippy::all this enforces the crate lints: unwrap_used,
# expect_used, panic, unreachable, todo and unimplemented are denied in
# the library code of engine, shard, net, diagram, core, geom, delaunay,
# rtree and skyline; undocumented_unsafe_blocks is denied workspace-wide
# (Cargo.toml), test allocators included. An audited exception carries
# #[expect(clippy::.., reason = "..")], and one that no longer matches
# anything fails here through unfulfilled_lint_expectations.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> examples (cargo test builds them but never runs them; their assert!s run here)"
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" > /dev/null
done

echo "==> cargo test (detected SIMD dispatch)"
cargo test --workspace -q

echo "==> cargo test (SSQ_FORCE_SCALAR=1 — scalar tile-kernel oracle)"
# The full suite runs twice so every equivalence and integration test
# exercises both sides of the runtime dispatch: the detected AVX2/SSE2
# tile kernels above, the scalar oracle here. Same binaries, no rebuild.
SSQ_FORCE_SCALAR=1 cargo test --workspace -q

echo "==> loopback suite 10× in release (each connection's reader and reply thread buffer replies and write just before they block; repeated runs vary how the two interleave)"
for _ in $(seq 1 10); do
    cargo test --release -q -p ssq-net --test loopback
done

echo "==> delta chain (release-only, #[ignore]d in the suites above: 500 snapshot generations, tombstone rebuilds, node and chunk sharing, layout decay; the 100k/400k/1M publish scaling row)"
cargo test --release -q --test delta_chain -- --ignored

echo "==> VS² tail work pin (release-only, #[ignore]d in the suites above: 200k points by |S| class; top class <= 2 rows per skyline point, walk equal to the certificate-free replay)"
cargo test --release -q --test scale -- --ignored --nocapture

echo "==> one-pass cell boxes (release-only, #[ignore]d in the suites above: 200k points, seeds 42 and 7; every box equal to the polygon path's bit for bit)"
cargo test --release -q --test cell_boxes -- --ignored

echo "==> reproduce count pin (Fig. 12b/12c/12e/12f, VCS² outcome mix, mixed |S| must print reproduce_output.txt's columns)"
# The dominance-check and node-access columns, the continuous table's
# outcome mix and the mixed table's skyline sizes are seeded counts, not
# timings: a traversal or resolve change that moves them is a behaviour
# change and must update the checked-in file on purpose. Between them they
# cover every caller of the Delaunay walk (VS², VCS², mixed VS²). The ms
# columns of the last two tables are dropped.
count_blocks() {
    awk '/^== /{ whole = /Figure 12[bcef]:/; counts = /Continuous SSQ|Mixed skylines/
                 if (whole || counts) print
                 next }
         /^done\.$/ { next }
         whole
         counts && NF { print $1, $2, $3, $4 }' "$1"
}
diff <(count_blocks reproduce_output.txt) \
    <(./target/release/reproduce --fig12b --fig12c --fig12e --fig12f --continuous --mixed \
        --n 30000 --batch 20 2>/dev/null | count_blocks /dev/stdin)

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# The benchmark BENCHMARK.json declares is a package of its own, outside
# the workspace, so the workspace stages above never build or test it.
# Building it rewrites its Cargo.lock, so the lock is saved before the two
# benchmark stages and put back on exit, however the gate ends: the
# package stays byte-identical.
BENCH_LOCK=crates/bench/src/bin/benchmark/Cargo.lock
BENCH_LOCK_SAVED="$(mktemp)"
cp "$BENCH_LOCK" "$BENCH_LOCK_SAVED"
NET_SMOKE_DIR=""
on_exit() {
    cp "$BENCH_LOCK_SAVED" "$BENCH_LOCK"
    rm -rf "$BENCH_LOCK_SAVED" ${NET_SMOKE_DIR:+"$NET_SMOKE_DIR"}
}
trap on_exit EXIT
echo "==> benchmark tests"
cargo test --release --offline --manifest-path crates/bench/src/bin/benchmark/Cargo.toml

echo "==> benchmark smoke (all five workloads; fails on wrong answers, frame errors or non-finite metrics)"
cargo run --release --offline --quiet --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --smoke

# Clippy's panic lints already hold crates/net panic-free in its library
# code (the clippy stage); this drives the shipped binary end to end: serve on :0 with
# stdin on a FIFO, burst a pipelined client at it (single-query frames,
# then `Batch` frames that repeat query sets), close the FIFO (EOF
# = shutdown), and require the clean-drain report and exit 0. It runs
# once per backend: the single engine, and a 4-shard fleet whose
# dispatcher threads run shard batches themselves. A third run turns the
# skyline diagram on: its query sets have 3 points, so every set is a
# key-cell shape, each repeat is a hit the connection's reader answers
# itself, and the drain report must count some.
NET_SMOKE_DIR="$(mktemp -d)"
./target/release/ssq generate --n 500 --out "$NET_SMOKE_DIR/points.csv" --seed 7
net_smoke() {   # net_smoke <label> [extra serve flags...]
    local label="$1"; shift
    local log="$NET_SMOKE_DIR/$label.log" control="$NET_SMOKE_DIR/$label.control"
    mkfifo "$control"
    ./target/release/ssq serve --data "$NET_SMOKE_DIR/points.csv" --addr 127.0.0.1:0 "$@" \
        < "$control" > "$log" &
    local serve_pid=$!
    exec 9> "$control"   # hold the write end: serve runs until we close it
    local addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$log" | head -n1)"
        [[ -n "$addr" ]] && break
        sleep 0.1
    done
    [[ -n "$addr" ]] || { echo "serve ($label) never printed its address"; exit 1; }
    local diagram=0 count=5
    [[ " $* " == *" --diagram "* ]] && diagram=1 count=3
    ./target/release/ssq net-throughput --addr "$addr" --count "$count" \
        --connections 8 --pipeline 16 --requests 400
    # Batch frames of 8 over 4 query sets: every frame repeats each set.
    ./target/release/ssq net-throughput --addr "$addr" --count "$count" \
        --connections 8 --pipeline 16 --requests 100 --batch 8 --distinct 4
    exec 9>&-            # EOF on stdin: drain and exit
    wait "$serve_pid"    # exit 0 or the gate fails (set -e)
    # The drain report is the rendered counter table: a clean run shows
    # the wire never saw a bad frame and no client write stalled.
    for want in "drained clean" "ssq_net_frame_errors 0" "ssq_net_write_timeouts 0"; do
        grep -qx ".*$want" "$log" \
            || { echo "serve ($label) did not report '$want'"; cat "$log"; exit 1; }
    done
    if (( diagram )); then
        grep -Eqx "ssq_diagram_hits [1-9][0-9]*" "$log" \
            || { echo "serve ($label) reported no diagram hit"; cat "$log"; exit 1; }
    fi
}
echo "==> net serve smoke, single engine (real ssq binary, ephemeral port, single and batch frames, clean shutdown)"
net_smoke single
echo "==> net serve smoke, 4 shards"
net_smoke sharded --shards 4
echo "==> net serve smoke, single engine with the skyline diagram (3-point sets, repeats hit)"
net_smoke diagram --diagram

echo "==> fleet ingest through the shipped binary (4 shards, 40 delta batches; the net-shrinking ones move ids)"
./target/release/ssq shard-stats --data "$NET_SMOKE_DIR/points.csv" --shards 4 \
    --ingest-batches 40 --ops 30 > "$NET_SMOKE_DIR/ingest.log"
grep -qx "ssq_ingest_batches 40" "$NET_SMOKE_DIR/ingest.log" \
    || { echo "shard-stats did not publish 40 ingest batches"; cat "$NET_SMOKE_DIR/ingest.log"; exit 1; }

if [[ "${SSQ_CI_DEEP:-0}" == "1" ]]; then
    echo "==> deep: miri (undefined-behavior check on the core unit tests)"
    if cargo +nightly miri --version >/dev/null 2>&1; then
        # Unit tests only: miri cannot spawn real OS threads fast enough
        # for the pool integration tests to be worth the hours.
        MIRIFLAGS="-Zmiri-disable-isolation" \
            cargo +nightly miri test -p ssq-geom -p ssq-core --lib -q
    else
        echo "    SKIPPED: nightly miri not installed (rustup +nightly component add miri)"
    fi

    echo "==> deep: ThreadSanitizer (data-race check on the engine concurrency tests and the two-thread publish)"
    if cargo +nightly --version >/dev/null 2>&1 \
        && [[ -d "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library" ]]; then
        tsan() {
            RUSTFLAGS="-Zsanitizer=thread" \
                cargo +nightly test -Zbuild-std \
                --target x86_64-unknown-linux-gnu -q "$@"
        }
        tsan -p ssq-engine --test lock_order
        # A publish runs on the caller and the ssq-publish helper: the
        # index delta tests, the join helper's, and the engine's ingest
        # and apply_delta tests.
        tsan -p ssq-core --lib -- index:: delta::
        tsan -p ssq-engine --lib -- ingest apply_delta
    else
        echo "    SKIPPED: nightly rust-src not installed (rustup +nightly component add rust-src)"
    fi
else
    echo "==> deep stages skipped (set SSQ_CI_DEEP=1 to run miri + ThreadSanitizer)"
fi

echo "==> ci.sh: all green"
