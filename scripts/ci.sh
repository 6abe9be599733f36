#!/usr/bin/env bash
# ci.sh — the full local gate: formatting, release build, every test
# suite, and the hermetic-dependency check. Run before sending a PR;
# everything here must pass with nothing but a Rust toolchain and no
# network access.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark build (perfbench/ compiles against the library APIs)"
# perfbench/ is its own package with path dependencies on crates/*, so
# the workspace build does not cover it; a library API change that
# breaks the benchmark must fail here.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> parallel determinism gate (golden suffix fixture at 1, 2, 4 workers)"
# The sharded kernel's contract: any worker count synthesizes
# byte-identical suffixes. Run the golden fixture test under each
# worker count — the fixture file is the same, so any divergence is a
# byte-for-byte diff failure.
for workers in 1 2 4; do
    echo "    RES_WORKERS=$workers"
    RES_WORKERS=$workers cargo test -q --test suffix_golden \
        default_dfs_suffixes_match_pre_refactor_fixture
done

echo "==> cross-run determinism gate (golden suffix fixture, cold then warm store)"
# The persistent store's contract: a warm run absorbing a populated
# store synthesizes byte-identical suffixes to a cold run. Run the
# golden fixture test twice against one store file — the first run
# populates it, the second answers solver queries from it; both must
# match the very same cold golden fixture.
scratch_dir="$(mktemp -d)"
trap 'rm -rf "$scratch_dir"' EXIT
for pass in cold warm; do
    echo "    RES_CACHE_PATH ($pass)"
    RES_CACHE_PATH="$scratch_dir/ci.resstore" cargo test -q --test suffix_golden \
        default_dfs_suffixes_match_pre_refactor_fixture
done
test -s "$scratch_dir/ci.resstore" || { echo "store was never populated"; exit 1; }

echo "==> triage daemon gate (serve/submit round trip, batch byte-identity)"
# Layer 1: the shipped binaries. Boot `res-serve` on an ephemeral port,
# round-trip one coredump through `res-cli submit`, and shut it down
# over the wire.
serve_dir="$scratch_dir/serve"
mkdir -p "$serve_dir"
cargo run --release -q --bin res-cli -- crash div-by-zero "$serve_dir/dump" > /dev/null
cargo run --release -q --bin res-serve -- --addr 127.0.0.1:0 \
    --store "$serve_dir/hot" --trace "$serve_dir/serve.jsonl" \
    > "$serve_dir/addr.txt" &
serve_pid=$!
for _ in $(seq 1 100); do
    grep -q '^addr: ' "$serve_dir/addr.txt" 2>/dev/null && break
    sleep 0.1
done
serve_addr="$(sed -n 's/^addr: //p' "$serve_dir/addr.txt")"
test -n "$serve_addr" || { echo "daemon never printed its address"; exit 1; }
cargo run --release -q --bin res-cli -- submit "$serve_dir/dump" --addr "$serve_addr" \
    | grep -q "REPRODUCED" || { echo "submitted dump did not reproduce"; exit 1; }
# The live telemetry endpoint: the stats round trip must report the
# requests served so far and a populated triage latency histogram, and
# the per-endpoint quantile extract is a CI artifact.
stats_out="$(cargo run --release -q --bin res-cli -- stats --addr "$serve_addr")"
echo "$stats_out" | grep -Eq 'serve\.requests +[1-9]' \
    || { echo "stats endpoint reports no served requests"; exit 1; }
echo "$stats_out" | grep -Eq 'serve\.rtt\.triage_us +n=[1-9]' \
    || { echo "stats endpoint carries no triage latency samples"; exit 1; }
cargo run --release -q --bin res-cli -- stats --addr "$serve_addr" --latency-json \
    > "$repo_root/BENCH_serve_latency.json"
test -s "$repo_root/BENCH_serve_latency.json" \
    || { echo "latency artifact was never written"; exit 1; }
if grep -q '"triage":{"count":0,' "$repo_root/BENCH_serve_latency.json"; then
    echo "latency artifact has an empty triage histogram"; exit 1
fi
grep -q '"triage":{"count":' "$repo_root/BENCH_serve_latency.json" \
    || { echo "latency artifact missing the triage endpoint"; exit 1; }
cargo run --release -q --bin res-cli -- shutdown --addr "$serve_addr" > /dev/null
wait "$serve_pid"
grep -q "serve.completed" "$serve_dir/serve.jsonl" \
    || { echo "daemon journal missing serve gauges"; exit 1; }
# The journal reconciliation gate: every request in the daemon's
# journal must reconstruct as a fully-closed span tree rooted at its
# `serve.req` span (`res-cli journal --requests` exits non-zero on any
# broken request).
echo "    journal reconciles per-request span trees"
journal_out="$(cargo run --release -q --bin res-cli -- journal "$serve_dir/serve.jsonl" --requests)" \
    || { echo "journal requests did not reconcile"; exit 1; }
echo "$journal_out" | grep -Eq 'c[0-9]+\.[0-9]+ +triage +[0-9]+ +ok' \
    || { echo "journal carries no reconciled triage request"; exit 1; }
# Layer 2: the SRV throughput extract. Boots the daemon in-process,
# shards a >=50-dump generated corpus across concurrent client
# connections twice (cold, then warm hot store), and exits non-zero
# unless every answer is byte-identical to the sequential direct
# library run, the warm pass serves a nonzero hot-store hit rate, and
# automatic store compaction fired. Emits BENCH_serve_throughput.json
# plus the daemon's own journal.
RES_BENCH_OUT="$repo_root" \
    cargo run --release -q -p res-bench --bin harness -- srv | tail -n 1
test -s "$repo_root/BENCH_serve_throughput.json" \
    || { echo "serve bench artifact was never written"; exit 1; }
for needle in serve.queue.depth serve.hot.programs serve.hot.hit store.compact.auto; do
    grep -q "$needle" "$repo_root/BENCH_serve_journal.jsonl" \
        || { echo "daemon journal missing $needle"; exit 1; }
done

echo "==> traced determinism gate (golden suffix fixture with RES_TRACE on)"
# The observability contract: the recorder is strictly passive. Run the
# golden fixture test with journaling enabled — the fixture file is
# still the same, so tracing must not change a single synthesized byte —
# then parse and sanity-check the journal it left behind.
echo "    RES_TRACE (passivity)"
RES_TRACE="$scratch_dir/golden.jsonl" cargo test -q --test suffix_golden \
    default_dfs_suffixes_match_pre_refactor_fixture
test -s "$scratch_dir/golden.jsonl" || { echo "trace journal was never written"; exit 1; }
echo "    journal parses and reconstructs the run"
trace_out="$(cargo run --release -q --bin res-cli -- trace "$scratch_dir/golden.jsonl")"
echo "$trace_out" | grep -q "synthesize" || { echo "journal missing synthesize span"; exit 1; }
echo "$trace_out" | grep -q "kernel.nodes_expanded" || { echo "journal missing kernel counters"; exit 1; }

echo "==> replay-trace gate (record / replay / verify, both encodings)"
# The portable-trace contract: `record` writes byte-identical files at
# any worker count and in either encoding; `replay` reproduces the
# recorded failure from the file alone; `verify` against the repaired
# program FAILs with a point-of-first-divergence report. All four
# claims are exercised through the shipped binaries.
trace_dir="$scratch_dir/trace"
cargo run --release -q --bin res-cli -- crash div-by-zero "$trace_dir" --emit-fixed > /dev/null
echo "    record is byte-identical across worker counts and re-runs"
for workers in 1 4; do
    cargo run --release -q --bin res-cli -- record "$trace_dir" \
        --workers "$workers" --out "$trace_dir/w$workers.restrace" > /dev/null
    cargo run --release -q --bin res-cli -- record "$trace_dir" \
        --workers "$workers" --out "$trace_dir/w$workers.restrace.bin" > /dev/null
done
cmp "$trace_dir/w1.restrace" "$trace_dir/w4.restrace" \
    || { echo "JSON traces differ across worker counts"; exit 1; }
cmp "$trace_dir/w1.restrace.bin" "$trace_dir/w4.restrace.bin" \
    || { echo "binary traces differ across worker counts"; exit 1; }
echo "    JSON <-> binary carry the same trace"
inspect_json="$(cargo run --release -q --bin store-inspect -- "$trace_dir/w1.restrace" | grep -v -e '^replay trace:' -e 'encoding:' -e 'bytes:')"
inspect_bin="$(cargo run --release -q --bin store-inspect -- "$trace_dir/w1.restrace.bin" | grep -v -e '^replay trace:' -e 'encoding:' -e 'bytes:')"
[ "$inspect_json" = "$inspect_bin" ] \
    || { echo "encodings disagree about the trace contents"; exit 1; }
echo "    replay reproduces from the file alone"
for t in w1.restrace w1.restrace.bin; do
    cargo run --release -q --bin res-cli -- replay "$trace_dir" "$trace_dir/$t" \
        | grep -q "REPRODUCED" || { echo "$t did not reproduce"; exit 1; }
done
echo "    verify FAILs on the repaired program with a divergence report"
cp "$trace_dir/program.fixed.json" "$trace_dir/program.json"
for t in w1.restrace w1.restrace.bin; do
    if out="$(cargo run --release -q --bin res-cli -- verify "$trace_dir" "$trace_dir/$t")"; then
        echo "$t verified PASS against the repaired program"; exit 1
    fi
    echo "$out" | grep -q "FAIL: first divergence at event" \
        || { echo "$t FAIL report carries no divergence point"; exit 1; }
done

echo "==> corpus-scale smoke gate (seeded generator, E5c/E6c/E7c)"
# The buggy-program generator + parallel corpus harness: a small
# generated population (RES_GEN_SMOKE programs per experiment) must hold
# the same shapes as the full sweep, at a fixed small thread count so CI
# machines of any width exercise the sharded path identically. The full
# >=200-program sweep stays out of the hot path — run it explicitly with
#   cargo run --release -p res-bench --bin harness -- e5c e6c e7c
RES_GEN_SMOKE=8 RES_HARNESS_THREADS=2 \
    cargo run --release -q -p res-bench --bin harness -- e5c e6c e7c \
    | tail -n 1

echo "==> hermetic dependency check"
"$repo_root/scripts/check_hermetic.sh"

echo "ci OK"
