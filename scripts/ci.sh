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

echo "==> codec, suffix identity, store-open, store-key, solver and hardware-sweep properties under two more seeds"
# The direct JSON reader must equal the tree path (value or error), a
# suffix's direct identity text its derived `Debug`, and the store key
# its reference implementation, on every random case; every solver
# model must satisfy its constraints, and every bounded Unsat survive
# brute force; a check that starts from its parent's solver fixpoint
# must answer and count exactly as a from-scratch check; every §3.2
# verdict, with its searches stopped once settled, must equal the
# sweep that runs every search to the end. Two more fixed seeds make
# each CI run check three times as many cases against the reference.
for seed in 1 2; do
    echo "    RES_PROP_SEED=$seed"
    RES_PROP_SEED=$seed cargo test -q --test codec_identity
    RES_PROP_SEED=$seed cargo test -q --test suffix_identity \
        arbitrary_suffixes_write_like_debug
    RES_PROP_SEED=$seed cargo test -q --test store_robustness \
        store_open_matches_the_tree_reference_under_mutation
    RES_PROP_SEED=$seed cargo test -q --test canonical_key
    RES_PROP_SEED=$seed cargo test -q --test properties solver_soundness
    RES_PROP_SEED=$seed cargo test -q --test properties solver_fixpoint
    RES_PROP_SEED=$seed cargo test -q -p res-core --lib \
        hwerr::tests::settled_sweeps_give_the_reference_verdicts
done

echo "==> benchmark build and self-test (perfbench/)"
# perfbench/ is its own package with path dependencies on crates/*, so
# the workspace build does not cover it; a library API change that
# breaks the benchmark must fail here. Its self-test then runs every
# workload briefly and fails if any operation fails its answer check.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cross-run determinism gate (golden suffix, triage, depth-48 and hardware-verdict fixtures, cold then warm store)"
# The persistent store's contract: a warm run absorbing a populated
# store synthesizes byte-identical suffixes to a cold run. Run the
# golden fixture test twice against one store file — the first run
# populates it, the second answers solver queries from it; both must
# match the very same cold golden fixture. The triage, depth-48 and
# hardware-verdict fixtures span many programs, so each of their
# stores is a directory with one file per program. The warm run learns
# nothing new, so it must not write a store either: the stores after
# the warm pass must equal copies taken after the cold one.
scratch_dir="$(mktemp -d)"
trap 'rm -rf "$scratch_dir"' EXIT
for pass in cold warm; do
    echo "    RES_CACHE_PATH ($pass)"
    RES_CACHE_PATH="$scratch_dir/ci.resstore" cargo test -q --test suffix_golden \
        default_dfs_suffixes_match_pre_refactor_fixture
    RES_CACHE_PATH="$scratch_dir/triage-store" cargo test -q --test triage_golden
    RES_CACHE_PATH="$scratch_dir/deep-store" cargo test -q --test deep_golden
    RES_CACHE_PATH="$scratch_dir/hw-store" cargo test -q --test hw_verdict_golden
    if [ "$pass" = cold ]; then
        test -s "$scratch_dir/ci.resstore" || { echo "store was never populated"; exit 1; }
        cp "$scratch_dir/ci.resstore" "$scratch_dir/ci.cold.resstore"
        test -n "$(ls -A "$scratch_dir/triage-store")" \
            || { echo "triage stores were never populated"; exit 1; }
        cp -r "$scratch_dir/triage-store" "$scratch_dir/triage-store.cold"
        test -n "$(ls -A "$scratch_dir/deep-store")" \
            || { echo "depth-48 stores were never populated"; exit 1; }
        cp -r "$scratch_dir/deep-store" "$scratch_dir/deep-store.cold"
        test -n "$(ls -A "$scratch_dir/hw-store/in-store")" \
            || { echo "hardware-verdict stores were never populated"; exit 1; }
        cp -r "$scratch_dir/hw-store" "$scratch_dir/hw-store.cold"
    fi
done
cmp "$scratch_dir/ci.resstore" "$scratch_dir/ci.cold.resstore" \
    || { echo "the warm pass rewrote the store"; exit 1; }
diff -r "$scratch_dir/triage-store" "$scratch_dir/triage-store.cold" \
    || { echo "the warm pass rewrote a triage store"; exit 1; }
diff -r "$scratch_dir/deep-store" "$scratch_dir/deep-store.cold" \
    || { echo "the warm pass rewrote a depth-48 store"; exit 1; }
diff -r "$scratch_dir/hw-store" "$scratch_dir/hw-store.cold" \
    || { echo "the warm pass rewrote a hardware-verdict store"; exit 1; }

echo "==> triage daemon gate (serve/submit round trip, stats, journal)"
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
# requests served so far and a populated triage latency histogram.
stats_out="$(cargo run --release -q --bin res-cli -- stats --addr "$serve_addr")"
echo "$stats_out" | grep -Eq 'serve\.requests +[1-9]' \
    || { echo "stats endpoint reports no served requests"; exit 1; }
echo "$stats_out" | grep -Eq 'serve\.rtt\.triage_us +n=[1-9]' \
    || { echo "stats endpoint carries no triage latency samples"; exit 1; }
cargo run --release -q --bin res-cli -- shutdown --addr "$serve_addr" > /dev/null
wait "$serve_pid"
grep -q "serve.completed" "$serve_dir/serve.jsonl" \
    || { echo "daemon journal missing serve gauges"; exit 1; }
# The hot store's traffic is journaled as gauges read from the store
# itself; the first submit opened the store, so it missed.
grep -q '"Gauge":{"name":"serve.hot.misses","value":[1-9]' "$serve_dir/serve.jsonl" \
    || { echo "daemon journal missing the serve.hot.misses gauge"; exit 1; }
# The journal reconciliation gate: every request in the daemon's
# journal must reconstruct as a fully-closed span tree rooted at its
# `serve.req` span (`res-cli journal --requests` exits non-zero on any
# broken request).
echo "    journal reconciles per-request span trees"
journal_out="$(cargo run --release -q --bin res-cli -- journal "$serve_dir/serve.jsonl" --requests)" \
    || { echo "journal requests did not reconcile"; exit 1; }
echo "$journal_out" | grep -Eq 'c[0-9]+\.[0-9]+ +triage +[0-9]+ +ok' \
    || { echo "journal carries no reconciled triage request"; exit 1; }

echo "==> traced determinism gate (golden suffix, triage, depth-48 and hardware-verdict fixtures with RES_TRACE on)"
# The observability contract: the recorder is strictly passive. Run the
# golden fixture tests with journaling enabled — the fixture files are
# still the same, so tracing must not change a single synthesized byte
# or triage answer — then parse and sanity-check the journal left
# behind.
echo "    RES_TRACE (passivity)"
RES_TRACE="$scratch_dir/golden.jsonl" cargo test -q --test suffix_golden \
    default_dfs_suffixes_match_pre_refactor_fixture
test -s "$scratch_dir/golden.jsonl" || { echo "trace journal was never written"; exit 1; }
RES_TRACE="$scratch_dir/triage.jsonl" cargo test -q --test triage_golden
test -s "$scratch_dir/triage.jsonl" || { echo "triage trace journal was never written"; exit 1; }
RES_TRACE="$scratch_dir/deep.jsonl" cargo test -q --test deep_golden
test -s "$scratch_dir/deep.jsonl" || { echo "depth-48 trace journal was never written"; exit 1; }
RES_TRACE="$scratch_dir/hw.jsonl" cargo test -q --test hw_verdict_golden
test -s "$scratch_dir/hw.jsonl" || { echo "hardware-verdict trace journal was never written"; exit 1; }
echo "    journal parses and reconstructs the run"
trace_out="$(cargo run --release -q --bin res-cli -- trace "$scratch_dir/golden.jsonl")"
echo "$trace_out" | grep -q "synthesize" || { echo "journal missing synthesize span"; exit 1; }
echo "$trace_out" | grep -q "kernel.nodes_expanded" || { echo "journal missing kernel counters"; exit 1; }
echo "$trace_out" | grep -q "solver.queries" || { echo "journal missing solver counters"; exit 1; }

echo "==> replay-trace gate (record / replay / verify)"
# The portable-trace contract: `record` writes the same bytes every
# time, with or without a journal; `store-inspect` reads the trace back;
# `replay` reproduces the recorded failure from the file alone; `verify`
# against the repaired program FAILs with a point-of-first-divergence
# report. All four claims are exercised through the shipped binaries.
trace_dir="$scratch_dir/trace"
cargo run --release -q --bin res-cli -- crash div-by-zero "$trace_dir" --emit-fixed > /dev/null
echo "    record is byte-identical run to run, traced or not"
cargo run --release -q --bin res-cli -- record "$trace_dir" \
    --out "$trace_dir/plain.restrace" > /dev/null
cargo run --release -q --bin res-cli -- record "$trace_dir" \
    --trace "$trace_dir/record.jsonl" --out "$trace_dir/traced.restrace" > /dev/null
test -s "$trace_dir/record.jsonl" || { echo "record journal was never written"; exit 1; }
cmp "$trace_dir/plain.restrace" "$trace_dir/traced.restrace" \
    || { echo "tracing changed the recorded trace"; exit 1; }
echo "    store-inspect reads the trace"
inspect_out="$(cargo run --release -q --bin store-inspect -- "$trace_dir/plain.restrace")" \
    || { echo "store-inspect failed on the trace"; exit 1; }
grep -Eq '^  events: +[1-9]' <<< "$inspect_out" \
    || { echo "store-inspect reports no trace events"; exit 1; }
echo "    replay reproduces from the file alone"
cargo run --release -q --bin res-cli -- replay "$trace_dir" "$trace_dir/plain.restrace" \
    | grep -q "REPRODUCED" || { echo "trace did not reproduce"; exit 1; }
echo "    verify FAILs on the repaired program with a divergence report"
cp "$trace_dir/program.fixed.json" "$trace_dir/program.json"
if out="$(cargo run --release -q --bin res-cli -- verify "$trace_dir" "$trace_dir/plain.restrace")"; then
    echo "trace verified PASS against the repaired program"; exit 1
fi
echo "$out" | grep -q "FAIL: first divergence at event" \
    || { echo "FAIL report carries no divergence point"; exit 1; }

echo "==> foreign-dump gate (a dump naming code the program lacks)"
# A dump whose frame names a function the program lacks must be a typed
# error (exit 1), not a panic (exit 101) in the engine.
foreign_dir="$scratch_dir/foreign"
cargo run --release -q --bin res-cli -- crash div-by-zero "$foreign_dir" > /dev/null
sed -i '0,/"func": [0-9]*/s//"func": 99/' "$foreign_dir/dump.json"
set +e
cargo run --release -q --bin res-cli -- synthesize "$foreign_dir" > /dev/null 2>&1
foreign_status=$?
set -e
test "$foreign_status" -eq 1 \
    || { echo "a foreign dump exited $foreign_status, not 1"; exit 1; }

echo "==> corpus-scale smoke gate (seeded generator, E5c/E6c/E7c)"
# The buggy-program generator + parallel corpus harness: a small
# generated population (RES_GEN_SMOKE programs per experiment) must hold
# the same shapes as the full sweep, at a fixed small thread count so CI
# machines of any width exercise the multi-threaded path identically. The full
# >=200-program sweep stays out of the hot path — run it explicitly with
#   cargo run --release -p res-bench --bin harness -- e5c e6c e7c
RES_GEN_SMOKE=8 RES_HARNESS_THREADS=2 \
    cargo run --release -q -p res-bench --bin harness -- e5c e6c e7c \
    | tail -n 1

echo "==> hermetic dependency check"
"$repo_root/scripts/check_hermetic.sh"

echo "ci OK"
