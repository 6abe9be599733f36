//! Golden-fixture regression for the search order.
//!
//! The kernel's depth-first stack must reproduce the engine's
//! historical worklist order exactly: the fixture under
//! `tests/fixtures/` was generated *before* the kernel refactor, so a
//! byte-identical match proves the kernel did not perturb which
//! suffixes are found, in what order, or what they contain.
//!
//! To regenerate after an *intentional* search-order change:
//!
//! ```text
//! RES_REGEN_FIXTURES=1 cargo test --test suffix_golden
//! ```

use std::path::PathBuf;

use res_debugger::prelude::*;
use res_debugger::workloads::run_to_failure;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Deterministic crash scenario (same as the JSON golden tests): a
/// short single-threaded DivByZero workload, input-free up to the
/// faulting divide.
fn crash() -> (Program, Coredump) {
    let program = build_workload(
        BugKind::DivByZero,
        WorkloadParams {
            prefix_iters: 2,
            hash_rounds: 1,
        },
    );
    let machine = (0..500)
        .find_map(|s| run_to_failure(&program, s))
        .expect("DivByZero workload must fault");
    let dump = Coredump::capture(&machine);
    (program, dump)
}

fn check_golden(name: &str, rendered: &str) {
    let path = fixture_path(name);
    if std::env::var_os("RES_REGEN_FIXTURES").is_some() {
        std::fs::write(&path, format!("{rendered}\n")).expect("write fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with RES_REGEN_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        golden.trim_end(),
        rendered,
        "fixture {name} drifted: the depth-first search order no \
         longer matches the pre-refactor engine; if the change is \
         intentional, regenerate with RES_REGEN_FIXTURES=1"
    );
}

fn render(cache_path: Option<&std::path::Path>) -> String {
    let (program, dump) = crash();
    let mut builder = ResConfig::builder();
    if let Some(p) = cache_path {
        builder = builder.cache_path(p);
    }
    if let Some(p) = std::env::var_os("RES_TRACE") {
        builder = builder.trace(p);
    }
    let engine = ResEngine::new(&program, builder.build());
    let result = engine.synthesize(&dump);
    let mut rendered = String::new();
    rendered.push_str(&format!("verdict: {:?}\n", result.verdict));
    rendered.push_str(&format!("suffixes: {}\n", result.suffixes.len()));
    for (i, s) in result.suffixes.iter().enumerate() {
        rendered.push_str(&format!("--- suffix {i} ---\n{s:?}\n"));
        let replay = replay_suffix(&program, &dump, s);
        rendered.push_str(&format!("replayed: {}\n", replay.reproduced));
    }
    rendered.trim_end().to_string()
}

/// The default config must synthesize byte-identical suffixes, in the
/// same order, as the pre-refactor engine did.
///
/// `RES_CACHE_PATH=<file>` additionally routes the run through a
/// persistent cross-run store at that path — the CI cross-run gate runs
/// this test twice against one store file (cold, then warm) and both
/// must match the very same fixture, proving that absorbing a populated
/// store changes no synthesized byte.
///
/// `RES_TRACE=<file>` additionally journals the run to a `res-obs`
/// trace at that path — the CI traced gate runs this test with tracing
/// on against the *same* fixture, proving the recorder is passive
/// (enabling it changes no synthesized byte) and leaving a journal the
/// gate parses and sanity-checks.
#[test]
fn default_dfs_suffixes_match_pre_refactor_fixture() {
    let cache_path = std::env::var_os("RES_CACHE_PATH").map(std::path::PathBuf::from);
    check_golden("suffix_dfs.txt", &render(cache_path.as_deref()));
}

/// A warm store must not perturb the result: cold run, warm run, and
/// store-less run synthesize byte-identical suffixes (absorbed entries
/// replay their original solver cost, so budget cuts fire identically).
#[test]
fn warm_store_matches_cold_suffixes() {
    let dir = std::env::temp_dir().join(format!("res-golden-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create store dir");
    let path = dir.join("suffix_golden.resstore");
    let golden = render(None);
    let cold = render(Some(&path));
    let warm = render(Some(&path));
    assert_eq!(cold, golden, "a cold store changed the synthesis");
    assert_eq!(warm, golden, "a warm store changed the synthesis");
    let _ = std::fs::remove_dir_all(&dir);
}
