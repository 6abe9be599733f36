//! Golden-fixture regression for triage answers.
//!
//! `tests/fixtures/triage_identity.txt` holds one
//! `verdict|deadlock|bucket_key|suffixes` line per dump: the byte
//! identity of a [`TriageResponse`] that every triage gate compares,
//! with each suffix written as a digest of its canonical bytes, its
//! size and its `replayed` flag (`tests/suffix_golden.rs` pins whole
//! suffixes).
//!
//! The dumps are a small seeded generated population covering every
//! bug class, plus a few dumps corrupted by `hardware_variant`. Most
//! corrupted dumps get no suffix, so their lines pin the
//! `unexplained:` stack-signature fallback, which the generated
//! population alone never reaches. Bucket keys and each suffix's
//! `replayed` flag are part of the contract, so however triage replays
//! and diagnoses a suffix, it must reproduce this file byte for byte.
//!
//! To regenerate after an *intentional* change to triage answers:
//!
//! ```text
//! RES_REGEN_FIXTURES=1 cargo test --test triage_golden
//! ```

use std::path::{Path, PathBuf};

use res_debugger::coredump::HwFlavor;
use res_debugger::prelude::*;
use res_debugger::store::fnv64;
use res_debugger::triage::{store_path_for, triage, TriageRequest, TriageResponse};
use res_debugger::workloads::gen::{
    collect_failures, corpus_specs, generate, hardware_variant, GenClass,
};

/// Master seed of the population.
const SEED: u64 = 15;
/// Programs per class.
const PER_CLASS: usize = 3;
/// Corrupted dumps, one each from the first non-hang programs.
const CORRUPTED: usize = 6;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
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
    for (i, (want, got)) in golden.trim_end().lines().zip(rendered.lines()).enumerate() {
        assert_eq!(want, got, "fixture {name} drifted at dump {i}");
    }
    assert_eq!(
        golden.trim_end().lines().count(),
        rendered.lines().count(),
        "fixture {name} has a different number of dumps"
    );
}

/// Hangs get one dump (triage answers them without a search), every
/// other class two.
fn is_hang(class: GenClass) -> bool {
    matches!(class, GenClass::Deadlock | GenClass::LockInversion)
}

/// `(label, program, dump)` for the population, then the corrupted
/// dumps.
fn population() -> Vec<(String, Program, Coredump)> {
    let mut out = Vec::new();
    let mut corrupted = Vec::new();
    let specs = corpus_specs(&GenClass::ALL, PER_CLASS * GenClass::ALL.len(), SEED, 1);
    for (n, spec) in specs.into_iter().enumerate() {
        let gp = generate(spec);
        let class = spec.class.name();
        let failures = collect_failures(&gp, if is_hang(spec.class) { 1 } else { 2 });
        if !is_hang(spec.class) && corrupted.len() < CORRUPTED {
            let flavor = [HwFlavor::BitFlip, HwFlavor::RegCorrupt][n % 2];
            if let (dump, Some(_)) = hardware_variant(&gp, &failures[0], flavor) {
                let label = format!("{class}#{n} {}", flavor.name());
                corrupted.push((label, gp.program.clone(), dump));
            }
        }
        for (k, f) in failures.into_iter().enumerate() {
            out.push((format!("{class}#{n}.{k}"), gp.program.clone(), f.dump));
        }
    }
    assert_eq!(corrupted.len(), CORRUPTED, "too few injectable dumps");
    out.extend(corrupted);
    out
}

/// The byte identity of a triage answer (the gate currency; kernel and
/// store statistics are left out), each suffix digested.
fn identity(r: &TriageResponse) -> String {
    let suffixes: Vec<String> = r
        .suffixes
        .iter()
        .map(|s| {
            format!(
                "fnv64:{:016x}/{}/{}/{}",
                fnv64(s.bytes.as_bytes()),
                s.steps,
                s.instructions,
                s.replayed
            )
        })
        .collect();
    format!(
        "{:?}|{}|{}|[{}]",
        r.verdict,
        r.deadlock,
        r.bucket_key,
        suffixes.join(", ")
    )
}

/// One line per dump: its label, then its identity. With a journal
/// directory each request's search journals to its line's file there
/// (a hang is answered without a search, and journals nothing).
fn render(store_dir: Option<&Path>, trace: Option<&Path>) -> String {
    let mut out = String::new();
    for (label, program, dump) in population() {
        let mut req = TriageRequest::new(program, dump);
        req.store = store_dir.map(|d| store_path_for(d, &req.program).display().to_string());
        req.trace = trace.map(|dir| dir.join(format!("{label}.jsonl")).display().to_string());
        let resp = triage(&req, &ResConfig::default());
        out.push_str(&format!("{label} {}\n", identity(&resp)));
    }
    out.trim_end().to_string()
}

/// Every dump of the population must triage to its pinned answer.
///
/// As in `tests/suffix_golden.rs`, `RES_CACHE_PATH=<dir>` routes every
/// request through a persistent store (one file per program in that
/// directory, the corpus layout of `res_triage::store_path_for`), and
/// `RES_TRACE=<dir>` journals each request to its own file in that
/// directory. Neither may change a byte: the CI determinism loops run
/// this test plain, cold then warm against one store directory, and
/// traced.
#[test]
fn triage_answers_match_the_identity_fixture() {
    let store_dir = std::env::var_os("RES_CACHE_PATH").map(PathBuf::from);
    let trace = std::env::var_os("RES_TRACE").map(PathBuf::from);
    let rendered = render(store_dir.as_deref(), trace.as_deref());
    for class in GenClass::ALL {
        assert!(
            rendered.contains(&format!("{}#", class.name())),
            "population misses {}",
            class.name()
        );
    }
    assert!(
        rendered.contains("|unexplained:"),
        "no dump exercises the unexplained fallback"
    );
    assert!(rendered.contains("|true|deadlock:"), "no hang dump");
    check_golden("triage_identity.txt", &rendered);
}
