//! Golden-fixture regression for searches at depth.
//!
//! `tests/fixtures/deep_identity.txt` holds one line per dump of a
//! seeded generated population, synthesized at `max_depth(48)`: the
//! verdict, each suffix as a digest of its canonical bytes with its
//! step and instruction counts, and the search's store-invariant
//! [`KernelStats`] (nodes, hypotheses, rejections by reason, solver
//! queries, verdict tallies and enumeration assignments). Cache and
//! store hit counts are left out: a warm store moves queries from the
//! solver to the store, but never changes an answer or a count above.
//!
//! The default depth (`tests/triage_golden.rs`) stops most searches
//! after a dozen steps; this population makes every node's global
//! check carry dozens of steps of constraints, which is where a
//! solver change that is not exact would show first.
//!
//! To regenerate after an *intentional* change to deep searches:
//!
//! ```text
//! RES_REGEN_FIXTURES=1 cargo test --test deep_golden
//! ```

use std::path::{Path, PathBuf};

use res_debugger::coredump::HwFlavor;
use res_debugger::prelude::*;
use res_debugger::res::kernel::KernelStats;
use res_debugger::store::fnv64;
use res_debugger::triage::store_path_for;
use res_debugger::workloads::gen::{
    collect_failures, corpus_specs, generate, hardware_variant, GenClass,
};

/// Master seed of the population.
const SEED: u64 = 23;
/// Programs per class.
const PER_CLASS: usize = 2;
/// Genuine dumps per program.
const GENUINE: usize = 2;
/// The depth horizon under test.
const DEPTH: usize = 48;

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

/// `(label, program, dump)` for the genuine dumps of every program,
/// then one `BitFlip` and one `RegCorrupt` variant, each of the first
/// program whose dump takes that flavor's injection.
fn population() -> Vec<(String, Program, Coredump)> {
    let mut out = Vec::new();
    let mut corrupted: Vec<(String, Program, Coredump)> = Vec::new();
    let specs = corpus_specs(&GenClass::ALL, PER_CLASS * GenClass::ALL.len(), SEED, 1);
    for (n, spec) in specs.into_iter().enumerate() {
        let gp = generate(spec);
        let class = spec.class.name();
        let failures = collect_failures(&gp, GENUINE);
        for flavor in [HwFlavor::BitFlip, HwFlavor::RegCorrupt] {
            let label = format!("{class}#{n} {}", flavor.name());
            if corrupted.iter().any(|(l, ..)| l.ends_with(flavor.name())) {
                continue;
            }
            if let (dump, Some(_)) = hardware_variant(&gp, &failures[0], flavor) {
                corrupted.push((label, gp.program.clone(), dump));
            }
        }
        for (k, f) in failures.into_iter().enumerate() {
            out.push((format!("{class}#{n}.{k}"), gp.program.clone(), f.dump));
        }
    }
    assert_eq!(corrupted.len(), 2, "a flavor found no injectable dump");
    out.extend(corrupted);
    out
}

/// The counts a store cannot move: everything but cache and store hits.
fn counts(s: &KernelStats) -> String {
    let q = &s.solver;
    format!(
        "nodes={} hyps={} acc={} rej=s{}/e{}/v{}/l{}/g{}/b{} unk={} fin={} \
         queries={} sat={} unsat={} unknown={}/{} assignments={}",
        s.nodes_expanded,
        s.hypotheses,
        s.accepted,
        s.rejected_structural,
        s.rejected_exec,
        s.rejected_solver,
        s.rejected_lbr,
        s.rejected_log,
        s.rejected_budget,
        s.unknown_accepted,
        s.finalize_failed,
        q.queries,
        q.sat,
        q.unsat,
        q.unknown_budget,
        q.unknown_incomplete,
        q.assignments,
    )
}

/// One line per dump: its label, verdict, suffixes and counts. With a
/// store directory each program's searches go through its own store
/// file there; with a trace each search is journaled to it.
fn render(store_dir: Option<&Path>, trace: Option<&Path>) -> String {
    let mut out = String::new();
    for (label, program, dump) in population() {
        let mut builder = ResConfig::builder().max_depth(DEPTH);
        if let Some(dir) = store_dir {
            std::fs::create_dir_all(dir).expect("create the store directory");
            builder = builder.cache_path(store_path_for(dir, &program));
        }
        if let Some(p) = trace {
            builder = builder.trace(p);
        }
        let result = ResEngine::new(&program, builder.build()).synthesize(&dump);
        let suffixes: Vec<String> = result
            .suffixes
            .iter()
            .map(|s| {
                format!(
                    "fnv64:{:016x}/{}/{}",
                    fnv64(s.identity_bytes().as_bytes()),
                    s.len(),
                    s.total_steps()
                )
            })
            .collect();
        out.push_str(&format!(
            "{label} {:?}|[{}]|{}\n",
            result.verdict,
            suffixes.join(", "),
            counts(&result.stats)
        ));
    }
    out.trim_end().to_string()
}

/// Every dump of the population must synthesize its pinned suffixes
/// with its pinned counts at depth 48.
///
/// As in `tests/triage_golden.rs`, `RES_CACHE_PATH=<dir>` routes every
/// search through a persistent store (one file per program in that
/// directory), and `RES_TRACE=<file>` journals every search. Neither
/// may change a byte: the CI determinism loops run this test plain,
/// cold then warm against one store directory, and traced.
#[test]
fn deep_searches_match_the_identity_fixture() {
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
    let deepest = rendered
        .lines()
        .flat_map(|l| l.split("fnv64:").skip(1))
        .filter_map(|s| s.split('/').nth(1)?.parse::<usize>().ok())
        .max();
    assert!(
        deepest.is_some_and(|d| d > 12),
        "no suffix goes past the default depth: {deepest:?}"
    );
    check_golden("deep_identity.txt", &rendered);
}
