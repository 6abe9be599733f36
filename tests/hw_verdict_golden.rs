//! Golden-fixture regression for §3.2 hardware verdicts.
//!
//! `tests/fixtures/hw_verdict_identity.txt` holds one line per dump: its
//! label, the JSON of [`hardware_verdict`] and the JSON of
//! [`hardware_verdict_in_store`], the latter over one store per program
//! that stays open across that program's dumps. The population is a
//! small seeded E7c one (the generator classes whose genuine dumps the
//! engine fully explains): each program's genuine dumps, then one
//! `BitFlip` and one `RegCorrupt` `hardware_variant` of its first dump.
//! A corrupted dump runs the localization sweep (a base search, then one
//! relaxed search per register and candidate memory word until one
//! reaches the depth horizon), so its line pins where the sweep
//! localized the fault.
//!
//! To regenerate after an *intentional* change to hardware verdicts:
//!
//! ```text
//! RES_REGEN_FIXTURES=1 cargo test --test hw_verdict_golden
//! ```

use std::path::{Path, PathBuf};

use res_debugger::coredump::HwFlavor;
use res_debugger::prelude::*;
use res_debugger::res::hardware_verdict_in_store;
use res_debugger::store::program_fingerprint;
use res_debugger::triage::{store_path_for, with_shared_store};
use res_debugger::workloads::gen::{
    collect_failures, corpus_specs, generate, hardware_variant, GenClass,
};

/// Master seed of the population.
const SEED: u64 = 19;
/// The E7c classes.
const CLASSES: [GenClass; 4] = [
    GenClass::DataRace,
    GenClass::DivByZero,
    GenClass::LocalOverflow,
    GenClass::UseAfterFree,
];
/// Programs: three per class.
const PROGRAMS: usize = 3 * CLASSES.len();
/// Genuine dumps per program.
const GENUINE: usize = 2;

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

/// One program with its `(label, dump)` list: the genuine dumps, then
/// the two corrupted variants of the first.
fn population() -> Vec<(Program, Vec<(String, Coredump)>)> {
    corpus_specs(&CLASSES, PROGRAMS, SEED, 1)
        .into_iter()
        .enumerate()
        .map(|(n, spec)| {
            let gp = generate(spec);
            let class = spec.class.name();
            let failures = collect_failures(&gp, GENUINE);
            let mut dumps: Vec<(String, Coredump)> = failures
                .iter()
                .enumerate()
                .map(|(k, f)| (format!("{class}#{n}.{k}"), f.dump.clone()))
                .collect();
            for flavor in [HwFlavor::BitFlip, HwFlavor::RegCorrupt] {
                let (dump, injected) = hardware_variant(&gp, &failures[0], flavor);
                let injected = if injected.is_some() { "" } else { " (none)" };
                dumps.push((format!("{class}#{n} {}{injected}", flavor.name()), dump));
            }
            (gp.program, dumps)
        })
        .collect()
}

/// One line per dump: its label, then both verdicts' JSON. With a
/// store directory, `hardware_verdict` uses the program's file in it
/// and the caller-owned store is the program's file in its `in-store`
/// subdirectory, committed after the program's last dump; without one,
/// the caller-owned store is never committed and lives in memory only.
/// With a journal directory, each verdict's sweep journals through its
/// one engine to the line's file there, the caller-owned store's under
/// `in-store` as well.
fn render(store_dir: Option<&Path>, trace: Option<&Path>) -> String {
    let temp = std::env::temp_dir().join(format!("res-hw-golden-{}", std::process::id()));
    let mut out = String::new();
    for (program, dumps) in population() {
        let plain = match store_dir {
            Some(dir) => with_shared_store(&ResConfig::default(), dir, &program),
            None => ResConfig::default(),
        };
        let in_store_path = match store_dir {
            Some(dir) => store_path_for(&dir.join("in-store"), &program),
            None => store_path_for(&temp, &program),
        };
        let mut store = SolverStore::open(&in_store_path, program_fingerprint(&program));
        for (label, dump) in &dumps {
            let plain_config = ResConfig {
                trace: trace.map(|dir| dir.join(format!("{label}.jsonl"))),
                ..plain.clone()
            };
            let in_store_config = ResConfig {
                trace: trace.map(|dir| dir.join(format!("in-store/{label}.jsonl"))),
                ..ResConfig::default()
            };
            let v = hardware_verdict(&program, dump, &plain_config);
            let w = hardware_verdict_in_store(&program, dump, &in_store_config, &mut store);
            out.push_str(&format!(
                "{label} {} {}\n",
                mvm_json::to_string(&v),
                mvm_json::to_string(&w)
            ));
        }
        if store_dir.is_some() {
            store.commit().expect("commit the caller-owned store");
        }
    }
    out.trim_end().to_string()
}

/// Every dump of the population must get its pinned verdicts.
///
/// As in `tests/triage_golden.rs`, `RES_CACHE_PATH=<dir>` routes every
/// verdict through persistent stores (one file per program in that
/// directory, and one per program under `<dir>/in-store` for the
/// caller-owned store), and `RES_TRACE=<dir>` journals each verdict's
/// searches to a file of its own in that directory (the caller-owned
/// store's under `<dir>/in-store`). Neither may change a byte: the CI
/// determinism loops run this test plain, cold then warm against one
/// store directory, and traced.
#[test]
fn hardware_verdicts_match_the_identity_fixture() {
    let store_dir = std::env::var_os("RES_CACHE_PATH").map(PathBuf::from);
    let trace = std::env::var_os("RES_TRACE").map(PathBuf::from);
    let rendered = render(store_dir.as_deref(), trace.as_deref());
    for line in rendered.lines() {
        let json: Vec<&str> = line.rsplitn(3, ' ').collect();
        assert_eq!(json[0], json[1], "the store changed a verdict: {line}");
    }
    for needle in ["\"SoftwareBug\"", "\"CpuError\"", "\"MemoryError\""] {
        assert!(rendered.contains(needle), "no verdict reads {needle}");
    }
    check_golden("hw_verdict_identity.txt", &rendered);
}
