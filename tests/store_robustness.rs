//! Robustness of the persistent cross-run store (`res-store`).
//!
//! The store's contract is that *nothing* that happens to the file can
//! change a synthesis result or crash the engine: every kind of damage
//! degrades to a cold start (possibly keeping the undamaged prefix),
//! and a fingerprint mismatch additionally refuses to write. Each test
//! here damages a real store a different way, reruns the engine over
//! it, and asserts the suffixes are byte-identical to a store-less run.
//!
//! The byte-level golden fixture (`tests/fixtures/store_v1.resstore`)
//! pins the version-1 file format: the store a run writes today must
//! match the committed bytes exactly, so accidental format drift —
//! which would silently cold-start every existing store in the field —
//! fails loudly. Regenerate after an *intentional* format change with
//! `RES_REGEN_FIXTURES=1 cargo test --test store_robustness`.

use std::path::PathBuf;

use res_debugger::prelude::*;
use res_debugger::store::{LoadOutcome, SolverStore};
use res_debugger::workloads::run_to_failure;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("res-store-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The deterministic crash scenario shared with the suffix golden test.
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

fn render(program: &Program, dump: &Coredump, cache_path: Option<&std::path::Path>) -> String {
    let mut builder = ResConfig::builder();
    if let Some(p) = cache_path {
        builder = builder.cache_path(p);
    }
    let engine = ResEngine::new(program, builder.build());
    let result = engine.synthesize(dump);
    format!("{:?} {:?}", result.verdict, result.suffixes)
}

/// Store report for a run over `path`, plus its rendered result.
fn run_with_store(
    program: &Program,
    dump: &Coredump,
    path: &std::path::Path,
) -> (String, res_debugger::res::StoreReport) {
    let engine = ResEngine::new(program, ResConfig::builder().cache_path(path).build());
    let result = engine.synthesize(dump);
    let report = result.store.expect("store configured");
    (
        format!("{:?} {:?}", result.verdict, result.suffixes),
        report,
    )
}

/// Writes a populated store for the crash scenario and returns
/// (golden store-less rendering, store file path, temp dir).
fn populated_store(tag: &str) -> (Program, Coredump, String, PathBuf, PathBuf) {
    let (program, dump) = crash();
    let golden = render(&program, &dump, None);
    let dir = temp_dir(tag);
    let path = dir.join("store.resstore");
    let (cold, report) = run_with_store(&program, &dump, &path);
    assert_eq!(cold, golden, "a cold store must not change the synthesis");
    assert!(report.appended_entries > 0, "the cold run must populate");
    assert!(report.committed);
    (program, dump, golden, path, dir)
}

#[test]
fn truncated_store_degrades_to_partial_or_cold_start() {
    let (program, dump, golden, path, dir) = populated_store("trunc");
    let raw = std::fs::read(&path).unwrap();
    // Tear at several depths, including mid-header and mid-magic.
    for keep in [raw.len() - 7, raw.len() / 2, 40, 5, 1] {
        std::fs::write(&path, &raw[..keep]).unwrap();
        let (warm, report) = run_with_store(&program, &dump, &path);
        assert_eq!(warm, golden, "truncation at {keep} changed the synthesis");
        assert!(
            report.committed,
            "a truncated own-program store must be rewritten, not refused"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_checksum_drops_the_damaged_tail() {
    let (program, dump, golden, path, dir) = populated_store("crc");
    let text = std::fs::read_to_string(&path).unwrap();
    // Flip one payload byte in the middle of the entry records.
    let lines: Vec<&str> = text.lines().collect();
    let victim = lines.len() / 2;
    let mut tampered: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    tampered[victim] = tampered[victim].replace(':', ";");
    std::fs::write(&path, tampered.join("\n") + "\n").unwrap();

    let (warm, report) = run_with_store(&program, &dump, &path);
    assert_eq!(warm, golden, "a corrupted record changed the synthesis");
    assert_eq!(report.outcome, LoadOutcome::Loaded);
    assert!(report.committed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_format_version_is_a_cold_start() {
    let (program, dump, golden, path, dir) = populated_store("ver");
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen("RES-STORE 1", "RES-STORE 99", 1);
    std::fs::write(&path, bumped).unwrap();

    let (warm, report) = run_with_store(&program, &dump, &path);
    assert_eq!(warm, golden, "a version mismatch changed the synthesis");
    assert_eq!(report.outcome, LoadOutcome::VersionMismatch);
    assert_eq!(report.loaded_entries, 0);
    assert_eq!(report.store_hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_program_fingerprint_is_cold_and_leaves_the_file_untouched() {
    let (_, _, _, path, dir) = populated_store("fp");
    let original = std::fs::read(&path).unwrap();

    // A *different* program pointed at the same store file.
    let other = build_workload(
        BugKind::UseAfterFree,
        WorkloadParams {
            prefix_iters: 2,
            hash_rounds: 1,
        },
    );
    let machine = (0..500)
        .find_map(|s| run_to_failure(&other, s))
        .expect("UseAfterFree workload must fault");
    let other_dump = Coredump::capture(&machine);
    let golden = render(&other, &other_dump, None);

    let (warm, report) = run_with_store(&other, &other_dump, &path);
    assert_eq!(warm, golden, "a foreign store changed the synthesis");
    assert_eq!(report.outcome, LoadOutcome::FingerprintMismatch);
    assert_eq!(report.loaded_entries, 0, "no cross-program entry may leak");
    assert_eq!(report.store_hits, 0);
    assert!(!report.committed, "a foreign store must never be written");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        original,
        "the other program's store was clobbered"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stores written by older builds carry `V` records (subtree-verdict
/// certificates, since removed). This build reads `V` as an unknown tag:
/// the store must still open with every solver entry, serve a warm run
/// byte-identical suffixes, and shed the `V` lines on compaction.
#[test]
fn legacy_verdict_records_are_skipped_and_compacted_away() {
    use res_debugger::store::{encode_record, program_fingerprint, Tag};

    let (program, dump, golden, path, dir) = populated_store("legacyv");
    let text = std::fs::read_to_string(&path).unwrap();
    let entries = text.lines().filter(|l| l.starts_with("E ")).count();
    assert!(entries > 0, "the populating run must persist entries");
    // Old commits wrote their `V` records after the `E` records and
    // before the `S` stats block.
    let stats_at = text
        .find("\nS ")
        .expect("populated store has a stats record")
        + 1;
    let mut legacy = text.as_bytes()[..stats_at].to_vec();
    for enum_path in ["[]", "[0]", "[0,1]"] {
        let payload = format!(
            r#"{{"scope":7,"worker":4294967295,"path":{enum_path},"kind":"Exhausted","stats":{{"nodes":3}}}}"#
        );
        encode_record(Tag::Unknown(b'V'), &payload, &mut legacy);
    }
    legacy.extend_from_slice(&text.as_bytes()[stats_at..]);
    std::fs::write(&path, &legacy).unwrap();

    let fp = program_fingerprint(&program);
    let opened = SolverStore::open(&path, fp);
    let report = *opened.load_report();
    assert_eq!(report.outcome, LoadOutcome::Loaded);
    assert_eq!(report.entries_loaded, entries, "every E entry must load");
    assert_eq!(report.records_skipped, 0, "V records are not damage");
    drop(opened);

    let (warm, report) = run_with_store(&program, &dump, &path);
    assert_eq!(warm, golden, "legacy V records changed the synthesis");
    assert_eq!(report.outcome, LoadOutcome::Loaded);
    assert!(report.store_hits > 0, "the legacy store must serve hits");

    let has_v = |text: &str| text.lines().any(|l| l.starts_with("V "));
    assert!(
        has_v(&std::fs::read_to_string(&path).unwrap()),
        "an append-only commit keeps the records it cannot read"
    );
    let mut store = SolverStore::open(&path, fp);
    store.compact().expect("compact legacy store");
    assert!(
        !has_v(&std::fs::read_to_string(&path).unwrap()),
        "compaction must drop legacy V records"
    );
    let reopened = SolverStore::open(&path, fp);
    assert_eq!(reopened.load_report().outcome, LoadOutcome::Loaded);
    assert_eq!(reopened.len(), store.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm run that learns nothing new must cost only its read: two
/// warm `cache_path` runs serve hits from the store, append nothing and
/// leave the file byte-identical to what the cold run wrote.
#[test]
fn warm_runs_that_learn_nothing_leave_the_store_byte_identical() {
    let (program, dump, golden, path, dir) = populated_store("warmread");
    let cold_bytes = std::fs::read(&path).unwrap();
    for pass in 1..=2 {
        let (warm, report) = run_with_store(&program, &dump, &path);
        assert_eq!(warm, golden, "warm pass {pass} changed the synthesis");
        assert!(report.store_hits > 0, "warm pass {pass} served no hits");
        assert_eq!(report.appended_entries, 0, "warm pass {pass} learned");
        assert!(report.committed, "nothing new is trivially committed");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            cold_bytes,
            "warm pass {pass} rewrote the store"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_store_file_is_a_cold_start() {
    let (program, dump) = crash();
    let golden = render(&program, &dump, None);
    let dir = temp_dir("empty");
    let path = dir.join("store.resstore");
    std::fs::write(&path, "").unwrap();

    let (run, report) = run_with_store(&program, &dump, &path);
    assert_eq!(run, golden, "an empty store changed the synthesis");
    assert_eq!(report.outcome, LoadOutcome::Empty);
    assert!(report.committed, "the empty file must be adopted");

    // And the now-populated file serves the next run.
    let (warm, report) = run_with_store(&program, &dump, &path);
    assert_eq!(warm, golden);
    assert_eq!(report.outcome, LoadOutcome::Loaded);
    assert!(report.store_hits > 0, "the rewritten store must serve hits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-level golden fixture for format version 1: a store built from
/// fixed inputs must match the committed fixture exactly, and reading
/// the fixture back must reproduce the same entries. The store header
/// deliberately carries no timestamps, which is what makes this
/// possible.
#[test]
fn store_v1_golden_fixture_round_trips() {
    use res_debugger::symbolic::{CanonFp, PortableCache, PortableResult, PortableVerdict};

    let dir = temp_dir("golden");
    let path = dir.join("golden.resstore");
    const PROGRAM_FP: u64 = 0x1dea_c0de_5eed_f00d;
    let entries = vec![
        (
            CanonFp(1),
            PortableResult {
                verdict: PortableVerdict::Sat(vec![(0, 7), (1, 9)]),
                assignments: 3,
            },
        ),
        (
            CanonFp(0x1_0000_0000_0000_0000),
            PortableResult {
                verdict: PortableVerdict::Unsat,
                assignments: 12,
            },
        ),
    ];
    let mut store = SolverStore::open(&path, PROGRAM_FP);
    store.merge(&PortableCache {
        entries: entries.clone(),
    });
    store.note_hits(4);
    store.commit().expect("commit golden store");
    let written = std::fs::read(&path).unwrap();

    let fixture = fixture_path("store_v1.resstore");
    if std::env::var_os("RES_REGEN_FIXTURES").is_some() {
        std::fs::write(&fixture, &written).expect("write fixture");
    } else {
        let golden = std::fs::read(&fixture).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); regenerate with RES_REGEN_FIXTURES=1",
                fixture.display()
            )
        });
        assert_eq!(
            String::from_utf8_lossy(&written),
            String::from_utf8_lossy(&golden),
            "store format drifted from the committed version-1 fixture; \
             bump FORMAT_VERSION for an intentional change"
        );
    }

    // Reading the *committed* fixture must reproduce the entries.
    let back = SolverStore::open(&fixture, PROGRAM_FP);
    assert_eq!(back.load_report().outcome, LoadOutcome::Loaded);
    assert_eq!(back.to_portable().entries, entries);
    assert_eq!(back.stats().absorbed_hits, 4);
    let _ = std::fs::remove_dir_all(&dir);
}
