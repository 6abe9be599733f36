//! Robustness of the persistent cross-run store (`res-store`).
//!
//! The store's contract is that *nothing* that happens to the file can
//! change a synthesis result or crash the engine: every kind of damage
//! degrades to a cold start (possibly keeping the undamaged prefix),
//! and a fingerprint mismatch additionally refuses to write. Each test
//! here damages a real store a different way, reruns the engine over
//! it, and asserts the suffixes are byte-identical to a store-less run.
//!
//! The byte-level golden fixture (`tests/fixtures/store_v2.resstore`)
//! pins the version-2 file format: the store a run writes today must
//! match the committed bytes exactly, so accidental format drift —
//! which would silently cold-start every existing store in the field —
//! fails loudly. Regenerate after an *intentional* format change with
//! `RES_REGEN_FIXTURES=1 cargo test --test store_robustness`. The
//! version-1 fixture (`tests/fixtures/store_v1.resstore`) stays as an
//! input: this build must read it as a version mismatch, a cold start.

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

/// A store of another format version opens cold and the first commit
/// rewrites it in this build's format: a store of this build with its
/// magic line naming version 99, and the committed version-1 fixture,
/// whose keys this build would never hit.
#[test]
fn wrong_format_version_is_a_cold_start() {
    use res_debugger::store::program_fingerprint;

    let (program, dump, golden, path, dir) = populated_store("ver");
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen("RES-STORE 2", "RES-STORE 99", 1);
    assert_ne!(bumped, text, "the store names its version");
    let v1 = std::fs::read(fixture_path("store_v1.resstore")).unwrap();
    for (what, bytes) in [("version 99", bumped.into_bytes()), ("version 1", v1)] {
        std::fs::write(&path, bytes).unwrap();
        let (warm, report) = run_with_store(&program, &dump, &path);
        assert_eq!(warm, golden, "a {what} store changed the synthesis");
        assert_eq!(report.outcome, LoadOutcome::VersionMismatch, "{what}");
        assert_eq!(report.loaded_entries, 0, "{what}");
        assert_eq!(report.store_hits, 0, "{what}");
        assert!(report.committed, "a {what} store must be rewritten");
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert!(
            rewritten.starts_with("RES-STORE 2\n"),
            "{what}: {rewritten}"
        );
        let reopened = SolverStore::open(&path, program_fingerprint(&program));
        assert_eq!(
            reopened.load_report().outcome,
            LoadOutcome::Loaded,
            "{what}"
        );
        assert_eq!(reopened.len(), report.appended_entries, "{what}");
    }
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

/// Byte-level golden fixture for format version 2: a store built from
/// fixed inputs must match the committed fixture exactly, and reading
/// the fixture back must reproduce the same entries. The store header
/// deliberately carries no timestamps, which is what makes this
/// possible.
#[test]
fn store_v2_golden_fixture_round_trips() {
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

    let fixture = fixture_path("store_v2.resstore");
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
            "store format drifted from the committed version-2 fixture; \
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

/// `store-inspect` prints a header only when the store loaded. On a
/// store that did not, it prints the version its magic line declares
/// and says the header was not read, instead of this build's defaults.
#[test]
fn store_inspect_reports_what_a_store_that_does_not_load_declares() {
    let inspect = |path: &std::path::Path| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_store-inspect"))
            .arg(path)
            .output()
            .expect("run store-inspect");
        assert!(out.status.success(), "store-inspect failed on {path:?}");
        String::from_utf8(out.stdout).expect("UTF-8 output")
    };
    let dir = temp_dir("inspect");
    let v1 = std::fs::read(fixture_path("store_v1.resstore")).unwrap();
    let v7 = dir.join("v7.resstore");
    std::fs::write(
        &v7,
        String::from_utf8_lossy(&v1).replacen("RES-STORE 1", "RES-STORE 7", 1),
    )
    .unwrap();
    for (path, version) in [(fixture_path("store_v1.resstore"), 1), (v7, 7)] {
        let text = inspect(&path);
        assert!(text.contains("outcome:          VersionMismatch"), "{text}");
        let declared = format!("format version:   {version} (magic line; this build reads 2)");
        assert!(text.contains(&declared), "{text}");
        assert!(text.contains("header:           not read"), "{text}");
        assert!(!text.contains("writer:"), "{text}");
        assert!(text.contains("stats:            not read"), "{text}");
    }
    assert_eq!(
        std::fs::read(fixture_path("store_v1.resstore")).unwrap(),
        v1
    );
    let text = inspect(&fixture_path("store_v2.resstore"));
    for line in [
        "outcome:          Loaded",
        "format version:   2\n",
        "program fp:       0x1deac0de5eedf00d",
        "absorbed hits:  4",
    ] {
        assert!(text.contains(line), "{line:?} missing from {text}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- store open under mutation -----------------------------------------

mod open_reference {
    //! `SolverStore::open` as the tree path defines it: the same framing
    //! rules, with every payload decoded by `parse` + `from_json`.

    use std::collections::BTreeMap;

    use mvm_json::FromJson;
    use res_debugger::store::{decode_record, Header, LoadOutcome, LoadReport, StoreStats, Tag};
    use res_debugger::symbolic::{CanonFp, PortableResult};

    /// The shape of an `E` record payload.
    pub struct Entry {
        pub fp: CanonFp,
        pub result: PortableResult,
    }
    mvm_json::json_struct!(Entry { fp, result });

    /// Everything an open exposes.
    #[derive(Debug, PartialEq)]
    pub struct Opened {
        pub report: LoadReport,
        pub header: Header,
        pub entries: Vec<(CanonFp, PortableResult)>,
        pub stats: StoreStats,
        pub prefix: Vec<u8>,
        pub read_only: bool,
    }

    pub fn tree<T: FromJson>(payload: &str) -> Option<T> {
        T::from_json(&mvm_json::parse(payload).ok()?).ok()
    }

    /// The newline-terminated line at `off` and the offset past it.
    fn next_line(text: &str, off: usize) -> Option<(&str, usize)> {
        let nl = text.get(off..)?.find('\n')?;
        Some((&text[off..off + nl], off + nl + 1))
    }

    pub fn open(raw: &[u8], program_fp: u64) -> Opened {
        let cold = |outcome, bytes: u64, read_only| Opened {
            report: LoadReport {
                outcome,
                entries_loaded: 0,
                superseded: 0,
                records_skipped: 0,
                bytes,
            },
            header: Header::new(program_fp),
            entries: Vec::new(),
            stats: StoreStats::default(),
            prefix: Vec::new(),
            read_only,
        };
        let bytes = raw.len() as u64;
        if raw.is_empty() {
            return cold(LoadOutcome::Empty, 0, false);
        }
        let Ok(text) = std::str::from_utf8(raw) else {
            return cold(LoadOutcome::CorruptHeader, bytes, false);
        };
        let Some((magic, mut off)) = next_line(text, 0) else {
            return cold(LoadOutcome::CorruptHeader, bytes, false);
        };
        let version = magic
            .strip_prefix("RES-STORE ")
            .and_then(|v| v.parse::<u32>().ok());
        match version {
            Some(2) => {}
            Some(_) => return cold(LoadOutcome::VersionMismatch, bytes, false),
            None => return cold(LoadOutcome::CorruptHeader, bytes, false),
        }
        let header = next_line(text, off)
            .and_then(|(line, _)| decode_record(line))
            .filter(|(tag, _)| *tag == Tag::Header)
            .and_then(|(_, payload)| tree::<Header>(payload));
        let Some(header) = header else {
            return cold(LoadOutcome::CorruptHeader, bytes, false);
        };
        off = next_line(text, off).expect("the header line").1;
        if header.format_version != 2 {
            return cold(LoadOutcome::VersionMismatch, bytes, false);
        }
        if header.program_fp != program_fp {
            return cold(LoadOutcome::FingerprintMismatch, bytes, true);
        }
        let mut entries = BTreeMap::new();
        let mut stats = StoreStats::default();
        let mut superseded = 0;
        while let Some((line, end)) = next_line(text, off) {
            let Some((tag, payload)) = decode_record(line) else {
                break;
            };
            match tag {
                Tag::Entry => {
                    let Some(e) = tree::<Entry>(payload) else {
                        break;
                    };
                    if entries.insert(e.fp, e.result).is_some() {
                        superseded += 1;
                    }
                }
                Tag::Stats => {
                    let Some(s) = tree::<StoreStats>(payload) else {
                        break;
                    };
                    stats = s;
                }
                Tag::Header | Tag::Unknown(_) => {}
            }
            off = end;
        }
        Opened {
            report: LoadReport {
                outcome: LoadOutcome::Loaded,
                entries_loaded: entries.len(),
                superseded,
                records_skipped: text[off..].lines().count(),
                bytes,
            },
            header,
            entries: entries.into_iter().collect(),
            stats,
            prefix: raw[..off].to_vec(),
            read_only: false,
        }
    }
}

/// A store of several commits whose entries cover every verdict shape.
fn multi_entry_store(path: &std::path::Path, program_fp: u64) -> Vec<u8> {
    use res_debugger::symbolic::{
        CanonFp, PortableCache, PortableResult, PortableVerdict, UnknownReason,
    };
    let _ = std::fs::remove_file(path);
    let mut store = SolverStore::open(path, program_fp);
    for commit in 0..3u64 {
        let entries = (0..5u64)
            .map(|i| {
                let k = commit * 5 + i;
                let verdict = match k % 4 {
                    0 => PortableVerdict::Unsat,
                    1 => PortableVerdict::Unknown(UnknownReason::BudgetExhausted),
                    _ => PortableVerdict::Sat(
                        (0..k as u32)
                            .map(|r| (r, u64::MAX / (r as u64 + 1)))
                            .collect(),
                    ),
                };
                let fp =
                    CanonFp(u128::from(k).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835));
                (
                    fp,
                    PortableResult {
                        verdict,
                        assignments: k * 1000,
                    },
                )
            })
            .collect();
        store.merge(&PortableCache { entries });
        store.note_hits(commit);
        store.commit().expect("commit a populated store");
    }
    std::fs::read(path).expect("read the populated store")
}

/// Byte offsets at which a record starts (and the end of the file).
fn boundaries(raw: &[u8]) -> Vec<usize> {
    let mut out = vec![0];
    out.extend(
        raw.iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1),
    );
    out
}

/// The first top-level member of an object body (the text between
/// its braces) and the rest after its comma. Record payloads hold no
/// strings with brackets or commas, so nesting is all there is to skip.
fn split_first_member(body: &str) -> (&str, Option<&str>) {
    let mut depth = 0i32;
    for (i, c) in body.char_indices() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            ',' if depth == 0 => return (&body[..i], Some(&body[i + 1..])),
            _ => {}
        }
    }
    (body, None)
}

/// Rewrites the JSON of one record payload, keeping its meaning or not:
/// members reordered, padded with spaces, a repeated or unknown key
/// added, or the text made invalid.
fn edit_payload(payload: &str, rng: &mut mvm_prng::Xoshiro256StarStar) -> String {
    let body = &payload[1..payload.len() - 1];
    let (first, rest) = split_first_member(body);
    match rng.next_below(6) {
        // The first member moved last.
        0 => match rest {
            Some(rest) => format!("{{{rest},{first}}}"),
            None => payload.to_string(),
        },
        1 => payload
            .replace(',', " , ")
            .replace(':', " :\t")
            .replace('{', " { "),
        2 => {
            // The first member repeated, before or after the rest, with
            // a digit of its value changed: the tree path keeps the
            // first of two repeated keys.
            let changed: String = match first.rfind(|c: char| c.is_ascii_digit()) {
                Some(at) => {
                    let d = if &first[at..=at] == "7" { "3" } else { "7" };
                    format!("{}{d}{}", &first[..at], &first[at + 1..])
                }
                None => first.to_string(),
            };
            if rng.next_below(2) == 0 {
                format!("{{{changed},{body}}}")
            } else {
                format!("{{{body},{changed}}}")
            }
        }
        3 => format!("{{\"unknown\":[1,{{}}],{body}}}"),
        4 => {
            let at = 1 + rng.next_below(payload.len() as u64 - 1) as usize;
            payload[..at].to_string()
        }
        _ => {
            let bad = [
                "01",
                "-1",
                "1.0",
                "1e2",
                ",}",
                "\"x\"",
                "null",
                "18446744073709551616",
            ];
            let pick = bad[rng.next_below(bad.len() as u64) as usize];
            match payload.find(|c: char| c.is_ascii_digit()) {
                Some(at) => format!("{}{pick}{}", &payload[..at], &payload[at + 1..]),
                None => payload.to_string(),
            }
        }
    }
}

/// One mutation of a store file.
fn mutate(raw: &[u8], kind: usize, rng: &mut mvm_prng::Xoshiro256StarStar) -> Vec<u8> {
    use res_debugger::store::{decode_record, encode_record, Tag};
    let mut out = raw.to_vec();
    match kind {
        // A flipped bit anywhere.
        0 => {
            let at = rng.next_below(out.len() as u64) as usize;
            out[at] ^= 1 << rng.next_below(8);
        }
        // A cut at or near a record boundary.
        1 => {
            let cuts = boundaries(raw);
            let cut = cuts[rng.next_below(cuts.len() as u64) as usize] as i64
                + rng.next_below(7) as i64
                - 3;
            out.truncate(cut.clamp(0, raw.len() as i64) as usize);
        }
        // A record superseding an existing entry, appended at the end.
        2 => {
            let text = std::str::from_utf8(raw).expect("a UTF-8 store");
            let entries: Vec<&str> = text
                .lines()
                .filter_map(decode_record)
                .filter(|(tag, _)| *tag == Tag::Entry)
                .map(|(_, payload)| payload)
                .collect();
            let victim = entries[rng.next_below(entries.len() as u64) as usize];
            let e: open_reference::Entry = open_reference::tree(victim).expect("an entry");
            let superseding = format!(
                r#"{{"fp":{},"result":{{"verdict":"Unsat","assignments":{}}}}}"#,
                mvm_json::to_string(&e.fp),
                rng.next_below(1000)
            );
            encode_record(Tag::Entry, &superseding, &mut out);
        }
        // One entry or stats record with its JSON rewritten and its
        // framing (length and checksum) recomputed.
        _ => {
            let text = std::str::from_utf8(raw).expect("a UTF-8 store");
            let lines: Vec<&str> = text.lines().collect();
            let targets: Vec<usize> = (0..lines.len())
                .filter(|&i| matches!(decode_record(lines[i]), Some((Tag::Entry | Tag::Stats, _))))
                .collect();
            let victim = targets[rng.next_below(targets.len() as u64) as usize];
            out.clear();
            for (i, line) in lines.iter().enumerate() {
                match decode_record(line) {
                    Some((tag, payload)) if i == victim => {
                        encode_record(tag, &edit_payload(payload, rng), &mut out)
                    }
                    _ => {
                        out.extend_from_slice(line.as_bytes());
                        out.push(b'\n');
                    }
                }
            }
        }
    }
    out
}

/// `SolverStore::open` never panics on a mutated store, and what it
/// loads (report, header, entries, stats, validated prefix, read-only
/// flag) equals what the tree-path reference loads from the same bytes.
/// The inputs are the version-2 fixture and a freshly populated
/// multi-commit store. Then every entry record of both, edited once
/// away from the form its writer produces, must open the same way too.
/// Reproduce with `RES_PROP_SEED=<seed> cargo test --test
/// store_robustness`.
#[test]
fn store_open_matches_the_tree_reference_under_mutation() {
    use proptest_mini::{any_u64, check, prop_assert_eq, triple, usize_range, Config};
    use res_debugger::store::{decode_record, encode_record, Header, Tag};

    let dir = temp_dir("mutate");
    let fixture = std::fs::read(fixture_path("store_v2.resstore")).expect("read the fixture");
    let fixture_fp = open_reference::tree::<Header>(
        std::str::from_utf8(&fixture)
            .expect("a UTF-8 fixture")
            .lines()
            .nth(1)
            .and_then(|l| res_debugger::store::decode_record(l))
            .expect("a header record")
            .1,
    )
    .expect("a header")
    .program_fp;
    const POPULATED_FP: u64 = 0x5eed_0f57_0e0f_0001;
    let populated = multi_entry_store(&dir.join("populated.resstore"), POPULATED_FP);
    let inputs = [(fixture, fixture_fp), (populated, POPULATED_FP)];
    let path = dir.join("mutated.resstore");
    check(
        "store_open_matches_the_tree_reference_under_mutation",
        &Config::with_cases(256),
        &triple(usize_range(0, inputs.len()), usize_range(0, 5), any_u64()),
        |&(input, kind, seed)| {
            let (raw, fp) = &inputs[input];
            let mut rng = mvm_prng::Xoshiro256StarStar::new(seed);
            let mut bytes = mutate(raw, kind.min(3), &mut rng);
            if kind == 4 && !bytes.is_empty() {
                // A rewritten record, then a flip or a cut on top.
                bytes = mutate(&bytes, rng.next_below(2) as usize, &mut rng);
            }
            std::fs::write(&path, &bytes).expect("write the mutated store");
            let store = SolverStore::open(&path, *fp);
            let want = open_reference::open(&bytes, *fp);
            let got = open_reference::Opened {
                report: *store.load_report(),
                header: store.header().clone(),
                entries: store.to_portable().entries,
                stats: *store.stats(),
                prefix: store.validated_prefix().to_vec(),
                read_only: store.read_only(),
            };
            prop_assert_eq!(got, want);
            Ok(())
        },
    );
    // Every entry record, rewritten one edit away from the writer's
    // form and re-checksummed: the loader's direct scanner must refuse
    // each one and leave it to the general reader.
    for (raw, fp) in &inputs {
        let text = std::str::from_utf8(raw).expect("a UTF-8 store");
        let lines: Vec<&str> = text.lines().collect();
        for (victim, line) in lines.iter().enumerate() {
            let Some((Tag::Entry, payload)) = decode_record(line) else {
                continue;
            };
            for edited in one_edit_from_the_writer(payload) {
                let mut bytes = Vec::new();
                for (i, line) in lines.iter().enumerate() {
                    if i == victim {
                        encode_record(Tag::Entry, &edited, &mut bytes);
                    } else {
                        bytes.extend_from_slice(line.as_bytes());
                        bytes.push(b'\n');
                    }
                }
                std::fs::write(&path, &bytes).expect("write the edited store");
                let store = SolverStore::open(&path, *fp);
                let got = open_reference::Opened {
                    report: *store.load_report(),
                    header: store.header().clone(),
                    entries: store.to_portable().entries,
                    stats: *store.stats(),
                    prefix: store.validated_prefix().to_vec(),
                    read_only: store.read_only(),
                };
                assert_eq!(got, open_reference::open(&bytes, *fp), "{edited}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry payload in the writer's form, rewritten by each single edit
/// the store's direct scanner must refuse: a space after a colon, `hi`
/// and `lo` swapped, `verdict` and `assignments` swapped, a leading
/// zero, a rank of 2³², a value past `u64::MAX`, an empty `Sat` and an
/// `Unknown` reason no build defines.
fn one_edit_from_the_writer(payload: &str) -> Vec<String> {
    let e: open_reference::Entry = open_reference::tree(payload).expect("an entry");
    let (hi, lo) = (
        ((e.fp.0 >> 64) as u64).to_string(),
        (e.fp.0 as u64).to_string(),
    );
    let verdict = mvm_json::to_string(&e.result.verdict);
    let assignments = e.result.assignments.to_string();
    let writer = |hi: &str, lo: &str, verdict: &str, assignments: &str| {
        format!(
            r#"{{"fp":{{"hi":{hi},"lo":{lo}}},"result":{{"verdict":{verdict},"assignments":{assignments}}}}}"#
        )
    };
    assert_eq!(writer(&hi, &lo, &verdict, &assignments), payload);
    vec![
        payload.replacen(':', ": ", 1),
        format!(
            r#"{{"fp":{{"lo":{lo},"hi":{hi}}},"result":{{"verdict":{verdict},"assignments":{assignments}}}}}"#
        ),
        format!(
            r#"{{"fp":{{"hi":{hi},"lo":{lo}}},"result":{{"assignments":{assignments},"verdict":{verdict}}}}}"#
        ),
        writer(&hi, &lo, &verdict, &format!("0{assignments}")),
        writer(&hi, &lo, r#"{"Sat":[[4294967296,1]]}"#, &assignments),
        writer(&hi, &lo, &verdict, "18446744073709551616"),
        writer(&hi, &lo, r#"{"Sat":[]}"#, &assignments),
        writer(&hi, &lo, r#"{"Unknown":"Overheated"}"#, &assignments),
    ]
}
