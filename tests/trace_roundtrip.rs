//! Round-trip and determinism guarantees of the portable replay-trace
//! format (`res-trace`).
//!
//! Three properties pin the format:
//!
//! 1. **Losslessness** — a trace survives encoding to bytes, and a
//!    write to and read from disk, unchanged.
//! 2. **Determinism** — recording the same failure at any worker count
//!    produces byte-identical files (the header carries no timestamps,
//!    the search is deterministic), so traces can be diffed and cached.
//! 3. **Stability** — the byte-level golden fixture
//!    (`tests/fixtures/trace_v1.restrace`) pins format version 1: a
//!    trace recorded today must match the committed bytes exactly, so
//!    accidental drift — which would orphan every archived trace —
//!    fails loudly. Regenerate after an *intentional* format change
//!    with `RES_REGEN_FIXTURES=1 cargo test --test trace_roundtrip`.

use std::path::PathBuf;

use res_debugger::prelude::*;
use res_debugger::triage::bucket_key_for;
use res_debugger::workloads::run_to_failure;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("res-trace-rt-{tag}-{}", std::process::id()));
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

/// Records the crash scenario's trace.
fn record() -> TraceFile {
    let (program, dump) = crash();
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize(&dump);
    let bucket = bucket_key_for(&program, &dump, &result.suffixes);
    for sfx in &result.suffixes {
        if let Ok(t) = record_trace(
            &program,
            &dump,
            sfx,
            Some(bucket.clone()),
            &Recorder::disabled(),
        ) {
            return t;
        }
    }
    panic!("no suffix produced a recordable trace");
}

/// The JSON encoding, now the only one (the binary encoding this test
/// once also covered was removed), round-trips through bytes losslessly,
/// and re-encoding the decoded trace gives the same bytes.
#[test]
fn json_and_binary_encodings_round_trip_losslessly() {
    let trace = record();
    let bytes = trace.to_text_bytes();
    let back = TraceFile::from_text_bytes(&bytes).expect("decode own bytes");
    assert_eq!(back, trace, "byte round trip lost data");
    assert_eq!(back.to_text_bytes(), bytes, "re-encoding changed the bytes");
}

/// Every file name selects the one encoding: `write` stores exactly
/// `to_text_bytes` whatever the extension, and `read` gets the trace back.
#[test]
fn file_extension_selects_the_encoding() {
    let trace = record();
    let dir = temp_dir("ext");
    for name in ["t.restrace", "t.trace", "t"] {
        let path = dir.join(name);
        trace.write(&path).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            trace.to_text_bytes(),
            "{name}"
        );
        assert_eq!(
            TraceFile::read(&path).unwrap(),
            trace,
            "{name}: disk round trip lost data"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-level golden fixture for format version 1.
#[test]
fn trace_v1_golden_fixtures_round_trip() {
    let trace = record();
    let written = trace.to_text_bytes();
    let fixture = fixture_path("trace_v1.restrace");
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
            written, golden,
            "trace format drifted from the committed version-1 fixture; \
             bump FORMAT_VERSION for an intentional change"
        );
    }
    // The committed fixture must still decode and verify PASS.
    let back = TraceFile::read(&fixture).expect("read fixture");
    assert_eq!(back, trace);
    let (program, _) = crash();
    let outcome =
        verify_trace(&program, &back, &Recorder::disabled()).expect("the dump fits the program");
    assert!(outcome.pass, "committed fixture no longer verifies");
    assert!(outcome.fingerprint_matches);
}
