//! Robustness of the portable replay-trace format (`res-trace`).
//!
//! Traces and solver stores answer damage differently, on purpose. The
//! store degrades — any damage falls back to a cold start because a
//! store is only a cache. A trace is a *claim* ("this schedule
//! reproduces that failure"), and replaying half a schedule can
//! "verify" something the recording never said, so every kind of
//! damage here must surface as a typed [`TraceError`] and never as a
//! partial trace, a panic, or a silent PASS. Each test damages a real
//! trace a different way and asserts the exact error class.

use res_debugger::prelude::*;
use res_debugger::trace::TraceError;
use res_debugger::triage::bucket_key_for;
use res_debugger::workloads::run_to_failure;

/// One recorded trace of the deterministic DivByZero scenario, plus
/// the program it was recorded against.
fn recorded() -> (Program, TraceFile) {
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
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize(&dump);
    let bucket = bucket_key_for(&program, &dump, &result.suffixes);
    let trace = result
        .suffixes
        .iter()
        .find_map(|s| {
            record_trace(
                &program,
                &dump,
                s,
                Some(bucket.clone()),
                &Recorder::disabled(),
            )
            .ok()
        })
        .expect("a suffix must record");
    (program, trace)
}

#[test]
fn truncation_is_torn_never_partial() {
    let (_, trace) = recorded();
    let bytes = trace.to_text_bytes();
    // Tear at several depths: mid-final-record, mid-file, just past
    // the magic. Every depth must produce a typed error — a torn trace
    // never yields a shorter schedule.
    for keep in [bytes.len() - 3, bytes.len() / 2, 40] {
        let err = TraceFile::from_text_bytes(&bytes[..keep])
            .expect_err(&format!("tear at {keep} accepted"));
        assert!(
            matches!(err, TraceError::Torn { .. } | TraceError::Missing(_)),
            "tear at {keep} gave {err:?}"
        );
    }
    // Torn inside the magic itself: not recognizably a trace.
    assert!(matches!(
        TraceFile::from_text_bytes(&bytes[..4]),
        Err(TraceError::NotATrace)
    ));
}

#[test]
fn corrupted_payload_is_torn_at_the_damaged_record() {
    let (_, trace) = recorded();
    // Flip one payload byte mid-file; the checksum catches it.
    let mut tampered = trace.to_text_bytes();
    let mid = tampered.len() / 2;
    tampered[mid] ^= 0x01;
    match TraceFile::from_text_bytes(&tampered) {
        Err(TraceError::Torn { record }) => assert!(record > 0, "magic is intact"),
        other => panic!("corrupt byte gave {other:?}"),
    }
}

#[test]
fn foreign_bytes_are_not_a_trace() {
    for junk in [
        &b""[..],
        b"hello world\n",
        b"RES-STORE 1 deadbeef\n", // a solver store, not a trace
        b"{\"header\":{}}",
    ] {
        assert!(
            matches!(TraceFile::from_text_bytes(junk), Err(TraceError::NotATrace)),
            "accepted junk {junk:?}"
        );
    }
}

#[test]
fn future_format_version_is_refused_with_the_version() {
    let (_, trace) = recorded();
    // Magic line: `RES-TRACE 1` -> version 99.
    let text = String::from_utf8(trace.to_text_bytes()).unwrap();
    let bumped = text.replacen("RES-TRACE 1", "RES-TRACE 99", 1);
    assert_eq!(
        TraceFile::from_text_bytes(bumped.as_bytes()).unwrap_err(),
        TraceError::Version(99)
    );
}

/// Older builds could also write traces in a binary encoding
/// (`.restrace.bin`, magic `RES-TRACE-BIN 1`), since removed. Such a
/// file is refused as not a trace, never half-parsed and never a panic.
#[test]
fn legacy_binary_trace_is_not_a_trace() {
    // The magic line and header record of a binary trace as an older
    // build wrote it, followed by the start of its dump record.
    let legacy: &[u8] = b"RES-TRACE-BIN 1\nH@\x00\x00\x00l5\xb4\xda:\x95O\xdd\x08\x03\x0e\
        format_version\x03\x01\nprogram_fp\x03\xad\x8b\xbe\x99\x96\x9a\xaa\xa2H\x06\
        writer\x06\x0fres-trace 0.1.0DS#\x00\x00\xb7\xeb\xca\x9d\xb2s\xac\xe7\x08\n\x0c";
    assert_eq!(
        TraceFile::from_text_bytes(legacy).unwrap_err(),
        TraceError::NotATrace
    );
    // The magic line alone is valid UTF-8: refused by the magic check.
    assert_eq!(
        TraceFile::from_text_bytes(&legacy[..16]).unwrap_err(),
        TraceError::NotATrace
    );
    let dir = std::env::temp_dir().join(format!("res-trace-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repro.restrace.bin");
    std::fs::write(&path, legacy).unwrap();
    assert_eq!(TraceFile::read(&path).unwrap_err(), TraceError::NotATrace);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_section_is_reported_by_name() {
    let (_, trace) = recorded();
    let text = String::from_utf8(trace.to_text_bytes()).unwrap();
    // Drop the expected-outcome record (tag X) entirely; the file is
    // otherwise pristine, so this exercises the completeness check
    // rather than the framing.
    let without: String = text
        .lines()
        .filter(|l| !l.starts_with("X "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        TraceFile::from_text_bytes(without.as_bytes()).unwrap_err(),
        TraceError::Missing("expected-outcome")
    );
}

#[test]
fn replay_refuses_a_foreign_program_by_fingerprint() {
    let (_, trace) = recorded();
    let other = build_workload(
        BugKind::UseAfterFree,
        WorkloadParams {
            prefix_iters: 2,
            hash_rounds: 1,
        },
    );
    let err = replay_trace(&other, &trace, &Recorder::disabled()).unwrap_err();
    match err {
        TraceError::Fingerprint { expected, got } => {
            assert_eq!(expected, trace.header.program_fp);
            assert_ne!(got, expected);
        }
        other => panic!("foreign program gave {other:?}"),
    }
}

/// A trace whose sections disagree with its dump about threads is
/// refused with the section and the thread, from bytes and from a file
/// alike: replay and verify would otherwise start or schedule a thread
/// the dump has no state for.
#[test]
fn a_section_naming_a_thread_the_dump_lacks_is_refused_by_name() {
    let (_, trace) = recorded();
    assert!(trace.dump.thread(9).is_none());
    let mut step = trace.clone();
    step.steps[0].tid = 9;
    let mut start = trace.clone();
    let first = *start.image.start_positions.values().next().unwrap();
    start.image.start_positions.insert(9, first);
    let mut regs = trace.clone();
    let first = regs.image.initial_regs.values().next().unwrap().clone();
    regs.image.initial_regs.insert(9, first);
    let dir = std::env::temp_dir().join(format!("res-trace-threads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (edited, section) in [
        (step, "step"),
        (start, "start_positions"),
        (regs, "initial_regs"),
    ] {
        let want = TraceError::UnknownThread { section, tid: 9 };
        let bytes = edited.to_text_bytes();
        assert_eq!(TraceFile::from_text_bytes(&bytes).unwrap_err(), want);
        let path = dir.join(format!("{section}.restrace"));
        edited.write(&path).unwrap();
        assert_eq!(TraceFile::read(&path).unwrap_err(), want);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace whose image cannot start one of its dump's threads is
/// refused with the thread, from bytes and from a file alike: a start
/// thread with no register file, a start depth past the dump thread's
/// frames, a register file at another depth, and a register file
/// shorter than `Reg::COUNT` each decoded and then panicked replay and
/// verify.
#[test]
fn an_image_that_cannot_start_a_thread_is_refused() {
    let (program, trace) = recorded();
    let (&tid, &(depth, loc)) = trace.image.start_positions.iter().next().unwrap();
    let mut no_regs = trace.clone();
    no_regs.image.initial_regs.remove(&tid);
    let mut past_frames = trace.clone();
    past_frames.image.start_positions.insert(tid, (99, loc));
    past_frames.image.initial_regs.get_mut(&tid).unwrap().0 = 99;
    let mut regs_depth = trace.clone();
    regs_depth.image.initial_regs.get_mut(&tid).unwrap().0 = depth + 1;
    let mut short_regs = trace.clone();
    short_regs
        .image
        .initial_regs
        .get_mut(&tid)
        .unwrap()
        .1
        .truncate(10);
    let dir = std::env::temp_dir().join(format!("res-trace-start-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (edited, name, defect) in [
        (no_regs, "no-regs", "initial_regs does not"),
        (past_frames, "past-frames", "past the dump thread's frames"),
        (regs_depth, "regs-depth", "initial_regs depth"),
        (short_regs, "short-regs", "Reg::COUNT"),
    ] {
        let is_bad_start = |err: &TraceError| matches!(err, TraceError::BadStart { tid: t, defect: d } if *t == tid && d.contains(defect));
        let bytes = edited.to_text_bytes();
        let err = TraceFile::from_text_bytes(&bytes).expect_err(name);
        assert!(is_bad_start(&err), "{name}: {err:?}");
        let path = dir.join(format!("{name}.restrace"));
        edited.write(&path).unwrap();
        let err = TraceFile::read(&path).expect_err(name);
        assert!(is_bad_start(&err), "{name}: {err:?}");
    }
    // The unedited trace still replays.
    assert!(
        replay_trace(&program, &trace, &Recorder::disabled())
            .unwrap()
            .reproduced
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Damage must also be typed end to end: a torn file on disk surfaces
/// through [`TraceFile::read`] the same way as through
/// `from_text_bytes`.
#[test]
fn read_from_disk_reports_the_same_typed_errors() {
    let (_, trace) = recorded();
    let dir = std::env::temp_dir().join(format!("res-trace-robust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.restrace");
    trace.write(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        TraceFile::read(&path),
        Err(TraceError::Torn { .. } | TraceError::Missing(_))
    ));
    assert!(matches!(
        TraceFile::read(&dir.join("absent.restrace")),
        Err(TraceError::Io(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Round-trips `edited` through its bytes: every edit below decodes.
fn decoded(edited: &TraceFile) -> TraceFile {
    TraceFile::from_text_bytes(&edited.to_text_bytes()).expect("the edit decodes")
}

/// A trace whose image starts a thread at code the program lacks
/// decodes. A start in a function or block the program lacks then
/// panicked `replay_trace` in `Program::func` or `Function::block`, and
/// one past its block's terminator replayed as a failure the trace never
/// recorded. Replay and verify refuse each with the section, the thread
/// and the location, and `res-cli replay` and `verify` exit 1 with that
/// error.
#[test]
fn a_start_in_code_the_program_lacks_is_refused() {
    use res_debugger::isa::{BlockId, FuncId, Loc};

    let (program, trace) = recorded();
    let (&tid, &(depth, loc)) = trace.image.start_positions.iter().next().unwrap();
    let dir = std::env::temp_dir().join(format!("res-trace-code-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("program.json"),
        mvm_json::to_string_pretty(&program),
    )
    .unwrap();
    let len = program.block_at(loc).insts.len() as u32;
    let missing = [
        Loc {
            func: FuncId(99),
            ..loc
        },
        Loc {
            block: BlockId(99),
            ..loc
        },
        Loc {
            inst: len + 1,
            ..loc
        },
    ];
    for bad in missing {
        let mut edited = trace.clone();
        edited.image.start_positions.insert(tid, (depth, bad));
        let edited = decoded(&edited);
        let want = TraceError::MissingCode {
            section: "start_positions",
            tid,
            loc: bad,
        };
        let replayed = replay_trace(&program, &edited, &Recorder::disabled());
        assert_eq!(replayed.map(|_| ()), Err(want.clone()), "replay {bad}");
        let verified = verify_trace(&program, &edited, &Recorder::disabled());
        assert_eq!(verified.map(|_| ()), Err(want.clone()), "verify {bad}");

        let path = dir.join("edited.restrace");
        edited.write(&path).unwrap();
        for command in ["replay", "verify"] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_res-cli"))
                .args([command.as_ref(), dir.as_os_str(), path.as_os_str()])
                .output()
                .expect("run res-cli");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} {bad}: {stderr}");
            assert!(
                stderr.contains(&want.to_string()),
                "{command} {bad}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A step that starts or ends at code the program lacks was ignored by
/// replay, which reads only the steps' threads and counts. The strict
/// replay refuses it, since the recorded program's own trace names only
/// its code. Verify still reports it as the divergence it is: a fix may
/// move or drop the code a step ran.
#[test]
fn a_step_in_code_the_program_lacks_is_refused_by_replay() {
    use res_debugger::isa::{BlockId, FuncId, Loc};

    let (program, trace) = recorded();
    let last = trace.steps.len() - 1;
    let missing = Loc {
        func: FuncId(99),
        block: BlockId(0),
        inst: 0,
    };
    let mut start = trace.clone();
    start.steps[0].start = missing;
    let mut end = trace.clone();
    end.steps[last].end = missing;
    for (edited, section, step) in [(start, "step start", 0), (end, "step end", last)] {
        let edited = decoded(&edited);
        let want = TraceError::MissingCode {
            section,
            tid: edited.steps[step].tid,
            loc: missing,
        };
        let replayed = replay_trace(&program, &edited, &Recorder::disabled());
        assert_eq!(replayed.map(|_| ()), Err(want), "{section}");
        let verified = verify_trace(&program, &edited, &Recorder::disabled()).expect(section);
        assert!(!verified.pass && verified.divergence.is_some(), "{section}");
    }
}
