//! Robustness tests: misbehaving inputs, edge configurations, and the
//! engine's honesty about divergence.

use mvm_json::{Json, ToJson};
use res_debugger::isa::BinOp;
use res_debugger::machine::{LbrEntry, LbrRing, Machine, MachineConfig};
use res_debugger::prelude::*;
use res_debugger::symbolic::{Expr, SolveResult, Solver, SolverConfig};

#[test]
fn lbr_filtered_recording_matches_engine_expectations() {
    // A machine configured with the §2.4 filtering extension records
    // only conditional branches; the engine must be told (lbr_filtered)
    // and still synthesize correctly.
    let p = build_workload(BugKind::Figure1, WorkloadParams::default());
    let mut m = Machine::new(
        &p,
        MachineConfig {
            lbr_capacity: 4,
            lbr_filter_inferrable: true,
            ..MachineConfig::default()
        },
    );
    m.run();
    let d = Coredump::capture(&m);
    // Filtered rings contain no inferrable transfers.
    assert!(d.lbr.iter().all(|e| !e.inferrable));
    let engine = ResEngine::new(
        &p,
        ResConfig::builder()
            .use_lbr(true)
            .lbr_filtered(true)
            .build(),
    );
    let result = engine.synthesize(&d);
    assert!(
        matches!(result.verdict, Verdict::SuffixFound),
        "{:?}",
        result.stats
    );
    assert!(result
        .suffixes
        .iter()
        .any(|s| replay_suffix(&p, &d, s).reproduced));
}

#[test]
fn replay_reports_divergence_for_tampered_suffix() {
    // A suffix whose initial image is tampered with must not silently
    // "reproduce": the replayer reports the divergence.
    let p = build_workload(BugKind::DivByZero, WorkloadParams::default());
    let mut m = Machine::new(&p, MachineConfig::default());
    m.run();
    let d = Coredump::capture(&m);
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    let mut sfx = result.suffixes[0].clone();
    let ok = replay_suffix(&p, &d, &sfx);
    assert!(ok.reproduced);
    // Tamper: flip a cell of Mi (or inject one if empty).
    if let Some(cell) = sfx.initial_cells.first_mut() {
        cell.2 ^= 0xff;
    } else {
        sfx.initial_cells.push((
            res_debugger::isa::layout::GLOBAL_BASE,
            res_debugger::isa::Width::W8,
            0xdead,
        ));
    }
    let bad = replay_suffix(&p, &d, &sfx);
    assert!(!bad.reproduced, "tampered suffix must not reproduce");
}

#[test]
fn solver_scales_to_wider_constraint_sets() {
    // A 12-symbol chained system: σ0+σ1=K0, σ1+σ2=K1, ... with σ0
    // pinned; forced-value derivation must crack it without search
    // explosion.
    let solver = Solver::with_config(SolverConfig::default());
    let mut cs = vec![Expr::bin(BinOp::Eq, Expr::sym(0), Expr::konst(7))];
    for i in 0..11u32 {
        cs.push(Expr::bin(
            BinOp::Eq,
            Expr::bin(BinOp::Add, Expr::sym(i), Expr::sym(i + 1)),
            Expr::konst(100 + i as u64),
        ));
    }
    let SolveResult::Sat(m) = solver.check(&cs) else {
        panic!("chained system must be sat");
    };
    for c in &cs {
        assert_eq!(m.eval_total(c), Some(1), "violated {c}");
    }
}

#[test]
fn lbr_ring_model_matches_hardware_semantics() {
    // Capacity-bounded, order-preserving, filter drops inferrable.
    let mut ring = LbrRing::new(2).with_filtering(true);
    let mk = |b: u32, inferrable: bool| LbrEntry {
        tid: 0,
        from: res_debugger::isa::Loc {
            func: res_debugger::isa::FuncId(0),
            block: res_debugger::isa::BlockId(b),
            inst: 0,
        },
        to: res_debugger::isa::Loc {
            func: res_debugger::isa::FuncId(0),
            block: res_debugger::isa::BlockId(b + 1),
            inst: 0,
        },
        inferrable,
    };
    for b in 0..6 {
        ring.record(mk(b, b % 2 == 0));
    }
    let got: Vec<u32> = ring.entries().map(|e| e.from.block.0).collect();
    assert_eq!(
        got,
        vec![3, 5],
        "filtered ring keeps last essential entries"
    );
}

#[test]
fn engine_survives_minimal_and_maximal_budgets() {
    let p = build_workload(BugKind::SemanticAssert, WorkloadParams::default());
    let mut m = Machine::new(&p, MachineConfig::default());
    m.run();
    let d = Coredump::capture(&m);
    // Degenerate budgets must not panic and must answer honestly.
    for (depth, nodes) in [(1usize, 1u64), (2, 2), (64, 50_000)] {
        let engine = ResEngine::new(
            &p,
            ResConfig::builder()
                .max_depth(depth)
                .max_nodes(nodes)
                .build(),
        );
        let result = engine.synthesize(&d);
        match result.verdict {
            Verdict::SuffixFound => {
                assert!(!result.suffixes.is_empty());
            }
            Verdict::BudgetExhausted | Verdict::NoFeasibleSuffix { .. } => {}
        }
    }
}

#[test]
fn corpus_reports_are_self_consistent() {
    use res_debugger::workloads::{generate_corpus, CorpusSpec};
    let corpus = generate_corpus(&CorpusSpec {
        kinds: vec![BugKind::DivByZero, BugKind::HashChain],
        per_kind: 2,
        ..CorpusSpec::default()
    });
    for r in &corpus {
        // The minidump is a faithful projection of the dump.
        assert_eq!(r.minidump.fault, r.dump.fault);
        assert_eq!(r.minidump.call_stack(), r.dump.call_stack());
        // The seed re-derives the same failure deterministically.
        let m = res_debugger::workloads::run_to_failure(&r.program, r.seed).expect("re-fails");
        let d2 = Coredump::capture(&m);
        assert_eq!(
            res_debugger::coredump::diff_dumps(&r.dump, &d2, 8).is_empty(),
            true
        );
    }
}

/// The malformed dumps a decoder must refuse: a memory page shorter or
/// longer than `PAGE_SIZE`, a page at a base that is not page-aligned,
/// a `faulting_tid` that names no thread, a thread with no frames, and
/// a frame whose register file is not `Reg::COUNT` long.
#[derive(Debug, Clone, Copy)]
enum BadDump {
    ShortPage,
    LongPage,
    MisalignedPage,
    UnknownFaultingTid,
    ThreadWithoutFrames,
    ShortRegisterFile,
}

impl BadDump {
    const ALL: [BadDump; 6] = [
        BadDump::ShortPage,
        BadDump::LongPage,
        BadDump::MisalignedPage,
        BadDump::UnknownFaultingTid,
        BadDump::ThreadWithoutFrames,
        BadDump::ShortRegisterFile,
    ];

    /// The field a decode error must name.
    fn field(self) -> &'static str {
        match self {
            BadDump::ShortPage | BadDump::LongPage | BadDump::MisalignedPage => "Memory.pages[",
            BadDump::UnknownFaultingTid => "Coredump.faulting_tid",
            BadDump::ThreadWithoutFrames => "Coredump.threads[0].frames",
            BadDump::ShortRegisterFile => "Coredump.threads[0].frames[0].regs",
        }
    }
}

/// Damages the first dump inside `j` (a dump, or any value embedding
/// one): its first memory page, its `faulting_tid`, its first thread's
/// frames or that thread's first register file. Returns `false` when
/// `j` holds no dump.
fn damage_dump(j: &mut Json, how: BadDump) -> bool {
    match j {
        Json::Obj(fields) if fields.iter().any(|(k, _)| k == "faulting_tid") => fields
            .iter_mut()
            .any(|(key, v)| match (how, key.as_str(), v) {
                (BadDump::UnknownFaultingTid, "faulting_tid", v) => {
                    *v = Json::U64(99);
                    true
                }
                (
                    BadDump::ThreadWithoutFrames | BadDump::ShortRegisterFile,
                    "threads",
                    Json::Arr(threads),
                ) => {
                    let Some(Json::Obj(thread)) = threads.first_mut() else {
                        return false;
                    };
                    let Some((_, Json::Arr(frames))) =
                        thread.iter_mut().find(|(k, _)| k == "frames")
                    else {
                        return false;
                    };
                    if matches!(how, BadDump::ThreadWithoutFrames) {
                        frames.clear();
                        return true;
                    }
                    let Some(Json::Obj(frame)) = frames.first_mut() else {
                        return false;
                    };
                    match frame.iter_mut().find(|(k, _)| k == "regs") {
                        Some((_, Json::Arr(regs))) => {
                            regs.truncate(10);
                            true
                        }
                        _ => false,
                    }
                }
                (BadDump::ShortPage | BadDump::LongPage | BadDump::MisalignedPage, "memory", v) => {
                    damage_page(v, how)
                }
                _ => false,
            }),
        Json::Obj(fields) => fields.iter_mut().any(|(_, v)| damage_dump(v, how)),
        Json::Arr(items) => items.iter_mut().any(|v| damage_dump(v, how)),
        _ => false,
    }
}

/// Damages the first page of a `Memory` value.
fn damage_page(memory: &mut Json, how: BadDump) -> bool {
    let Json::Obj(fields) = memory else {
        return false;
    };
    fields.iter_mut().any(|(key, v)| {
        let (true, Json::Obj(pages)) = (key == "pages", v) else {
            return false;
        };
        let Some((base, Json::Arr(bytes))) = pages.first_mut() else {
            return false;
        };
        match how {
            BadDump::ShortPage => bytes.truncate(10),
            BadDump::LongPage => bytes.push(Json::U64(0)),
            _ => *base = (base.parse::<u64>().expect("page base") + 8).to_string(),
        }
        true
    })
}

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(path).expect("read fixture")
}

/// A malformed dump is a typed decode error, naming the field, at every
/// entry point that decodes one: dump JSON, a daemon request frame and
/// a trace file, as bytes and on disk. Before these checks, a short
/// page decoded and then panicked the engine (`Memory::read_byte`
/// indexes past it), a `faulting_tid` naming no thread or a thread
/// without frames decoded and then panicked every entry point that
/// looks up the fault's pc, and a short register file decoded and then
/// panicked the search's forward execution.
#[test]
fn malformed_dumps_are_typed_errors_at_every_dump_entry_point() {
    use res_debugger::serve::wire::{read_request, write_frame, REQUEST_TAG};
    use res_debugger::serve::WireRequest;
    use res_debugger::store::{decode_record, encode_record};
    use res_debugger::trace::TraceError;
    use res_debugger::triage::TriageRequest;

    let program: Program = mvm_json::from_str(&fixture("program.json")).expect("program");
    let dump: Coredump = mvm_json::from_str(&fixture("coredump.json")).expect("dump");
    let trace = fixture("trace_v1.restrace");
    let dir = std::env::temp_dir().join(format!("res-bad-dumps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for how in BadDump::ALL {
        let names_the_field = |msg: &str| msg.contains(how.field());
        // Dump JSON.
        let mut j = dump.to_json();
        assert!(damage_dump(&mut j, how));
        let err = mvm_json::from_str::<Coredump>(&j.to_string_compact())
            .expect_err(&format!("{how:?} decoded as a dump"));
        assert!(names_the_field(&err.message), "{how:?}: {err}");

        // A daemon request frame.
        let req = WireRequest::Triage(TriageRequest::new(program.clone(), dump.clone()));
        let mut j = req.to_json();
        assert!(damage_dump(&mut j, how));
        let mut frame = Vec::new();
        write_frame(&mut frame, REQUEST_TAG, &j.to_string_compact()).expect("frame");
        let err = read_request(&mut &frame[..]).expect_err(&format!("{how:?} framed"));
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{how:?}");
        assert!(names_the_field(&err.to_string()), "{how:?}: {err}");

        // A trace file: every record re-framed, the embedded dump damaged.
        let mut lines = trace.lines();
        let mut bytes = format!("{}\n", lines.next().expect("magic")).into_bytes();
        let mut damaged = false;
        for line in lines {
            let (tag, payload) = decode_record(line).expect("fixture record");
            let mut j = mvm_json::parse(payload).expect("record payload");
            damaged |= !damaged && damage_dump(&mut j, how);
            encode_record(tag, &j.to_string_compact(), &mut bytes);
        }
        assert!(damaged, "the trace fixture embeds no dump");
        match TraceFile::from_text_bytes(&bytes) {
            Err(TraceError::Json(msg)) => assert!(names_the_field(&msg), "{how:?}: {msg}"),
            other => panic!("{how:?} in a trace gave {other:?}"),
        }

        // The same trace read from a file.
        let path = dir.join(format!("{how:?}.restrace"));
        std::fs::write(&path, &bytes).expect("write trace");
        match TraceFile::read(&path) {
            Err(TraceError::Json(msg)) => assert!(names_the_field(&msg), "{how:?}: {msg}"),
            other => panic!("{how:?} in a trace file gave {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A dump whose frames name code the program lacks decodes, but no
/// engine can run it: each entry point that pairs a program with a dump
/// from outside refuses it with a typed error instead of panicking in
/// `Program::func` or `Function::block`. Covered: the library check, a
/// trace's `replay_trace` and `verify_trace`, and `res-cli`'s
/// `synthesize`, `record`, `verdict` and `submit`, which exit 1 with
/// the error.
#[test]
fn dumps_naming_code_the_program_lacks_are_typed_errors() {
    use res_debugger::coredump::ProgramMismatch;
    use res_debugger::isa::{BlockId, FuncId, Loc};
    use res_debugger::trace::TraceError;

    let program: Program = mvm_json::from_str(&fixture("program.json")).expect("program");
    let dump: Coredump = mvm_json::from_str(&fixture("coredump.json")).expect("dump");
    let trace = TraceFile::from_text_bytes(fixture("trace_v1.restrace").as_bytes()).expect("trace");
    assert_eq!(dump.check_program(&program), Ok(()));
    assert_eq!(trace.dump.check_program(&program), Ok(()));
    let top = dump.faulting_thread().frames.len() - 1;
    let at = dump.fault_pc();
    let len = program.func(at.func).block(at.block).insts.len() as u32;
    let missing = [
        Loc {
            func: FuncId(99),
            ..at
        },
        Loc {
            block: BlockId(99),
            ..at
        },
        Loc {
            inst: len + 1,
            ..at
        },
    ];
    let dir = std::env::temp_dir().join(format!("res-missing-code-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("program.json"), fixture("program.json")).expect("program.json");
    for loc in missing {
        let doctor = |dump: &mut Coredump| {
            let tid = dump.faulting_tid;
            let t = dump
                .threads
                .iter_mut()
                .find(|t| t.tid == tid)
                .expect("thread");
            let f = t.frames.last_mut().expect("frame");
            (f.func, f.block, f.inst) = (loc.func, loc.block, loc.inst);
        };
        let want = ProgramMismatch::MissingCode {
            tid: dump.faulting_tid,
            frame: top,
            loc,
        };
        let mut bad = dump.clone();
        doctor(&mut bad);
        assert_eq!(bad.check_program(&program), Err(want.clone()), "{loc}");

        let mut bad_trace = trace.clone();
        doctor(&mut bad_trace.dump);
        let refused = TraceError::Program(want.clone());
        let replayed = replay_trace(&program, &bad_trace, &Recorder::disabled());
        assert_eq!(replayed.map(|_| ()), Err(refused.clone()), "replay {loc}");
        let verified = verify_trace(&program, &bad_trace, &Recorder::disabled());
        assert_eq!(verified.map(|_| ()), Err(refused), "verify {loc}");

        std::fs::write(dir.join("dump.json"), mvm_json::to_string_pretty(&bad)).expect("dump");
        for args in [
            &["synthesize"][..],
            &["record"],
            &["verdict"],
            &["submit", "--addr", "127.0.0.1:9"],
        ] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_res-cli"))
                .args(&args[..1])
                .arg(&dir)
                .args(&args[1..])
                .output()
                .expect("run res-cli");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?} {loc}: {stderr}");
            assert!(
                stderr.contains(&format!("does not fit program.json: {want}")),
                "{args:?} {loc}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let mut invalid = program.clone();
    invalid.entry = FuncId(99);
    assert!(matches!(
        dump.check_program(&invalid),
        Err(ProgramMismatch::Invalid(_))
    ));
}
