//! Point-of-first-divergence reporting: the `verify` half of the
//! record → fix → verify workflow.
//!
//! Each scenario records a trace of a buggy program, replays it against
//! the *repaired* program ([`build_fixed`]), and asserts the exact
//! divergence payload — event index, thread, and expected-vs-got — not
//! just "it failed". The payloads are what a developer reads to confirm
//! a fix changed precisely the behaviour it was supposed to change:
//!
//! * DivByZero's fix changes a stored value, so the first difference is
//!   a **write** divergence at the instruction that writes the repaired
//!   quota — with the recorded and replayed values side by side.
//! * SemanticAssert's fix changes only register state, so the replay
//!   tracks the recording all the way to the final step and reports a
//!   **fault** divergence with `got: None`: the recorded failure no
//!   longer happens at all.
//!
//! The other kinds are pinned on edited recordings of the DivByZero
//! crash: a recorded start pc or end pc changed (**start-pc** and
//! **end-pc** divergences), one extra recorded write (a **write**
//! divergence with `got: None`), a program variant whose first range
//! asserts after one instruction (**premature fault**), and a dump
//! register the replay no longer reaches (**final state**). Each case
//! checks the whole [`ReplayReport`] too, against a machine stepped by
//! hand to the point where verification stops.

use res_debugger::coredump::{diff_dumps, DumpDiff};
use res_debugger::isa::{Inst, Loc, Operand};
use res_debugger::machine::{Fault, TraceLevel};
use res_debugger::prelude::*;
use res_debugger::res::replay::instantiate;
use res_debugger::res::{Divergence, DivergenceKind, ReplayReport};
use res_debugger::trace::VerifyOutcome;
use res_debugger::triage::bucket_key_for;
use res_debugger::workloads::{build_fixed, run_to_failure};

const PARAMS: WorkloadParams = WorkloadParams {
    prefix_iters: 2,
    hash_rounds: 1,
};

/// Crash `kind`, synthesize, and record the first reproducible suffix.
fn recorded(kind: BugKind) -> (Program, TraceFile) {
    let program = build_workload(kind, PARAMS);
    let machine = (0..500)
        .find_map(|s| run_to_failure(&program, s))
        .unwrap_or_else(|| panic!("{} workload must fault", kind.name()));
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
        .unwrap_or_else(|| panic!("{} must record", kind.name()));
    (program, trace)
}

/// Sanity for every scenario: the unmodified program verifies PASS.
fn assert_passes(program: &Program, trace: &TraceFile) {
    let outcome = verify_trace(program, trace, &Recorder::disabled());
    assert!(outcome.fingerprint_matches);
    assert!(
        outcome.pass,
        "unmodified program must verify PASS, got {:?}",
        outcome.divergence
    );
    assert_eq!(outcome.divergence, None);
}

#[test]
fn fixed_div_by_zero_diverges_at_the_repaired_write() {
    let (program, trace) = recorded(BugKind::DivByZero);
    assert_passes(&program, &trace);

    let fixed = build_fixed(BugKind::DivByZero, PARAMS).expect("DivByZero has a fixed variant");
    let outcome = verify_trace(&fixed, &trace, &Recorder::disabled());
    assert!(!outcome.pass);
    assert!(!outcome.fingerprint_matches, "the fix changes the program");
    let d = outcome.divergence.expect("a fixed program must diverge");

    // The recording knows exactly where the buggy program zeroed the
    // quota: the *last* zero-valued write before the divide (the churn
    // prefix also stores zeros, but those are untouched by the fix).
    // Locate it in the trace rather than hardcoding the event index,
    // then demand an exact payload match.
    let (event, index, &(addr, width, _)) = trace
        .steps
        .iter()
        .enumerate()
        .rev()
        .find_map(|(ei, s)| {
            s.writes
                .iter()
                .enumerate()
                .find(|(_, &(_, _, v))| v == 0)
                .map(|(wi, w)| (ei, wi, w))
        })
        .expect("the recorded suffix contains the zeroing write");
    assert_eq!(
        d,
        Divergence {
            event,
            tid: trace.expected.faulting_tid,
            kind: DivergenceKind::Write {
                index,
                expected: Some((addr, width, 0)),
                got: Some((addr, width, 1)),
            },
        },
        "first divergence must be the repaired quota write"
    );
    // The report's rendering carries the same payload for humans.
    let shown = format!("{d}");
    assert!(shown.contains(&format!("event {event}")), "{shown}");
    assert!(shown.contains("expected"), "{shown}");
}

#[test]
fn fixed_semantic_assert_no_longer_faults() {
    let (program, trace) = recorded(BugKind::SemanticAssert);
    assert_passes(&program, &trace);

    let fixed =
        build_fixed(BugKind::SemanticAssert, PARAMS).expect("SemanticAssert has a fixed variant");
    let outcome = verify_trace(&fixed, &trace, &Recorder::disabled());
    assert!(!outcome.pass);
    let d = outcome.divergence.expect("a fixed program must diverge");

    // The fix only changes register state, so every recorded event
    // replays identically; the divergence is the final faulting step
    // itself — the recorded assert failure never happens.
    assert_eq!(
        d,
        Divergence {
            event: trace.steps.len(),
            tid: trace.expected.faulting_tid,
            kind: DivergenceKind::Fault {
                expected: trace.expected.fault.clone(),
                got: None,
            },
        },
        "the fix must make the recorded fault vanish, not move"
    );
}

#[test]
fn bugs_without_a_fixed_variant_decline() {
    assert!(build_fixed(BugKind::UseAfterFree, PARAMS).is_none());
}

/// `verify` of `trace` against `program`, which must fail with exactly
/// `expected` and the report `want`.
fn assert_diverges(
    program: &Program,
    trace: &TraceFile,
    expected: Divergence,
    want: &ReplayReport,
) -> VerifyOutcome {
    let outcome = verify_trace(program, trace, &Recorder::disabled());
    assert!(!outcome.pass);
    assert_eq!(outcome.divergence, Some(expected));
    let got = &outcome.report;
    assert_eq!(got.reproduced, want.reproduced);
    assert_eq!(got.fault_matches, want.fault_matches);
    assert_eq!(got.diff, want.diff);
    assert_eq!(got.replay_fault, want.replay_fault);
    assert_eq!(got.steps_executed, want.steps_executed);
    outcome
}

/// The report of a replay stopped after `steps` instructions of the
/// recorded schedule, stepped by hand; the stop either hit `fault` or
/// was a divergence.
fn stopped_after(
    program: &Program,
    trace: &TraceFile,
    steps: u64,
    fault: Option<Fault>,
) -> ReplayReport {
    let mut m = instantiate(program, &trace.dump, &trace.to_suffix(), TraceLevel::Off);
    let mut schedule = trace
        .steps
        .iter()
        .flat_map(|s| (0..s.steps).map(move |_| s.tid));
    for tid in schedule.by_ref().take(steps as usize) {
        m.step_thread(tid).expect("a recorded instruction");
    }
    if let Some(fault) = &fault {
        let tid = schedule.next().expect("the faulting instruction");
        assert_eq!(m.step_thread(tid).err().as_ref(), Some(fault));
    }
    ReplayReport {
        reproduced: false,
        fault_matches: false,
        diff: diff_dumps(&Coredump::capture_anyway(&m), &trace.dump, 64),
        replay_fault: fault,
        steps_executed: steps,
    }
}

/// Instructions in the first `events` recorded events.
fn steps_in(trace: &TraceFile, events: usize) -> u64 {
    trace.steps[..events].iter().map(|s| s.steps).sum()
}

fn shifted(loc: Loc) -> Loc {
    Loc {
        inst: loc.inst + 1,
        ..loc
    }
}

#[test]
fn an_edited_start_pc_diverges_before_the_event_runs() {
    let (program, mut trace) = recorded(BugKind::DivByZero);
    let last = trace.steps.len() - 1;
    let tid = trace.steps[last].tid;
    let got = trace.steps[last].start;
    trace.steps[last].start = shifted(got);
    let want = stopped_after(&program, &trace, steps_in(&trace, last), None);
    assert_diverges(
        &program,
        &trace,
        Divergence {
            event: last,
            tid,
            kind: DivergenceKind::StartLoc {
                expected: shifted(got),
                got,
            },
        },
        &want,
    );
}

#[test]
fn an_edited_end_pc_diverges_after_the_event_runs() {
    let (program, mut trace) = recorded(BugKind::DivByZero);
    let last = trace.steps.len() - 1;
    let tid = trace.steps[last].tid;
    let got = trace.steps[last].end;
    trace.steps[last].end = shifted(got);
    let want = stopped_after(&program, &trace, steps_in(&trace, last + 1), None);
    assert_diverges(
        &program,
        &trace,
        Divergence {
            event: last,
            tid,
            kind: DivergenceKind::EndLoc {
                expected: shifted(got),
                got,
            },
        },
        &want,
    );
}

#[test]
fn an_extra_recorded_write_is_one_the_replay_never_makes() {
    let (program, mut trace) = recorded(BugKind::DivByZero);
    let last = trace.steps.len() - 1;
    let tid = trace.steps[last].tid;
    let index = trace.steps[last].writes.len();
    let (addr, width, value) = *trace
        .steps
        .iter()
        .flat_map(|s| &s.writes)
        .next()
        .expect("the recording writes");
    let extra = (addr, width, value.wrapping_add(1));
    trace.steps[last].writes.push(extra);
    let want = stopped_after(&program, &trace, steps_in(&trace, last + 1), None);
    assert_diverges(
        &program,
        &trace,
        Divergence {
            event: last,
            tid,
            kind: DivergenceKind::Write {
                index,
                expected: Some(extra),
                got: None,
            },
        },
        &want,
    );
}

#[test]
fn a_variant_that_asserts_early_faults_prematurely() {
    let (mut program, trace) = recorded(BugKind::DivByZero);
    let first = &trace.steps[0];
    let at = first.start;
    let block = &mut program.funcs[at.func.0 as usize].blocks[at.block.0 as usize];
    assert!(
        first.steps >= 2 && (at.inst as usize) + 1 < block.insts.len(),
        "the first range runs two straight-line instructions"
    );
    block.insts[at.inst as usize + 1] = Inst::Assert {
        cond: Operand::Imm(0),
        msg: "premature".to_string(),
    };
    let fault = Fault::AssertFailed {
        msg: "premature".to_string(),
    };
    let want = stopped_after(&program, &trace, 1, Some(fault.clone()));
    let outcome = assert_diverges(
        &program,
        &trace,
        Divergence {
            event: 0,
            tid: first.tid,
            kind: DivergenceKind::PrematureFault {
                expected_steps: first.steps,
                executed: 1,
                fault,
            },
        },
        &want,
    );
    assert!(
        !outcome.fingerprint_matches,
        "the variant is another program"
    );
}

/// The dump a trace carries is both where the replay starts and what
/// its end state must equal. The faulting thread's innermost frame is
/// rebuilt from the recorded image, so a register changed there in the
/// dump is one the replay no longer reaches: every event and the fault
/// reproduce, and only the end state differs.
#[test]
fn a_dump_register_the_replay_no_longer_reaches_is_a_final_state_divergence() {
    let (program, mut trace) = recorded(BugKind::DivByZero);
    let tid = trace.expected.faulting_tid;
    let thread = trace
        .dump
        .threads
        .iter_mut()
        .find(|t| t.tid == tid)
        .expect("the faulting thread");
    assert_eq!(
        trace.image.start_positions[&tid].0,
        thread.frames.len() - 1,
        "the suffix starts in the innermost frame"
    );
    let regs = &mut thread.top_mut().regs;
    regs[0] = regs[0].wrapping_add(1);
    let want = ReplayReport {
        reproduced: false,
        fault_matches: true,
        diff: DumpDiff {
            registers: vec![(tid, 0)],
            ..DumpDiff::default()
        },
        replay_fault: Some(trace.expected.fault.clone()),
        steps_executed: trace.expected.total_steps + 1,
    };
    assert_diverges(
        &program,
        &trace,
        Divergence {
            event: trace.steps.len(),
            tid,
            kind: DivergenceKind::FinalState {
                memory_bytes: 0,
                registers: 1,
                pcs: 0,
                threads: 0,
            },
        },
        &want,
    );
}
