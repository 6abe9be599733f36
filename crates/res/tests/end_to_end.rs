//! End-to-end tests: crash a program, capture the coredump, synthesize
//! a suffix with RES, replay it, and check the failure reproduces —
//! requirements (1)–(6) of paper §2.

use mvm_core::Coredump;
use mvm_isa::asm::assemble;
use mvm_isa::Program;
use mvm_machine::{Fault, Machine, MachineConfig, Outcome, SchedPolicy};
use res_core::{
    analyze_root_cause,
    hardware_verdict,
    replay_suffix,
    HwVerdict,
    ResConfig,
    ResEngine,
    RootCause,
    Verdict, //
};

fn crash(src: &str) -> (Program, Coredump) {
    crash_with(src, MachineConfig::default())
}

fn crash_with(src: &str, config: MachineConfig) -> (Program, Coredump) {
    let p = assemble(src).unwrap();
    let mut m = Machine::new(&p, config);
    let o = m.run();
    assert!(
        matches!(o, Outcome::Faulted { .. }),
        "expected fault, got {o:?}"
    );
    let dump = Coredump::capture(&m);
    (p, dump)
}

fn synthesize_and_replay(
    p: &Program,
    d: &Coredump,
    config: ResConfig,
) -> res_core::SynthesisResult {
    let engine = ResEngine::new(p, config);
    let result = engine.synthesize(d);
    assert_eq!(
        result.verdict,
        Verdict::SuffixFound,
        "stats: {:?}",
        result.stats
    );
    let mut reproduced = false;
    for sfx in &result.suffixes {
        let rep = replay_suffix(p, d, sfx);
        if rep.reproduced {
            reproduced = true;
            break;
        }
    }
    assert!(
        reproduced,
        "no suffix replayed to the coredump; first replay: {:?}",
        result.suffixes.first().map(|s| replay_suffix(p, d, s))
    );
    result
}

#[test]
fn straight_line_div_by_zero() {
    let (p, d) = crash(
        r#"
        func main() {
        entry:
            mov r0, 10
            sub r1, r0, 10
            divu r2, 100, r1
            halt
        }
        "#,
    );
    assert_eq!(d.fault, Fault::DivByZero);
    synthesize_and_replay(&p, &d, ResConfig::default());
}

#[test]
fn assert_failure_multi_block() {
    let (p, d) = crash(
        r#"
        global flag 8
        func main() {
        entry:
            addr r0, flag
            store 3, [r0]
            jmp check
        check:
            load r1, [r0]
            eq r2, r1, 0
            assert r2, "flag must be zero"
            halt
        }
        "#,
    );
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    // The suffix must reach back through the store that set the flag.
    let sfx = &result.suffixes[0];
    assert!(sfx.len() >= 2, "suffix too short: {} steps", sfx.len());
}

#[test]
fn figure1_predecessor_disambiguation() {
    // Paper Figure 1: two predecessors write x; only the one matching
    // the dump's x survives. Block `pred1` sets x=1, `pred2` sets x=2;
    // the dump has x=1, so the synthesized suffix must pass through
    // pred1.
    let (p, d) = crash(
        r#"
        global x 8
        global sel 8 = 1
        func main() {
        entry:
            addr r3, sel
            load r4, [r3]
            addr r5, x
            br r4, pred1, pred2
        pred1:
            store 1, [r5]
            jmp merge
        pred2:
            store 2, [r5]
            jmp merge
        merge:
            load r6, [r5]
            mov r7, 0
            divu r8, r6, r7
            halt
        }
        "#,
    );
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    let main = p.func_by_name("main").unwrap();
    let pred1 = p.func(main).block_by_label("pred1").unwrap();
    let pred2 = p.func(main).block_by_label("pred2").unwrap();
    let sfx = &result.suffixes[0];
    let blocks: Vec<_> = sfx.steps.iter().map(|s| s.start.block).collect();
    assert!(
        blocks.contains(&pred1),
        "suffix must pass through pred1: {blocks:?}"
    );
    assert!(
        !blocks.contains(&pred2),
        "suffix must not pass through pred2: {blocks:?}"
    );
}

#[test]
fn loop_unrolls_backward() {
    // A loop that counts down and then faults; the suffix unrolls a few
    // iterations backward.
    let (p, d) = crash(
        r#"
        global n 8 = 6
        func main() {
        entry:
            addr r0, n
            jmp loop
        loop:
            load r1, [r0]
            eq r2, r1, 0
            br r2, boom, dec
        dec:
            sub r1, r1, 1
            store r1, [r0]
            jmp loop
        boom:
            mov r3, 0
            divu r4, 1, r3
            halt
        }
        "#,
    );
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    assert!(result.suffixes[0].len() >= 3);
}

#[test]
fn call_reexecution_macro_step() {
    // The suffix crosses a *completed* call: the callee is re-executed
    // in full (paper §6's strategy for hard constructs).
    let (p, d) = crash(
        r#"
        global out 8
        func double(1) {
        entry:
            add r1, r0, r0
            ret r1
        }
        func main() {
        entry:
            mov r0, 21
            call r1 = double(r0), cont
        cont:
            addr r2, out
            store r1, [r2]
            load r3, [r2]
            eq r4, r3, 0
            assert r4, "out must stay zero"
            halt
        }
        "#,
    );
    synthesize_and_replay(&p, &d, ResConfig::default());
}

#[test]
fn fault_inside_callee_uses_dump_stack() {
    // The fault is inside a callee; backward synthesis crosses the
    // function entry using the dump's call stack (un-call step).
    let (p, d) = crash(
        r#"
        func divide(2) {
        entry:
            divu r2, r0, r1
            ret r2
        }
        func main() {
        entry:
            mov r0, 100
            mov r1, 0
            call r2 = divide(r0, r1), cont
        cont:
            halt
        }
        "#,
    );
    assert_eq!(d.call_stack().len(), 2);
    synthesize_and_replay(&p, &d, ResConfig::default());
}

#[test]
fn heap_overflow_with_alloc_in_suffix() {
    let (p, d) = crash(
        r#"
        func main() {
        entry:
            alloc r0, 16
            mov r1, 24
            add r2, r0, r1
            store 7, [r2]
            halt
        }
        "#,
    );
    assert!(matches!(d.fault, Fault::HeapOverflow { .. }));
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    let rc = analyze_root_cause(&p, &d, &result.suffixes[0]);
    assert!(matches!(rc, RootCause::BufferOverflow { .. }), "{rc:?}");
}

#[test]
fn use_after_free_root_cause() {
    let (p, d) = crash(
        r#"
        func main() {
        entry:
            alloc r0, 16
            store 5, [r0]
            free r0
            jmp use
        use:
            load r1, [r0]
            halt
        }
        "#,
    );
    assert!(matches!(d.fault, Fault::UseAfterFree { .. }));
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    let rc = analyze_root_cause(&p, &d, &result.suffixes[0]);
    match rc {
        RootCause::UseAfterFree { free_loc, .. } => {
            assert!(free_loc.is_some(), "free site must be inside the window");
        }
        other => panic!("expected UAF root cause, got {other:?}"),
    }
}

#[test]
fn input_inference() {
    // The crash depends on an external input; RES infers a value that
    // reproduces it (the input becomes an unconstrained symbol, §2.4).
    let (p, d) = crash_with(
        r#"
        func main() {
        entry:
            input r0, net
            remu r1, r0, 7
            eq r2, r1, 3
            br r2, boom, fine
        boom:
            mov r3, 0
            divu r4, 1, r3
            halt
        fine:
            halt
        }
        "#,
        MachineConfig {
            input: mvm_machine::InputSource::Fixed(10),
            ..MachineConfig::default()
        },
    );
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    let sfx = &result.suffixes[0];
    let vals = &sfx.inputs[&0];
    assert_eq!(vals.len(), 1);
    assert_eq!(vals[0] % 7, 3, "inferred input must satisfy the crash path");
}

#[test]
fn data_race_found_across_threads() {
    // Thread 1 sets the flag without synchronization; main asserts it is
    // still zero. The suffix must include the racing write, and the
    // root-cause analyzer must classify it as a race.
    let src = r#"
        global flag 8
        global ready 8
        func worker(1) {
        entry:
            store 1, [r0]
            halt
        }
        func main() {
        entry:
            addr r0, flag
            spawn r1, worker, r0
            jmp wait
        wait:
            load r2, [r0]
            eq r3, r2, 0
            assert r3, "flag overwritten concurrently"
            jmp wait
        }
    "#;
    let (p, d) = crash_with(
        src,
        MachineConfig {
            sched: SchedPolicy::RoundRobin { quantum: 3 },
            ..MachineConfig::default()
        },
    );
    assert!(matches!(d.fault, Fault::AssertFailed { .. }));
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    // At least one replaying suffix must contain the racing write.
    let mut found_race = false;
    for sfx in &result.suffixes {
        if !replay_suffix(&p, &d, sfx).reproduced {
            continue;
        }
        let rc = analyze_root_cause(&p, &d, sfx);
        if rc.is_concurrency() {
            found_race = true;
            break;
        }
    }
    assert!(found_race, "no suffix exposed the racing write");
}

#[test]
fn hardware_register_corruption_detected() {
    let (p, mut d) = crash(
        r#"
        func main() {
        entry:
            mov r0, 5
            add r1, r0, 1
            eq r2, r1, 0
            assert r2, "r1 must be zero"
            halt
        }
        "#,
    );
    // Sanity: the genuine dump is a software bug.
    assert_eq!(
        hardware_verdict(&p, &d, &ResConfig::default()),
        HwVerdict::SoftwareBug
    );
    // Corrupt the computed register r1 in the dump: now no execution
    // explains it (the paper's miscomputed-addition example).
    mvm_core::corrupt_register_at(&mut d, 0, mvm_isa::Reg(1), 0xdead_0000);
    let v = hardware_verdict(&p, &d, &ResConfig::default());
    match v {
        HwVerdict::HardwareSuspected { kind, .. } => {
            assert_eq!(
                kind,
                res_core::hwerr::HwKind::CpuError {
                    reg: mvm_isa::Reg(1)
                }
            );
        }
        other => panic!("expected hardware verdict, got {other:?}"),
    }
}

#[test]
fn hardware_memory_bit_flip_detected() {
    let (p, mut d) = crash(
        r#"
        global v 8
        func main() {
        entry:
            addr r0, v
            store 4, [r0]
            jmp next
        next:
            load r1, [r0]
            eq r2, r1, 0
            assert r2, "v must be zero"
            halt
        }
        "#,
    );
    assert_eq!(
        hardware_verdict(&p, &d, &ResConfig::default()),
        HwVerdict::SoftwareBug
    );
    // Flip a bit in the stored word: all paths write 4, but the dump
    // says 5 — the paper's memory-error example.
    let g = mvm_isa::layout::GLOBAL_BASE;
    mvm_core::flip_memory_bit_at(&mut d, g, 0);
    let v = hardware_verdict(&p, &d, &ResConfig::default());
    match v {
        HwVerdict::HardwareSuspected { kind, .. } => {
            assert_eq!(kind, res_core::hwerr::HwKind::MemoryError { addr: g });
        }
        other => panic!("expected hardware verdict, got {other:?}"),
    }
}

#[test]
fn deadlock_reproduced() {
    let (p, d) = crash(
        r#"
        global m1 8
        global m2 8
        func worker(1) {
        entry:
            addr r1, m2
            lock r1
            addr r2, m1
            lock r2
            halt
        }
        func main() {
        entry:
            addr r1, m1
            lock r1
            spawn r3, worker, 0
            addr r2, m2
            lock r2
            halt
        }
        "#,
    );
    assert!(matches!(d.fault, Fault::Deadlock { .. }));
    let result = synthesize_and_replay(&p, &d, ResConfig::default());
    let rc = analyze_root_cause(&p, &d, &result.suffixes[0]);
    assert!(matches!(rc, RootCause::Deadlock { .. }), "{rc:?}");
}

#[test]
fn replay_is_deterministic() {
    let (p, d) = crash(
        r#"
        global g 8 = 9
        func main() {
        entry:
            addr r0, g
            load r1, [r0]
            sub r1, r1, 9
            divu r2, 4, r1
            halt
        }
        "#,
    );
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    let sfx = &result.suffixes[0];
    for _ in 0..5 {
        let rep = replay_suffix(&p, &d, sfx);
        assert!(rep.reproduced, "{rep:?}");
        assert_eq!(rep.replay_fault, Some(Fault::DivByZero));
    }
}

/// `replay_and_diagnose` reads `reproduced` off a traced replay where
/// triage used to run a plain one, and `record`/`verify` read it off an
/// observed one, so neither tracing nor observing may change what a
/// replay reports: on the golden DivByZero crash and on one dump of
/// every generated bug class, a `TraceLevel::Full` replay and an
/// observed replay of every synthesized suffix report exactly what a
/// plain replay does, and verifying a suffix against its own observed
/// events finds no divergence.
#[test]
fn traced_replay_reports_what_a_plain_replay_does() {
    use mvm_machine::TraceLevel;
    use res_core::replay::{replay_observed, replay_with_trace};
    use res_workloads::gen::{collect_failures, corpus_specs, generate, GenClass};
    use res_workloads::{build as build_workload, run_to_failure, BugKind, WorkloadParams};

    let golden = build_workload(
        BugKind::DivByZero,
        WorkloadParams {
            prefix_iters: 2,
            hash_rounds: 1,
        },
    );
    let dump = (0..500)
        .find_map(|s| run_to_failure(&golden, s))
        .map(|m| Coredump::capture(&m))
        .expect("DivByZero workload must fault");
    let mut cases = vec![("golden div-by-zero", golden, dump)];
    for spec in corpus_specs(&GenClass::ALL, GenClass::ALL.len(), 7, 1) {
        let gp = generate(spec);
        for failure in collect_failures(&gp, 1) {
            cases.push((spec.class.name(), gp.program.clone(), failure.dump));
        }
    }
    let mut compared = 0;
    for (name, p, d) in &cases {
        let result = ResEngine::new(p, ResConfig::default()).synthesize(d);
        for (i, sfx) in result.suffixes.iter().enumerate() {
            let plain = replay_suffix(p, d, sfx);
            let (traced, _) = replay_with_trace(p, d, sfx, TraceLevel::Full);
            let (observed, events, _) = replay_observed(p, d, sfx, None);
            for (how, rep) in [("traced", &traced), ("observed", &observed)] {
                let at = format!("{name}, suffix {i}, {how}");
                assert_eq!(rep.reproduced, plain.reproduced, "{at}");
                assert_eq!(rep.fault_matches, plain.fault_matches, "{at}");
                assert_eq!(rep.diff, plain.diff, "{at}");
                assert_eq!(rep.replay_fault, plain.replay_fault, "{at}");
                assert_eq!(rep.steps_executed, plain.steps_executed, "{at}");
            }
            let (_, _, divergence) = replay_observed(p, d, sfx, Some(&events));
            assert_eq!(divergence, None, "{name}, suffix {i}, verified");
            compared += 1;
        }
    }
    assert!(
        compared >= cases.len(),
        "only {compared} suffixes over {} dumps",
        cases.len()
    );
}
