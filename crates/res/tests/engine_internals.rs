//! Focused tests of the engine's internals: the hypothesis executor's
//! havoc/restart discipline, breadcrumb pruning, the debugging aids, and
//! the ablation modes.

use mvm_core::Coredump;
use mvm_isa::asm::assemble;
use mvm_isa::{Loc, Program, Reg};
use mvm_machine::{Fault, InputSource, Machine, MachineConfig, Outcome};
use mvm_symbolic::SolverSession;
use res_core::blockexec::{run_hypothesis, EndPoint, HypSpec};
use res_core::debugaid;
use res_core::{replay_suffix, ResConfig, ResEngine, Snapshot, SymCtx, Verdict};

fn crash(src: &str, config: MachineConfig) -> (Program, Coredump) {
    let p = assemble(src).unwrap();
    let mut m = Machine::new(&p, config);
    let o = m.run();
    assert!(matches!(o, Outcome::Faulted { .. }), "{o:?}");
    let dump = Coredump::capture(&m);
    (p, dump)
}

/// Direct `run_hypothesis` exercise: the partial range of a faulting
/// block, with a read-before-write conflict that forces the restart
/// discipline (`load` then `store` to the same cell).
#[test]
fn hypothesis_executor_handles_read_then_write() {
    let (p, d) = crash(
        r#"
        global g 8 = 5
        func main() {
        entry:
            addr r0, g
            load r1, [r0]
            add r1, r1, 1
            store r1, [r0]
            mov r2, 0
            divu r3, 1, r2
            halt
        }
        "#,
        MachineConfig::default(),
    );
    let snap = Snapshot::from_coredump(&d);
    let mut ctx = SymCtx::new();
    let solver = SolverSession::new();
    let pc = d.fault_pc();
    let spec = HypSpec {
        program: &p,
        tid: 0,
        frame_depth: 0,
        start: Loc::block_start(pc.func, pc.block),
        end: EndPoint {
            depth_delta: 0,
            loc: pc,
        },
        spost_regs: &snap.thread(0).unwrap().frames[0].regs,
        callee_entry_regs: None,
        callee_ret_reg: None,
        dump_allocs: &d.heap_allocs,
        later_allocs: 0,
        base_constraints: &[],
        max_steps: 128,
        skip_compat: false,
    };
    let outcome = run_hypothesis(&spec, &snap, &mut ctx, &solver, 0).expect("feasible");
    // The store's cell is havocked in Spre.
    assert_eq!(outcome.spre_cells.len(), 1);
    let g_addr = mvm_isa::layout::GLOBAL_BASE;
    assert_eq!(outcome.spre_cells[0].0, g_addr);
    // The constraints pin the havocked pre-value: σ + 1 == 6 → σ = 5.
    let exprs: Vec<_> = outcome.constraints.iter().map(|t| t.expr.clone()).collect();
    let model = solver.solve(&exprs).expect("sat");
    let sym = outcome.spre_cells[0].2.as_sym().unwrap();
    assert_eq!(model.get(sym), Some(5));
    // Read and write sets include the global.
    assert!(outcome.reads.iter().any(|&(a, _)| a == g_addr));
    assert!(outcome.writes.iter().any(|&(a, _)| a == g_addr));
}

/// The executor rejects a hypothesis whose branch cannot reach the end
/// block.
#[test]
fn hypothesis_executor_rejects_unreachable_end() {
    let (p, d) = crash(
        r#"
        func main() {
        entry:
            mov r0, 1
            br r0, a, b
        a:
            jmp c
        b:
            jmp c
        c:
            mov r1, 0
            divu r2, 1, r1
            halt
        }
        "#,
        MachineConfig::default(),
    );
    let snap = Snapshot::from_coredump(&d);
    let mut ctx = SymCtx::new();
    let solver = SolverSession::new();
    let main = p.func_by_name("main").unwrap();
    let a = p.func(main).block_by_label("a").unwrap();
    // Hypothesis: block `a` executed immediately before... block `b`?
    // Structurally impossible (a jumps to c).
    let b = p.func(main).block_by_label("b").unwrap();
    let spec = HypSpec {
        program: &p,
        tid: 0,
        frame_depth: 0,
        start: Loc::block_start(main, a),
        end: EndPoint {
            depth_delta: 0,
            loc: Loc::block_start(main, b),
        },
        spost_regs: &snap.thread(0).unwrap().frames[0].regs,
        callee_entry_regs: None,
        callee_ret_reg: None,
        dump_allocs: &d.heap_allocs,
        later_allocs: 0,
        base_constraints: &[],
        max_steps: 128,
        skip_compat: false,
    };
    assert!(run_hypothesis(&spec, &snap, &mut ctx, &solver, 0).is_err());
}

/// Error-log breadcrumbs: values logged inside the suffix must match the
/// dump's retained log, and mismatching paths are pruned.
#[test]
fn error_log_breadcrumbs_prune_and_constrain() {
    let src = r#"
        func main() {
        entry:
            input r0, net
            remu r1, r0, 2
            br r1, odd, even
        odd:
            output 111, log
            jmp boom
        even:
            output 222, log
            jmp boom
        boom:
            mov r2, 0
            divu r3, 1, r2
            halt
        }
    "#;
    let (p, d) = crash(
        src,
        MachineConfig {
            input: InputSource::Fixed(3), // odd → logs 111
            ..MachineConfig::default()
        },
    );
    assert_eq!(d.error_log.len(), 1);
    assert_eq!(d.error_log[0].value, 111);
    let engine = ResEngine::new(
        &p,
        ResConfig::builder()
            .use_error_log(true)
            .max_suffixes(8)
            .build(),
    );
    let result = engine.synthesize(&d);
    assert_eq!(result.verdict, Verdict::SuffixFound);
    let main = p.func_by_name("main").unwrap();
    let even = p.func(main).block_by_label("even").unwrap();
    // No surviving suffix may pass through `even` (it would have logged
    // 222).
    for sfx in &result.suffixes {
        assert!(
            !sfx.steps.iter().any(|s| s.start.block == even),
            "suffix passed through the wrong log branch"
        );
    }
    assert!(result.stats.rejected_log > 0, "{:?}", result.stats);
}

/// LBR breadcrumbs reject candidates whose transfers contradict the
/// recorded ring.
#[test]
fn lbr_prunes_wrong_predecessors() {
    let src = r#"
        global which 8 = 1
        func main() {
        entry:
            addr r0, which
            load r1, [r0]
            store 0, [r0]
            br r1, via_a, via_b
        via_a:
            nop
            jmp boom
        via_b:
            nop
            jmp boom
        boom:
            mov r2, 0
            divu r3, 1, r2
            halt
        }
    "#;
    // `which` is consumed and zeroed, so the dump memory cannot
    // disambiguate the branch — only the LBR can.
    let (p, d) = crash(src, MachineConfig::default());
    assert!(!d.lbr.is_empty());
    let without = ResEngine::new(
        &p,
        ResConfig::builder().use_lbr(false).max_suffixes(8).build(),
    )
    .synthesize(&d);
    let with = ResEngine::new(
        &p,
        ResConfig::builder().use_lbr(true).max_suffixes(8).build(),
    )
    .synthesize(&d);
    let via_b = p
        .func(p.func_by_name("main").unwrap())
        .block_by_label("via_b")
        .unwrap();
    // Without hints, some suffix wanders through via_b (both feasible);
    // with the LBR, none does.
    assert!(with
        .suffixes
        .iter()
        .all(|s| !s.steps.iter().any(|st| st.start.block == via_b)));
    assert!(with.stats.rejected_lbr > 0 || without.suffixes.len() > with.suffixes.len());
}

/// §3.3 `state_at`: replay to a PC and inspect registers and memory.
#[test]
fn state_at_answers_hypothesis_queries() {
    let (p, d) = crash(
        r#"
        global g 8
        func main() {
        entry:
            addr r0, g
            mov r1, 41
            store r1, [r0]
            jmp next
        next:
            add r1, r1, 1
            mov r2, 0
            divu r3, r1, r2
            halt
        }
        "#,
        MachineConfig::default(),
    );
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    let sfx = result
        .suffixes
        .iter()
        .find(|s| replay_suffix(&p, &d, s).reproduced)
        .expect("reproducing suffix");
    let main = p.func_by_name("main").unwrap();
    let next = p.func(main).block_by_label("next").unwrap();
    // "What was the state when execution reached `next`?"
    let g_addr = mvm_isa::layout::GLOBAL_BASE;
    let (regs, mem) = debugaid::state_at(&p, &d, sfx, 0, Loc::block_start(main, next), &[g_addr])
        .expect("pc reached");
    assert_eq!(regs[Reg(1).index()], 41);
    assert_eq!(mem, vec![(g_addr, 41)]);
    // A PC the suffix never visits yields None.
    assert!(debugaid::state_at(&p, &d, sfx, 7, Loc::block_start(main, next), &[]).is_none());
}

/// Preemption query over a racy suffix.
#[test]
fn preemption_query_detects_interleaving() {
    let src = r#"
        global c 8
        func w(1) {
        entry:
            load r1, [r0]
            add r1, r1, 1
            store r1, [r0]
            halt
        }
        func main() {
        entry:
            addr r0, c
            spawn r1, w, r0
            jmp readback
        readback:
            load r2, [r0]
            jmp check
        check:
            load r3, [r0]
            eq r4, r2, 0
            ne r5, r3, 0
            and r6, r4, r5
            eq r7, r6, 0
            assert r7, "value changed between reads"
            halt
        }
    "#;
    // The assertion fires only when the first read saw 0 and the second
    // saw non-zero: the worker's write landed strictly between them.
    let (p, d) = (0..500)
        .find_map(|seed| {
            let p = assemble(src).unwrap();
            let mut m = Machine::new(
                &p,
                MachineConfig {
                    sched: mvm_machine::SchedPolicy::Random {
                        seed,
                        switch_per_mille: 500,
                    },
                    ..MachineConfig::default()
                },
            );
            let dump = matches!(m.run(), Outcome::Faulted { .. }).then(|| Coredump::capture(&m))?;
            Some((p, dump))
        })
        .expect("race manifests");
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    for sfx in &result.suffixes {
        if !replay_suffix(&p, &d, sfx).reproduced {
            continue;
        }
        if sfx.threads().len() >= 2 {
            // The victim (main) touched `c` in readback and check with
            // the worker scheduled in between.
            let g = mvm_isa::layout::GLOBAL_BASE;
            if debugaid::was_preempted_between_accesses(sfx, 0, g) {
                return; // Query answered affirmatively, as expected.
            }
        }
    }
    panic!("no suffix exhibited the preemption");
}

/// The A2 minidump mode is strictly weaker: on the Figure-1 style
/// program it cannot discard the wrong predecessor.
#[test]
fn opaque_memory_loses_disambiguation() {
    let (p, d) = crash(
        r#"
        global x 8
        global sel 8 = 1
        func main() {
        entry:
            addr r0, sel
            load r1, [r0]
            addr r2, x
            br r1, p1, p2
        p1:
            store 1, [r2]
            jmp m
        p2:
            store 2, [r2]
            jmp m
        m:
            mov r3, 0
            divu r4, 1, r3
            halt
        }
        "#,
        MachineConfig::default(),
    );
    let full = ResEngine::new(&p, ResConfig::builder().max_suffixes(8).build()).synthesize(&d);
    let opaque = ResEngine::new(
        &p,
        ResConfig::builder()
            .opaque_memory(true)
            .max_suffixes(8)
            .build(),
    )
    .synthesize(&d);
    let main = p.func_by_name("main").unwrap();
    let p2 = p.func(main).block_by_label("p2").unwrap();
    let full_via_p2 = full
        .suffixes
        .iter()
        .filter(|s| s.steps.iter().any(|st| st.start.block == p2))
        .count();
    let opaque_via_p2 = opaque
        .suffixes
        .iter()
        .filter(|s| s.steps.iter().any(|st| st.start.block == p2))
        .count();
    assert_eq!(full_via_p2, 0, "the full dump discards p2");
    assert!(opaque_via_p2 > 0, "minidump mode cannot discard p2");
    assert!(opaque.suffixes.iter().all(|s| s.approximate));
}

/// Locks inside the suffix: the synthesized window re-acquires and
/// re-releases, and replay still reproduces byte-for-byte.
#[test]
fn lock_protected_suffix_replays() {
    let (p, d) = crash(
        r#"
        global m 8
        global v 8
        func main() {
        entry:
            addr r0, m
            addr r1, v
            lock r0
            load r2, [r1]
            add r2, r2, 7
            store r2, [r1]
            unlock r0
            jmp check
        check:
            load r3, [r1]
            remu r4, r3, 7
            divu r5, 1, r4
            halt
        }
        "#,
        MachineConfig::default(),
    );
    assert_eq!(d.fault, Fault::DivByZero);
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    assert_eq!(result.verdict, Verdict::SuffixFound);
    let ok = result
        .suffixes
        .iter()
        .any(|s| replay_suffix(&p, &d, s).reproduced);
    assert!(ok);
}

/// Multi-level call stacks: fault three frames deep, reversed through
/// two function entries using the dump's stack.
#[test]
fn deep_call_stack_reversal() {
    let (p, d) = crash(
        r#"
        func inner(1) {
        entry:
            divu r1, 100, r0
            ret r1
        }
        func middle(1) {
        entry:
            sub r1, r0, 4
            call r2 = inner(r1), done
        done:
            ret r2
        }
        func main() {
        entry:
            mov r0, 4
            call r1 = middle(r0), cont
        cont:
            halt
        }
        "#,
        MachineConfig::default(),
    );
    assert_eq!(d.call_stack().len(), 3);
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    assert_eq!(result.verdict, Verdict::SuffixFound, "{:?}", result.stats);
    let sfx = result
        .suffixes
        .iter()
        .find(|s| replay_suffix(&p, &d, s).reproduced)
        .expect("reproducing suffix");
    // The suffix spans at least two frames' worth of steps.
    assert!(sfx.len() >= 2);
}
