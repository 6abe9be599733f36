//! Property-based tests over the core invariants, on the in-repo
//! `proptest-mini` harness. Case counts match the original proptest
//! setup (256 per property; 8 for the expensive end-to-end one), and a
//! failure panics with the master seed so any counterexample reproduces
//! via `RES_PROP_SEED=<seed> cargo test`.

use proptest_mini::{
    any_u64, any_u8, check, pair, prop_assert, prop_assert_eq, triple, u32_range, u64_range,
    usize_range, vec_of, Config,
};

use res_debugger::isa::{BinOp, UnOp};
use res_debugger::machine::{Machine, MachineConfig, Memory, Outcome, SchedPolicy};
use res_debugger::prelude::*;
use res_debugger::symbolic::{
    Expr, ExprRef, Fixpoint, Interval, Model, SolveResult, Solver, SolverSession,
};

/// The expression simplifier never changes semantics: evaluating the
/// simplified tree equals evaluating the original operation.
#[test]
fn simplifier_preserves_binop_semantics() {
    check(
        "simplifier_preserves_binop_semantics",
        &Config::new(),
        &triple(any_u64(), any_u64(), usize_range(0, 17)),
        |&(a, b, op_idx)| {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::DivU,
                BinOp::RemU,
                BinOp::And,
                BinOp::Or,
                BinOp::Xor,
                BinOp::Shl,
                BinOp::Shr,
                BinOp::Sar,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::LtU,
                BinOp::LeU,
                BinOp::LtS,
                BinOp::LeS,
            ];
            let op = ops[op_idx];
            let e = Expr::bin(op, Expr::konst(a), Expr::konst(b));
            match op.eval(a, b) {
                Some(v) => prop_assert_eq!(e.as_const(), Some(v)),
                None => prop_assert!(e.as_const().is_none()),
            }
            Ok(())
        },
    );
}

/// Simplification identities hold for symbolic operands under any
/// witness.
#[test]
fn simplifier_identities_sound() {
    check(
        "simplifier_identities_sound",
        &Config::new(),
        &pair(any_u64(), any_u64()),
        |&(x, c)| {
            let sym = Expr::sym(0);
            let lookup = |_: u32| Some(x);
            for (e, expected) in [
                (
                    Expr::bin(BinOp::Add, sym.clone(), Expr::konst(c)),
                    x.wrapping_add(c),
                ),
                (Expr::bin(BinOp::Xor, sym.clone(), sym.clone()), 0),
                (Expr::bin(BinOp::Sub, sym.clone(), sym.clone()), 0),
                (Expr::un(UnOp::Neg, Expr::un(UnOp::Neg, sym.clone())), x),
            ] {
                prop_assert_eq!(e.eval(&lookup), Some(expected));
            }
            Ok(())
        },
    );
}

/// A Sat answer from the solver always comes with a model that
/// satisfies every constraint.
#[test]
fn solver_models_are_witnesses() {
    check(
        "solver_models_are_witnesses",
        &Config::new(),
        &triple(any_u64(), any_u64(), u64_range(1, 1000)),
        |&(target, addend, bound)| {
            let cs = vec![
                Expr::bin(
                    BinOp::Eq,
                    Expr::bin(BinOp::Add, Expr::sym(0), Expr::konst(addend)),
                    Expr::konst(target),
                ),
                Expr::bin(BinOp::LtU, Expr::sym(1), Expr::konst(bound)),
            ];
            let solver = Solver::new();
            if let SolveResult::Sat(m) = solver.check(&cs) {
                for c in &cs {
                    prop_assert_eq!(m.eval_total(c).map(|v| v != 0), Some(true));
                }
            } else {
                // x + addend == target is always solvable.
                prop_assert!(false, "must be sat");
            }
            Ok(())
        },
    );
}

/// Symbols the soundness properties draw from.
const SOUNDNESS_SYMS: u32 = 3;

/// One constraint of a soundness case: `(template, (σa, σb), constant)`.
type ConstraintSpec = (usize, (usize, usize), u64);

/// Random constraint sets over [`SOUNDNESS_SYMS`] symbols and small
/// constants, built through the smart constructors as the engine builds
/// them. The templates cover what propagation absorbs (bindings,
/// endpoint and interior `!=`, unsigned bounds, negated comparisons it
/// rewrites) and what it leaves to enumeration.
fn constraint_specs() -> proptest_mini::Gen<Vec<ConstraintSpec>> {
    let sym = usize_range(0, SOUNDNESS_SYMS as usize);
    vec_of(
        triple(usize_range(0, 16), pair(sym.clone(), sym), u64_range(0, 12)),
        1,
        7,
    )
}

fn spec_constraint(&(template, (a, b), c): &ConstraintSpec) -> ExprRef {
    let (a, b) = (Expr::sym(a as u32), Expr::sym(b as u32));
    // Mostly small constants, so holes, endpoints and bindings collide.
    let k = Expr::konst(match c {
        10 => u64::MAX,
        11 => 1 << 63,
        c => c,
    });
    let bin = Expr::bin;
    let not = |e| bin(BinOp::Eq, e, Expr::konst(0));
    match template {
        0 => bin(BinOp::Eq, a, k),
        1 => bin(BinOp::Ne, a, k),
        2 => bin(BinOp::LtU, a, k),
        3 => bin(BinOp::LtU, k, a),
        4 => bin(BinOp::LeU, a, k),
        5 => bin(BinOp::LeU, k, a),
        6 => not(bin(BinOp::LtU, a, b)),
        7 => not(bin(BinOp::Eq, a, b)),
        8 => not(bin(BinOp::LtU, a, k)),
        9 => not(bin(BinOp::LtS, a, b)),
        10 => bin(BinOp::Eq, bin(BinOp::Add, a, b), k),
        11 => bin(BinOp::LtU, a, b),
        12 => bin(BinOp::Eq, bin(BinOp::Add, a, k), b),
        13 => a,
        14 => bin(BinOp::Eq, bin(BinOp::Mul, a, b), k),
        _ => not(bin(BinOp::LeS, k, a)),
    }
}

fn satisfies(cs: &[ExprRef], value: impl Fn(u32) -> u64) -> bool {
    cs.iter()
        .all(|c| c.eval(&|s| Some(value(s))).is_some_and(|v| v != 0))
}

/// Every `Sat` model satisfies every input constraint under
/// `Model::eval_total`, including the negated comparisons propagation
/// rewrites and the interior `!=` a convex interval cannot hold.
#[test]
fn solver_soundness_sat_models_satisfy_every_constraint() {
    check(
        "solver_soundness_sat_models_satisfy_every_constraint",
        &Config::new(),
        &constraint_specs(),
        |specs| {
            let cs: Vec<ExprRef> = specs.iter().map(spec_constraint).collect();
            if let SolveResult::Sat(m) = Solver::new().check(&cs) {
                for c in &cs {
                    prop_assert!(
                        m.eval_total(c).is_some_and(|v| v != 0),
                        "model {m:?} violates {c} in {cs:?}"
                    );
                }
            }
            Ok(())
        },
    );
}

/// With every symbol bounded `<u 8`, an `Unsat` answer is a proof:
/// brute force over all assignments finds no witness.
#[test]
fn solver_soundness_unsat_confirmed_by_brute_force() {
    check(
        "solver_soundness_unsat_confirmed_by_brute_force",
        &Config::new(),
        &constraint_specs(),
        |specs| {
            let mut cs: Vec<ExprRef> = specs.iter().map(spec_constraint).collect();
            for s in 0..SOUNDNESS_SYMS {
                cs.push(Expr::bin(BinOp::LtU, Expr::sym(s), Expr::konst(8)));
            }
            if Solver::new().check(&cs).is_unsat() {
                let witness =
                    (0..8u64.pow(SOUNDNESS_SYMS)).find(|&n| satisfies(&cs, |s| n >> (3 * s) & 7));
                prop_assert!(
                    witness.is_none(),
                    "Unsat, but {:?} satisfies {cs:?}",
                    witness.map(|n| (0..SOUNDNESS_SYMS)
                        .map(|s| n >> (3 * s) & 7)
                        .collect::<Vec<_>>())
                );
            }
            Ok(())
        },
    );
}

/// Symbols the fixpoint properties' plain constraints draw from.
const FIXPOINT_SYMS: usize = 6;

/// Constants the fixpoint properties draw from: the interval edges 0
/// and `u64::MAX`, and mid-range values small enough to collide.
const FIXPOINT_CONSTS: [u64; 8] = [0, 1, 2, 3, 5, 7, u64::MAX - 1, u64::MAX];

/// Links in each half of the equality chain: from scratch the whole
/// chain needs more than the solver's 32 propagation rounds, each half
/// alone fewer.
const CHAIN_HALF: u32 = 20;

/// A parent→child chain: each step's constraint specs, then which
/// special case it carries (0 none, 1 the example, 2 the equality
/// chain, 3 a folded `!=`) and at which step.
type ChainSpec = (Vec<Vec<ConstraintSpec>>, (usize, usize));

/// Chains of 3–8 steps, each adding 1–4 constraints.
fn fixpoint_chains() -> proptest_mini::Gen<ChainSpec> {
    let sym = usize_range(0, FIXPOINT_SYMS);
    let spec = triple(
        usize_range(0, 22),
        pair(sym.clone(), sym),
        u64_range(0, FIXPOINT_CONSTS.len() as u64),
    );
    pair(
        vec_of(vec_of(spec, 1, 5), 3, 9),
        pair(usize_range(0, 4), usize_range(0, 3)),
    )
}

/// The two parts of a special case, over symbols no generated
/// constraint uses. The example (DESIGN §4) is `[σ11 != σ12,
/// σ13 <=u σ11, σ12 == σ14, σ14 == 5, σ13 == 5]`, where the `!=`
/// cuts σ11's interval endpoint, then `σ12 == 5`, after which it
/// arrives while 5 is interior. The chain is a 40-link equality chain
/// `σ101 == σ100, …, σ140 == σ139` from `σ100 == 7`, newest link first
/// so propagation binds one link per round, in two halves. The folded
/// `!=` binds `σ23 = 7`, then adds `σ21 != σ20, σ23 != 7`: from the
/// parent's bindings the second folds to false, while from scratch it
/// arrives before σ23 is bound, as a hole, and the first is enumerated.
fn special_parts(kind: usize) -> [Vec<ExprRef>; 2] {
    let bin = Expr::bin;
    let (sym, konst) = (Expr::sym, Expr::konst);
    let link = |i: u32| bin(BinOp::Eq, sym(100 + i + 1), sym(100 + i));
    match kind {
        1 => [
            vec![
                bin(BinOp::Ne, sym(11), sym(12)),
                bin(BinOp::LeU, sym(13), sym(11)),
                bin(BinOp::Eq, sym(12), sym(14)),
                bin(BinOp::Eq, sym(14), konst(5)),
                bin(BinOp::Eq, sym(13), konst(5)),
            ],
            vec![bin(BinOp::Eq, sym(12), konst(5))],
        ],
        2 => [
            (0..CHAIN_HALF)
                .rev()
                .map(link)
                .chain([bin(BinOp::Eq, sym(100), konst(7))])
                .collect(),
            (CHAIN_HALF..2 * CHAIN_HALF).rev().map(link).collect(),
        ],
        3 => [
            vec![bin(
                BinOp::Eq,
                bin(BinOp::Add, sym(23), konst(u64::MAX - 1)),
                konst(5),
            )],
            vec![
                bin(BinOp::Ne, sym(21), sym(20)),
                bin(BinOp::Ne, sym(23), konst(7)),
            ],
        ],
        _ => [Vec::new(), Vec::new()],
    }
}

/// Builds a chain's constraint lists, one per step, each extending the
/// last. A special case's first part opens its step, and its second
/// part is a step of its own right after.
fn chain_lists((steps, (kind, at)): &ChainSpec) -> Vec<Vec<ExprRef>> {
    let bin = Expr::bin;
    let konst = Expr::konst;
    let not = |e| bin(BinOp::Eq, e, konst(0));
    let [first, second] = special_parts(*kind);
    let mut all = Vec::new();
    let mut lists = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        if i == *at {
            all.extend(first.iter().cloned());
        }
        for &(template, (a, b), c) in step {
            let (a, b) = (Expr::sym(a as u32), Expr::sym(b as u32));
            let k = konst(FIXPOINT_CONSTS[c as usize]);
            all.push(match template {
                0 => bin(BinOp::Eq, a, k),
                1 => bin(BinOp::Eq, bin(BinOp::Add, a, k), konst(5)),
                2 => bin(BinOp::Eq, bin(BinOp::Xor, a, k), konst(3)),
                3 => bin(BinOp::Eq, bin(BinOp::Mul, a, konst(2 * c + 1)), k),
                4 => bin(BinOp::Eq, bin(BinOp::Mul, a, konst(2 * c + 2)), k),
                5 => bin(BinOp::Eq, bin(BinOp::And, a, k), konst(c & 3)),
                6 => bin(BinOp::LtU, a, k),
                7 => bin(BinOp::LtU, k, a),
                8 => bin(BinOp::LeU, a, k),
                9 => bin(BinOp::LeU, k, a),
                10 => bin(BinOp::LtU, a, b),
                11 => bin(BinOp::LeU, a, b),
                12 => bin(BinOp::Ne, a, k),
                13 => bin(BinOp::Ne, a, b),
                14 => not(bin(BinOp::LtU, a, b)),
                15 => not(bin(BinOp::Eq, a, b)),
                16 => not(bin(BinOp::LtU, a, k)),
                17 => not(bin(BinOp::LeU, a, k)),
                18 => bin(BinOp::Eq, a, b),
                19 => bin(BinOp::Eq, bin(BinOp::Add, a, k), b),
                // A contradiction on its own.
                _ => bin(BinOp::LtU, a, konst(0)),
            });
        }
        lists.push(all.clone());
        if i == *at && !second.is_empty() {
            all.extend(second.iter().cloned());
            lists.push(all.clone());
        }
    }
    lists
}

/// A check that starts from its parent's solver fixpoint answers
/// exactly what a from-scratch check of the whole list does: at every
/// step of a generated chain, `Solver::check_after` given the previous
/// step's fixpoint equals `Solver::check_classified` on the verdict,
/// model, assignment count and portable flag. The chains cover what
/// makes a fixpoint unusable: holes and mid-range `!=`, residual
/// constraints, contradictions, and chains that reach the round cap.
#[test]
fn solver_fixpoint_starts_answer_like_from_scratch() {
    check(
        "solver_fixpoint_starts_answer_like_from_scratch",
        &Config::new(),
        &fixpoint_chains(),
        |chain| {
            let solver = Solver::new();
            let mut parent = Fixpoint::default();
            for all in chain_lists(chain) {
                let (result, used, portable, fixpoint) = solver.check_after(&all, &parent);
                let got = (result, used, portable);
                let want = solver.check_classified(&all);
                prop_assert!(got == want, "{got:?} != {want:?} on {all:?}");
                parent = fixpoint;
            }
            Ok(())
        },
    );
}

/// A session that checks each step from its parent's fixpoint counts
/// and exports exactly what a session that only calls `check` does,
/// with and without an absorbed store (whose hits hand out unsettled
/// fixpoints). Each step is asked twice, as the search asks a node's
/// list again when it finalizes the node.
#[test]
fn solver_fixpoint_sessions_count_like_check() {
    check(
        "solver_fixpoint_sessions_count_like_check",
        &Config::with_cases(128),
        &pair(fixpoint_chains(), usize_range(0, 2)),
        |(chain, mode)| {
            let lists = chain_lists(chain);
            let (incremental, reference) = (SolverSession::new(), SolverSession::new());
            if *mode == 1 {
                // The same queries shifted by a monotone renaming, so
                // their portable answers hit as store entries.
                let origin = SolverSession::new();
                for all in &lists[..lists.len() / 2] {
                    let shift = |s| Some(Expr::sym(s + 7));
                    let renamed: Vec<ExprRef> = all.iter().map(|c| c.substitute(&shift)).collect();
                    origin.check(&renamed);
                }
                let export = origin.export_portable();
                incremental.absorb_from(export.iter());
                reference.absorb_from(export.iter());
            }
            let mut parent = Fixpoint::default();
            for all in &lists {
                let (result, fixpoint) = incremental.check_after(all, &parent);
                let want = reference.check(all);
                prop_assert!(result == want, "{result:?} != {want:?} on {all:?}");
                let (again, _) = incremental.check_after(all, &fixpoint);
                prop_assert_eq!(again, reference.check(all));
                parent = fixpoint;
            }
            prop_assert_eq!(incremental.stats(), reference.stats());
            prop_assert_eq!(
                incremental.export_portable().entries,
                reference.export_portable().entries
            );
            Ok(())
        },
    );
}

/// The memoizing session is transparent: over random constraint sets,
/// a cached answer always equals what a fresh solver would say, and
/// re-asking the same set is a cache hit.
#[test]
fn solver_session_cache_is_transparent() {
    check(
        "solver_session_cache_is_transparent",
        &Config::new(),
        &triple(vec_of(any_u64(), 1, 4), any_u64(), usize_range(0, 5)),
        |(consts, x, op_idx)| {
            let ops = [
                BinOp::Eq,
                BinOp::Ne,
                BinOp::LtU,
                BinOp::LeU,
                BinOp::LtS,
                BinOp::LeS,
            ];
            let cs: Vec<_> = consts
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    Expr::bin(
                        ops[*op_idx],
                        Expr::bin(BinOp::Add, Expr::sym((i % 2) as u32), Expr::konst(c)),
                        Expr::konst(*x),
                    )
                })
                .collect();
            let session = SolverSession::new();
            let first = session.check(&cs);
            let second = session.check(&cs);
            let fresh = Solver::new().check(&cs);
            prop_assert_eq!(format!("{first:?}"), format!("{fresh:?}"));
            prop_assert_eq!(format!("{second:?}"), format!("{fresh:?}"));
            prop_assert!(session.stats().cache_hits >= 1);
            Ok(())
        },
    );
}

/// Interval refinement never *adds* values: refined ⊆ original.
#[test]
fn interval_refinement_shrinks() {
    check(
        "interval_refinement_shrinks",
        &Config::new(),
        &triple(any_u64(), any_u64(), any_u64()),
        |&(lo, hi, v)| {
            let iv = Interval::new(lo.min(hi), lo.max(hi));
            for refined in [
                iv.refine_lt(v),
                iv.refine_le(v),
                iv.refine_gt(v),
                iv.refine_ge(v),
                iv.refine_ne(v),
            ] {
                prop_assert!(refined.count() <= iv.count());
                if !refined.is_empty() {
                    prop_assert!(iv.contains(refined.lo) && iv.contains(refined.hi));
                }
            }
            Ok(())
        },
    );
}

/// Memory round-trips arbitrary byte strings at arbitrary addresses.
#[test]
fn memory_round_trips() {
    check(
        "memory_round_trips",
        &Config::new(),
        &pair(u64_range(0, u64::MAX - 64), vec_of(any_u8(), 1, 32)),
        |(addr, bytes)| {
            let mut m = Memory::new();
            m.write_bytes(*addr, bytes);
            prop_assert_eq!(m.read_bytes(*addr, bytes.len()), bytes.clone());
            Ok(())
        },
    );
}

/// Machine execution is deterministic: identical configs produce
/// identical outcomes, step counts, and memory.
#[test]
fn machine_is_deterministic() {
    check(
        "machine_is_deterministic",
        &Config::new(),
        &pair(any_u64(), u32_range(0, 1000)),
        |&(seed, switch)| {
            let p = build_workload(
                BugKind::DataRace,
                WorkloadParams {
                    prefix_iters: 3,
                    hash_rounds: 1,
                },
            );
            let run = || {
                let mut m = Machine::new(
                    p.clone(),
                    MachineConfig {
                        sched: SchedPolicy::Random {
                            seed,
                            switch_per_mille: switch,
                        },
                        max_steps: 200_000,
                        ..MachineConfig::default()
                    },
                );
                let o = m.run();
                (format!("{o:?}"), m.steps(), m.memory().page_count())
            };
            prop_assert_eq!(run(), run());
            Ok(())
        },
    );
}

/// Models are total under `get_or_zero` and never panic.
#[test]
fn model_total_eval_never_fails() {
    check(
        "model_total_eval_never_fails",
        &Config::new(),
        &vec_of(any_u64(), 1, 8),
        |syms| {
            let mut m = Model::new();
            for (i, v) in syms.iter().enumerate() {
                m.set(i as u32, *v);
            }
            let e = Expr::bin(
                BinOp::Add,
                Expr::sym(0),
                Expr::bin(BinOp::Xor, Expr::sym(100), Expr::konst(5)),
            );
            prop_assert!(m.eval_total(&e).is_some());
            Ok(())
        },
    );
}

/// End-to-end: for the deterministic single-threaded workloads, every
/// synthesized suffix replays into the exact coredump — across
/// randomized prefix lengths.
#[test]
fn synthesis_replay_round_trip() {
    check(
        "synthesis_replay_round_trip",
        &Config::with_cases(8),
        &u64_range(1, 200),
        |&prefix| {
            let p = build_workload(
                BugKind::DivByZero,
                WorkloadParams {
                    prefix_iters: prefix,
                    hash_rounds: 1,
                },
            );
            let mut m = Machine::new(p.clone(), MachineConfig::default());
            let o = m.run();
            let faulted = matches!(o, Outcome::Faulted { .. });
            prop_assert!(faulted);
            let d = Coredump::capture(&m);
            let engine = ResEngine::new(&p, ResConfig::default());
            let result = engine.synthesize(&d);
            let found = matches!(result.verdict, Verdict::SuffixFound);
            prop_assert!(found);
            let ok = result
                .suffixes
                .iter()
                .any(|s| replay_suffix(&p, &d, s).reproduced);
            prop_assert!(ok);
            Ok(())
        },
    );
}
