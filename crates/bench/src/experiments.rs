//! The experiment suite (one function per entry of `DESIGN.md` §3).

use std::fmt::Write as _;
use std::time::Instant;

use mvm_core::{Coredump, Minidump};
use mvm_isa::{asm::assemble, Program};
use mvm_machine::{Machine, MachineConfig, Outcome};
use res_baselines::{
    measure_recording,
    ForwardConfig,
    ForwardSynthesizer,
    RecorderKind, //
};
use res_core::{
    replay_and_diagnose,
    replay_suffix,
    CutReason,
    ResConfig,
    ResEngine,
    RootCause,
    Verdict, //
};
use res_triage::{
    exploit_scale, exploitability_study, filter_corpus, hardware_scale, triage_corpus,
    triage_scale, CorpusScaleSpec,
};
use res_workloads::{build, generate_corpus, run_to_failure, BugKind, CorpusSpec, WorkloadParams};

/// A rendered experiment: an id, a table, and pass/fail of its shape
/// checks.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment id (E1..E11, A1..A3).
    pub id: &'static str,
    /// What the paper claims.
    pub claim: &'static str,
    /// The rendered table.
    pub table: String,
    /// `true` when the measured shape matches the paper's claim.
    pub shape_holds: bool,
}

fn fail_dump(kind: BugKind, params: WorkloadParams) -> (Program, Coredump) {
    let p = build(kind, params);
    let m = (0..500)
        .find_map(|s| run_to_failure(&p, s))
        .unwrap_or_else(|| panic!("workload {kind:?} never failed"));
    let d = Coredump::capture(&m);
    (p, d)
}

/// E1 — the paper's §4 evaluation: three synthetic concurrency bugs;
/// correct root cause, under a minute, no false positives.
pub fn e1_hotos_eval() -> Experiment {
    let mut table = String::from(
        "bug                    | root cause found      | suffix | time   | false pos\n\
         -----------------------+-----------------------+--------+--------+----------\n",
    );
    let mut all_ok = true;
    for kind in BugKind::HOTOS_EVAL {
        let (p, d) = fail_dump(kind, WorkloadParams::default());
        let t0 = Instant::now();
        let engine = ResEngine::new(&p, ResConfig::default());
        let result = engine.synthesize(&d);
        // Replay is RES's own validation step (§2.1 requirement 5):
        // candidate suffixes that fail to reproduce the dump are
        // discarded by the tool. A *false positive* is a suffix that
        // replays to the exact failure but exhibits a different root
        // cause.
        let mut found: Option<RootCause> = None;
        let mut false_pos = 0usize;
        for sfx in &result.suffixes {
            let (rep, rc) = replay_and_diagnose(&p, &d, sfx);
            if !rep.reproduced {
                continue;
            }
            if rc.is_concurrency() {
                if found.is_none() {
                    found = Some(rc);
                }
            } else {
                false_pos += 1;
            }
        }
        let elapsed = t0.elapsed();
        let ok = found.is_some() && elapsed.as_secs() < 60 && false_pos == 0;
        all_ok &= ok;
        let _ = writeln!(
            table,
            "{:<22} | {:<21} | {:>6} | {:>5.0}ms | {}",
            kind.name(),
            found
                .map(|rc| rc.bucket_key().split(':').next().unwrap_or("?").to_string())
                .unwrap_or_else(|| "NOT FOUND".into()),
            result.suffixes.first().map(|s| s.len()).unwrap_or(0),
            elapsed.as_secs_f64() * 1000.0,
            false_pos
        );
    }
    Experiment {
        id: "E1",
        claim: "3 concurrency bugs: correct root cause < 1 min, 0 false positives",
        table,
        shape_holds: all_ok,
    }
}

/// E2 — Figure 1: predecessor disambiguation via the coredump.
pub fn e2_figure1() -> Experiment {
    let (p, d) = fail_dump(BugKind::Figure1, WorkloadParams::default());
    let t0 = Instant::now();
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    let elapsed = t0.elapsed();
    let main = p.func_by_name("main").unwrap();
    let pred1 = p.func(main).block_by_label("pred1").unwrap();
    let pred2 = p.func(main).block_by_label("pred2").unwrap();
    let mut through_pred1 = 0;
    let mut through_pred2 = 0;
    for sfx in &result.suffixes {
        let blocks: Vec<_> = sfx.steps.iter().map(|s| s.start.block).collect();
        if blocks.contains(&pred1) {
            through_pred1 += 1;
        }
        if blocks.contains(&pred2) {
            through_pred2 += 1;
        }
    }
    let shape = through_pred1 >= 1 && through_pred2 == 0;
    let table = format!(
        "suffixes | via Pred1 (x=1, matches dump) | via Pred2 (x=2, discarded) | time\n\
         ---------+-------------------------------+----------------------------+------\n\
         {:>8} | {:>29} | {:>26} | {:.0}ms\n",
        result.suffixes.len(),
        through_pred1,
        through_pred2,
        elapsed.as_secs_f64() * 1000.0
    );
    Experiment {
        id: "E2",
        claim: "Figure 1: only the predecessor matching the dump (x=1) survives",
        table,
        shape_holds: shape,
    }
}

/// E3 — the title claim: RES cost is flat in execution length; forward
/// execution synthesis scales with it.
pub fn e3_length_sweep() -> Experiment {
    let mut table = String::from(
        "prefix iters | exec steps | RES nodes | RES solver h/m | RES time | fwd-ES steps | fwd solver h/m | fwd-ES time\n\
         -------------+------------+-----------+----------------+----------+--------------+----------------+------------\n",
    );
    let mut res_times = Vec::new();
    let mut fwd_steps = Vec::new();
    for prefix in [100u64, 1_000, 10_000, 100_000] {
        let params = WorkloadParams {
            prefix_iters: prefix,
            ..WorkloadParams::default()
        };
        let (p, d) = fail_dump(BugKind::DivByZero, params);
        let exec_len = d.steps;
        let t0 = Instant::now();
        let engine = ResEngine::new(&p, ResConfig::default());
        let result = engine.synthesize(&d);
        let res_time = t0.elapsed();
        assert!(matches!(result.verdict, Verdict::SuffixFound));
        let goal = Minidump::from_coredump(&d);
        let t1 = Instant::now();
        let fwd = ForwardSynthesizer::new(ForwardConfig::default()).synthesize(&p, &goal);
        let fwd_time = t1.elapsed();
        res_times.push(res_time.as_secs_f64());
        fwd_steps.push(fwd.total_steps);
        let _ = writeln!(
            table,
            "{:>12} | {:>10} | {:>9} | {:>14} | {:>6.1}ms | {:>12} | {:>14} | {:>8.1}ms",
            prefix,
            exec_len,
            result.stats.nodes_expanded,
            format!(
                "{}/{}",
                result.stats.solver.cache_hits, result.stats.solver.cache_misses
            ),
            res_time.as_secs_f64() * 1000.0,
            fwd.total_steps,
            format!(
                "{}/{}",
                fwd.stats.solver.cache_hits, fwd.stats.solver.cache_misses
            ),
            fwd_time.as_secs_f64() * 1000.0
        );
    }
    // Shape: forward cost grows by orders of magnitude; RES stays flat
    // (within 20× across a 1000× length increase, vs >100× for fwd).
    let res_ratio = res_times.last().unwrap() / res_times.first().unwrap().max(1e-9);
    let fwd_ratio =
        *fwd_steps.last().unwrap() as f64 / (*fwd_steps.first().unwrap() as f64).max(1.0);
    let shape = fwd_ratio > 100.0 && res_ratio < 20.0;
    let _ = writeln!(
        table,
        "growth over sweep: RES time ×{res_ratio:.1}, forward-ES steps ×{fwd_ratio:.0}"
    );

    Experiment {
        id: "E3",
        claim: "RES cost independent of execution length; forward ES scales with it",
        table,
        shape_holds: shape,
    }
}

/// The E4 breadcrumb workload: a chain of input-driven diamonds before
/// the crash, so the dump alone cannot disambiguate the path.
fn e4_program() -> Program {
    assemble(
        r#"
        global acc 8
        func main() {
        entry:
            addr r10, acc
            mov r11, 0
            input r0, net
            remu r1, r0, 2
            br r1, d1a, d1b
        d1a:
            add r11, r11, 0
            jmp j1
        d1b:
            add r11, r11, 0
            jmp j1
        j1:
            input r2, net
            remu r3, r2, 2
            br r3, d2a, d2b
        d2a:
            add r11, r11, 0
            jmp j2
        d2b:
            add r11, r11, 0
            jmp j2
        j2:
            input r4, net
            remu r5, r4, 2
            br r5, d3a, d3b
        d3a:
            add r11, r11, 0
            jmp boom
        d3b:
            add r11, r11, 0
            jmp boom
        boom:
            store r11, [r10]
            mov r12, 0
            divu r13, 1, r12
            halt
        }
        "#,
    )
    .unwrap()
}

/// E4 — breadcrumbs (§2.4): LBR and error-log hints shrink the search.
pub fn e4_breadcrumbs() -> Experiment {
    let p = e4_program();
    let mut m = Machine::new(
        &p,
        MachineConfig {
            input: mvm_machine::InputSource::Seeded { seed: 99 },
            lbr_capacity: 16,
            ..MachineConfig::default()
        },
    );
    let o = m.run();
    assert!(matches!(o, Outcome::Faulted { .. }));
    let d = Coredump::capture(&m);
    let mut table = String::from(
        "hints         | hypotheses tested | suffixes | lbr-pruned\n\
         --------------+-------------------+----------+-----------\n",
    );
    let mut hyps = Vec::new();
    for (name, use_lbr) in [("none", false), ("LBR-16", true)] {
        let config = ResConfig::builder()
            .use_lbr(use_lbr)
            .max_suffixes(8)
            .max_depth(16)
            .build();
        let engine = ResEngine::new(&p, config);
        let result = engine.synthesize(&d);
        hyps.push(result.stats.hypotheses);
        let _ = writeln!(
            table,
            "{:<13} | {:>17} | {:>8} | {:>9}",
            name,
            result.stats.hypotheses,
            result.suffixes.len(),
            result.stats.rejected_lbr
        );
    }
    let shape = hyps[1] < hyps[0];
    Experiment {
        id: "E4",
        claim: "LBR breadcrumbs trim the search",
        table,
        shape_holds: shape,
    }
}

/// E5 — triaging: stack bucketing vs root-cause bucketing.
pub fn e5_triage() -> Experiment {
    let corpus = generate_corpus(&CorpusSpec {
        kinds: vec![
            BugKind::RaceNullDeref,
            BugKind::UafSameStack,
            BugKind::UseAfterFree,
            BugKind::DivByZero,
            BugKind::SemanticAssert,
        ],
        per_kind: 4,
        ..CorpusSpec::default()
    });
    let cmp = triage_corpus(&corpus, 2, &ResConfig::default());
    let table = format!(
        "method              | buckets | bugs | mis-bucketed\n\
         --------------------+---------+------+-------------\n\
         WER-like (stack)    | {:>7} | {:>4} | {:>10.0}%\n\
         RES (root cause)    | {:>7} | {:>4} | {:>10.0}%\n\
         corpus: {} reports from {} distinct bugs\n",
        cmp.wer.bucket_count(),
        cmp.wer.distinct_bugs,
        cmp.wer.misbucket_rate * 100.0,
        cmp.res.bucket_count(),
        cmp.res.distinct_bugs,
        cmp.res.misbucket_rate * 100.0,
        corpus.len(),
        cmp.wer.distinct_bugs,
    );
    let shape = cmp.res.misbucket_rate < cmp.wer.misbucket_rate && cmp.wer.misbucket_rate > 0.0;
    Experiment {
        id: "E5",
        claim: "stack bucketing mis-buckets a large fraction; root-cause bucketing far less",
        table,
        shape_holds: shape,
    }
}

/// E6 — exploitability: heuristic vs suffix-taint classification.
pub fn e6_exploitability() -> Experiment {
    let corpus = generate_corpus(&CorpusSpec {
        kinds: vec![
            BugKind::HeapOverflowTainted,
            BugKind::HeapOverflowLocal,
            BugKind::UseAfterFree,
            BugKind::DivByZero,
        ],
        per_kind: 3,
        ..CorpusSpec::default()
    });
    let study = exploitability_study(&corpus, &ResConfig::default());
    let table = format!(
        "method        | reports | classification errors\n\
         --------------+---------+----------------------\n\
         !exploitable  | {:>7} | {:>20}\n\
         RES taint     | {:>7} | {:>20}\n",
        study.total, study.heuristic_errors, study.total, study.res_errors
    );
    let shape = study.res_errors < study.heuristic_errors;
    Experiment {
        id: "E6",
        claim: "suffix taint evidence beats fault-shape heuristics",
        table,
        shape_holds: shape,
    }
}

/// E7 — hardware-error identification.
pub fn e7_hardware() -> Experiment {
    let corpus = generate_corpus(&CorpusSpec {
        kinds: vec![
            BugKind::DivByZero,
            BugKind::SemanticAssert,
            BugKind::UseAfterFree,
        ],
        per_kind: 4,
        ..CorpusSpec::default()
    });
    let study = filter_corpus(&corpus, &ResConfig::default(), None);
    let table = format!(
        "reports | hw-injected | flagged | precision | recall\n\
         --------+-------------+---------+-----------+-------\n\
         {:>7} | {:>11} | {:>7} | {:>8.0}% | {:>4.0}%\n",
        study.reports.len(),
        study.true_positives + study.false_negatives,
        study.true_positives + study.false_positives,
        study.precision() * 100.0,
        study.recall() * 100.0
    );
    let shape = study.false_positives == 0 && study.recall() > 0.5;
    Experiment {
        id: "E7",
        claim:
            "dump/execution inconsistencies identify hardware errors; no software bug is misflagged",
        table,
        shape_holds: shape,
    }
}

/// E8 — record-replay overhead (the paper's §1 motivation).
pub fn e8_recording_overhead() -> Experiment {
    let p = build(
        BugKind::DataRace,
        WorkloadParams {
            prefix_iters: 2_000,
            ..WorkloadParams::default()
        },
    );
    let mut table = String::from(
        "recorder                              | overhead | log bytes | bytes/Kstep\n\
         --------------------------------------+----------+-----------+------------\n",
    );
    let mut rows = Vec::new();
    for kind in [
        RecorderKind::FullMemoryOrder,
        RecorderKind::OutputDeterministic,
        RecorderKind::None,
    ] {
        let c = measure_recording(&p, kind, 11);
        let _ = writeln!(
            table,
            "{:<37} | {:>7.0}% | {:>9} | {:>10.1}",
            kind.name(),
            c.overhead_percent,
            c.log_bytes,
            c.log_bytes as f64 / (c.base_steps as f64 / 1000.0)
        );
        rows.push(c);
    }
    let shape = rows[0].overhead_percent > rows[1].overhead_percent
        && rows[1].overhead_percent > 0.0
        && rows[2].overhead_percent == 0.0
        && rows[0].overhead_percent > 150.0
        && rows[1].overhead_percent < 150.0;
    Experiment {
        id: "E8",
        claim: "always-on recording costs ~400%/~60% and unbounded logs; RES records nothing",
        table,
        shape_holds: shape,
    }
}

/// E9 — root-cause distance vs suffix budget (§2's 85% observation).
pub fn e9_suffix_budget() -> Experiment {
    // A parametric program: the bad store happens `dist` blocks before
    // the failure.
    let program_at = |dist: usize| -> Program {
        let mut filler = String::new();
        for i in 0..dist {
            let _ = writeln!(
                filler,
                "f{i}:\n  load r3, [r1]\n  add r3, r3, 1\n  store r3, [r1]\n  jmp {}",
                if i + 1 == dist {
                    "crash".to_string()
                } else {
                    format!("f{}", i + 1)
                }
            );
        }
        let first = if dist == 0 { "crash" } else { "f0" };
        assemble(&format!(
            r#"
            global v 8
            global scratch2 8
            func main() {{
            entry:
                addr r0, v
                addr r1, scratch2
                store 1, [r0]
                jmp {first}
            {filler}
            crash:
                load r2, [r0]
                eq r4, r2, 0
                assert r4, "v must be zero"
                halt
            }}
            "#,
        ))
        .unwrap()
    };
    let mut table = String::from(
        "root-cause distance (blocks) | budget 4 | budget 8 | budget 16\n\
         -----------------------------+----------+----------+----------\n",
    );
    let mut shape = true;
    for dist in [1usize, 5, 10] {
        let p = program_at(dist);
        let m = run_to_failure(&p, 1).expect("must fail");
        let d = Coredump::capture(&m);
        let mut row = format!("{dist:>28} |");
        for budget in [4usize, 8, 16] {
            let engine = ResEngine::new(&p, ResConfig::builder().max_depth(budget).build());
            let result = engine.synthesize(&d);
            // The root cause (the `store 1`) is in the window iff some
            // reproducing suffix contains the entry block.
            let main = p.func_by_name("main").unwrap();
            let entry = p.func(main).block_by_label("entry").unwrap();
            let found = result.suffixes.iter().any(|s| {
                s.steps.iter().any(|st| st.start.block == entry)
                    && replay_suffix(&p, &d, s).reproduced
            });
            let _ = write!(row, " {:>8} |", if found { "found" } else { "-" });
            // Expected: found iff budget comfortably exceeds distance.
            if budget >= dist + 3 && !found {
                shape = false;
            }
        }
        let _ = writeln!(table, "{}", row.trim_end_matches(" |"));
    }
    let _ = writeln!(
        table,
        "(root cause enters the window once the block budget covers its distance)"
    );
    Experiment {
        id: "E9",
        claim: "a short suffix suffices when the root cause is near the failure",
        table,
        shape_holds: shape,
    }
}

/// E10 — hard-to-invert constructs (§6): re-execution vs reverse-only.
pub fn e10_hard_constructs() -> Experiment {
    let (p, d) = fail_dump(
        BugKind::HashChain,
        WorkloadParams {
            hash_rounds: 16,
            ..WorkloadParams::default()
        },
    );
    let mut table = String::from(
        "strategy                      | crossed hash call | suffix blocks\n\
         ------------------------------+-------------------+--------------\n",
    );
    let hash_fn = p.func_by_name("hash").unwrap();
    let mut crossed = Vec::new();
    for (name, budget) in [
        ("reverse-only (tiny budget)", 8u64),
        ("re-execution (§6)", 4096),
    ] {
        let engine = ResEngine::new(
            &p,
            ResConfig::builder()
                .hyp_max_steps(budget)
                .max_depth(8)
                .build(),
        );
        let result = engine.synthesize(&d);
        let did = result.suffixes.iter().any(|s| {
            s.steps
                .iter()
                .any(|st| st.transfers.iter().any(|t| t.to.func == hash_fn))
        });
        crossed.push(did);
        let _ = writeln!(
            table,
            "{:<29} | {:>17} | {:>12}",
            name,
            if did { "yes" } else { "no" },
            result.suffixes.iter().map(|s| s.len()).max().unwrap_or(0)
        );
    }
    let shape = !crossed[0] && crossed[1];
    Experiment {
        id: "E10",
        claim: "hash constructs resist inversion but yield to bounded re-execution",
        table,
        shape_holds: shape,
    }
}

/// E11 — deterministic replay and §3.3 debugging aids.
pub fn e11_replay_determinism() -> Experiment {
    let (p, d) = fail_dump(BugKind::UseAfterFree, WorkloadParams::default());
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    let sfx = result
        .suffixes
        .iter()
        .find(|s| replay_suffix(&p, &d, s).reproduced)
        .expect("reproducing suffix");
    let mut identical = 0;
    const RUNS: usize = 100;
    for _ in 0..RUNS {
        let rep = replay_suffix(&p, &d, sfx);
        if rep.reproduced {
            identical += 1;
        }
    }
    let (reads, writes) = res_core::debugaid::focus_report(sfx);
    let table = format!(
        "replays | identical | focus read set | focus write set | dump pages\n\
         --------+-----------+----------------+-----------------+-----------\n\
         {:>7} | {:>9} | {:>14} | {:>15} | {:>9}\n",
        RUNS,
        identical,
        reads.len(),
        writes.len(),
        d.memory.page_count()
    );
    Experiment {
        id: "E11",
        claim: "suffixes replay deterministically; read/write sets focus attention",
        table,
        shape_holds: identical == RUNS,
    }
}

/// A1 — ablation: the `S' ⊇ Spost` check is what kills wrong suffixes.
pub fn a1_overapprox_ablation() -> Experiment {
    let (p, d) = fail_dump(BugKind::Figure1, WorkloadParams::default());
    let mut table = String::from(
        "compat check | suffixes | replay-verified | false suffixes\n\
         -------------+----------+-----------------+---------------\n",
    );
    let mut false_counts = Vec::new();
    for (name, skip) in [("on", false), ("off (ablated)", true)] {
        let engine = ResEngine::new(
            &p,
            ResConfig::builder()
                .skip_compat_check(skip)
                .max_suffixes(8)
                .build(),
        );
        let result = engine.synthesize(&d);
        let verified = result
            .suffixes
            .iter()
            .filter(|s| replay_suffix(&p, &d, s).reproduced)
            .count();
        let false_suffixes = result.suffixes.len() - verified;
        false_counts.push(false_suffixes);
        let _ = writeln!(
            table,
            "{:<12} | {:>8} | {:>15} | {:>13}",
            name,
            result.suffixes.len(),
            verified,
            false_suffixes
        );
    }
    let shape = false_counts[0] == 0 && false_counts[1] > 0;
    Experiment {
        id: "A1",
        claim: "without the over-approximation check, infeasible suffixes are admitted",
        table,
        shape_holds: shape,
    }
}

/// A2 — full coredump vs minidump (§1: "strictly more powerful").
pub fn a2_dump_vs_minidump() -> Experiment {
    let (p, d) = fail_dump(BugKind::Figure1, WorkloadParams::default());
    let mut table = String::from(
        "input            | suffixes | replay-verified | approximate\n\
         -----------------+----------+-----------------+------------\n",
    );
    let mut verified_counts = Vec::new();
    for (name, opaque) in [("full coredump", false), ("minidump only", true)] {
        let engine = ResEngine::new(
            &p,
            ResConfig::builder()
                .opaque_memory(opaque)
                .max_suffixes(8)
                .build(),
        );
        let result = engine.synthesize(&d);
        let verified = result
            .suffixes
            .iter()
            .filter(|s| replay_suffix(&p, &d, s).reproduced)
            .count();
        verified_counts.push(verified);
        let approx = result.suffixes.iter().filter(|s| s.approximate).count();
        let _ = writeln!(
            table,
            "{:<16} | {:>8} | {:>15} | {:>10}",
            name,
            result.suffixes.len(),
            verified,
            approx
        );
    }
    let shape = verified_counts[0] > 0 && verified_counts[0] >= verified_counts[1];
    Experiment {
        id: "A2",
        claim: "the full dump pins the suffix; minidumps leave it ambiguous",
        table,
        shape_holds: shape,
    }
}

/// A3 — solver budget sweep.
pub fn a3_solver_budget() -> Experiment {
    let (p, d) = fail_dump(BugKind::HeapOverflowTainted, WorkloadParams::default());
    let mut table = String::from(
        "solver budget (assignments) | verdict      | unknowns kept (budget/incomplete) | cache h/m | time\n\
         ----------------------------+--------------+-----------------------------------+-----------+------\n",
    );
    let mut found = Vec::new();
    for budget in [20u64, 500, 20_000] {
        let engine = ResEngine::new(
            &p,
            ResConfig::builder()
                .solver(mvm_symbolic::SolverConfig {
                    max_assignments: budget,
                    ..mvm_symbolic::SolverConfig::default()
                })
                .build(),
        );
        let t0 = Instant::now();
        let result = engine.synthesize(&d);
        let verdict = match result.verdict {
            Verdict::SuffixFound => "suffix found",
            Verdict::NoFeasibleSuffix { .. } => "no suffix",
            Verdict::BudgetExhausted => "budget out",
        };
        found.push(matches!(result.verdict, Verdict::SuffixFound));
        let _ = writeln!(
            table,
            "{:>27} | {:<12} | {:>33} | {:>9} | {:.0}ms",
            budget,
            verdict,
            format!(
                "{} ({}/{})",
                result.stats.unknown_accepted,
                result.stats.unknown_accepted_budget,
                result.stats.unknown_accepted_incomplete
            ),
            format!(
                "{}/{}",
                result.stats.solver.cache_hits, result.stats.solver.cache_misses
            ),
            t0.elapsed().as_secs_f64() * 1000.0
        );
    }
    let shape = *found.last().unwrap();
    Experiment {
        id: "A3",
        claim: "larger solver budgets trade time for fewer Unknowns",
        table,
        shape_holds: shape,
    }
}

/// E12 — bounded wall clock: an expired deadline is a reported cut with
/// a well-formed partial result, not a hang or a bogus verdict.
pub fn e12_deadline() -> Experiment {
    let (p, d) = fail_dump(
        BugKind::DivByZero,
        WorkloadParams {
            prefix_iters: 10_000,
            ..WorkloadParams::default()
        },
    );
    let mut table = String::from(
        "deadline | verdict      | cut      | suffixes | abandoned nodes\n\
         ---------+--------------+----------+----------+----------------\n",
    );
    let mut shape = true;
    for (name, deadline) in [("0ms", Some(std::time::Duration::ZERO)), ("none", None)] {
        let engine = ResEngine::new(&p, ResConfig::builder().deadline(deadline).build());
        let result = engine.synthesize(&d);
        let verdict = match result.verdict {
            Verdict::SuffixFound => "suffix found",
            Verdict::NoFeasibleSuffix { .. } => "no suffix",
            Verdict::BudgetExhausted => "budget out",
        };
        if deadline.is_some() {
            // The partial result must be well-formed: the cut recorded,
            // the abandoned frontier accounted, no half-built suffixes.
            shape &= result.stats.cut == Some(CutReason::Deadline)
                && matches!(result.verdict, Verdict::BudgetExhausted)
                && result.suffixes.is_empty()
                && result.stats.abandoned.nodes >= 1;
        } else {
            shape &= matches!(result.verdict, Verdict::SuffixFound) && result.stats.cut.is_none();
        }
        let _ = writeln!(
            table,
            "{:<8} | {:<12} | {:<8} | {:>8} | {:>15}",
            name,
            verdict,
            result
                .stats
                .cut
                .map(|c| format!("{c:?}"))
                .unwrap_or_else(|| "-".into()),
            result.suffixes.len(),
            result.stats.abandoned.nodes
        );
    }
    Experiment {
        id: "E12",
        claim: "an expired deadline yields CutReason::Deadline and a well-formed partial result",
        table,
        shape_holds: shape,
    }
}

/// E13 — the persistent cross-run store: a warm run over a populated
/// store answers repeated solver queries from disk (absorbed-hit count
/// > 0) yet synthesizes byte-identical suffixes to the cold run.
pub fn e13_store_warm() -> Experiment {
    let (p, d) = fail_dump(BugKind::UseAfterFree, WorkloadParams::default());
    let dir = std::env::temp_dir().join(format!("res-e13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("store.resstore");

    // Store-less baseline: what a run without any persistence does.
    let t0 = Instant::now();
    let baseline = ResEngine::new(&p, ResConfig::default()).synthesize(&d);
    let base_time = t0.elapsed();

    // Cold: the store is missing; this run populates it.
    let t1 = Instant::now();
    let cold_engine = ResEngine::new(&p, ResConfig::builder().cache_path(&path).build());
    let cold = cold_engine.synthesize(&d);
    let cold_time = t1.elapsed();

    // Warm: a fresh engine (fresh process, as far as the solver is
    // concerned) absorbs the populated store before searching.
    let t2 = Instant::now();
    let warm_engine = ResEngine::new(&p, ResConfig::builder().cache_path(&path).build());
    let warm = warm_engine.synthesize(&d);
    let warm_time = t2.elapsed();

    let golden = format!("{:?}", baseline.suffixes);
    let mut table = String::from(
        "run      | store entries in | store hits | appended | suffixes identical | solver h/m | time\n\
         ---------+------------------+------------+----------+--------------------+------------+------\n",
    );
    let mut shape = true;
    for (name, result, time) in [
        ("no store", &baseline, base_time),
        ("cold", &cold, cold_time),
        ("warm", &warm, warm_time),
    ] {
        let identical = format!("{:?}", result.suffixes) == golden;
        shape &= identical;
        let (loaded, hits, appended) = result
            .store
            .as_ref()
            .map(|s| (s.loaded_entries, s.store_hits, s.appended_entries))
            .unwrap_or((0, 0, 0));
        let _ = writeln!(
            table,
            "{:<8} | {:>16} | {:>10} | {:>8} | {:>18} | {:>10} | {:.0}ms",
            name,
            loaded,
            hits,
            appended,
            if identical { "yes" } else { "NO" },
            format!(
                "{}/{}",
                result.stats.solver.cache_hits, result.stats.solver.cache_misses
            ),
            time.as_secs_f64() * 1000.0
        );
    }
    let cold_report = cold.store.expect("cold run has a store");
    let warm_report = warm.store.expect("warm run has a store");
    // The cold run starts empty, serves no store hits, and commits its
    // results; the warm run loads them, serves hits, and (having run the
    // identical deterministic search) has nothing new to append.
    shape &= cold_report.store_hits == 0
        && cold_report.appended_entries > 0
        && cold_report.committed
        && warm_report.loaded_entries > 0
        && warm_report.store_hits > 0
        && warm_report.appended_entries == 0;
    let _ = writeln!(
        table,
        "cold {:.0}ms vs warm {:.0}ms wall clock; store {} entries on disk",
        cold_time.as_secs_f64() * 1000.0,
        warm_time.as_secs_f64() * 1000.0,
        warm_report.loaded_entries,
    );
    let _ = std::fs::remove_dir_all(&dir);
    Experiment {
        id: "E13",
        claim: "a warm store serves cross-run solver hits; suffixes stay byte-identical",
        table,
        shape_holds: shape,
    }
}

// --- Corpus-scale experiments (E5c/E6c/E7c) -------------------------
//
// The same three use cases, run over a *generated* population of
// labeled programs (`res-gen`) instead of the fixed handwritten
// workloads, so each rate becomes a min/median/max distribution over
// shards. Knobs (all env vars, so CI and the full sweep share one
// binary):
//
// * `RES_CORPUS_PROGRAMS` — population size (default 200);
// * `RES_GEN_SMOKE` — overrides the population for the fast CI gate;
// * `RES_HARNESS_THREADS` — worker threads (default `auto_workers`);
// * `RES_CORPUS_STORE` — shared store directory (default: a per-process
//   temp directory shared by all three experiments, so E6c and E7c
//   reuse solver results E5c already paid for).

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The generated population size: the smoke knob wins, then the
/// programs knob, then the full-sweep default of 200.
fn corpus_programs() -> usize {
    match std::env::var("RES_GEN_SMOKE") {
        Ok(v) => v.parse().unwrap_or(8).max(1),
        Err(_) => env_usize("RES_CORPUS_PROGRAMS", 200).max(1),
    }
}

fn corpus_threads() -> usize {
    env_usize("RES_HARNESS_THREADS", res_core::auto_workers()).max(1)
}

/// One shared store directory per process: all three corpus experiments
/// route their solver results through it, so the per-fingerprint layout
/// sees hundreds of distinct fingerprints in one place.
fn corpus_store_dir() -> std::path::PathBuf {
    match std::env::var_os("RES_CORPUS_STORE") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::env::temp_dir().join(format!("res-corpus-store-{}", std::process::id())),
    }
}

/// The corpus experiments journal their own per-program counters to
/// `<id>.journal.jsonl` under the `RES_TRACE` directory (the harness's
/// `harness.jsonl` only sees one span per experiment).
fn corpus_recorder(id: &str) -> res_obs::Recorder {
    match std::env::var_os("RES_TRACE") {
        Some(dir) => res_obs::Recorder::journal(
            std::path::Path::new(&dir).join(format!("{id}.journal.jsonl")),
        ),
        None => res_obs::Recorder::disabled(),
    }
}

fn corpus_spec(
    classes: Vec<res_workloads::GenClass>,
    reports_per_program: usize,
) -> CorpusScaleSpec {
    let programs = corpus_programs();
    CorpusScaleSpec {
        classes,
        programs,
        reports_per_program,
        shards: 10.min(programs),
        threads: corpus_threads(),
        seed: 0xc0_9b5,
        size: 1,
    }
}

/// E5c — triaging rate distributions over a generated population.
pub fn e5c_triage_corpus() -> Experiment {
    use res_workloads::GenClass;
    let spec = corpus_spec(GenClass::ALL.to_vec(), 3);
    let rec = corpus_recorder("E5c");
    let rep = triage_scale(&spec, &ResConfig::default(), &corpus_store_dir(), &rec);
    rec.finish();
    let table = format!(
        "method              | mis-bucketed min/med/max (per shard) | pooled\n\
         --------------------+--------------------------------------+-------\n\
         WER-like (stack)    | {:>36} | {:>5.1}%\n\
         RES (root cause)    | {:>36} | {:>5.1}%\n\
         population: {} generated programs ({} classes), {} reports, {} threads\n",
        rep.wer.pct(),
        rep.wer_total * 100.0,
        rep.res.pct(),
        rep.res_total * 100.0,
        rep.programs,
        spec.classes.len(),
        rep.reports,
        spec.threads,
    );
    let shape = rep.res_total < rep.wer_total && rep.wer_total > 0.0;
    Experiment {
        id: "E5c",
        claim: "root-cause bucketing beats stack bucketing across a generated program population",
        table,
        shape_holds: shape,
    }
}

/// E6c — exploitability error distributions over a generated population.
pub fn e6c_exploitability_corpus() -> Experiment {
    use res_workloads::GenClass;
    let spec = corpus_spec(
        vec![
            GenClass::TaintedOverflow,
            GenClass::LocalOverflow,
            GenClass::UseAfterFree,
            GenClass::DivByZero,
        ],
        3,
    );
    let rec = corpus_recorder("E6c");
    let rep = exploit_scale(&spec, &ResConfig::default(), &corpus_store_dir(), &rec);
    rec.finish();
    let table = format!(
        "method        | error rate min/med/max (per shard)   | pooled\n\
         --------------+--------------------------------------+-------\n\
         !exploitable  | {:>36} | {:>5.1}%\n\
         RES taint     | {:>36} | {:>5.1}%\n\
         population: {} generated programs, {} reports, {} threads\n",
        rep.heur.pct(),
        rep.heur_total * 100.0,
        rep.res.pct(),
        rep.res_total * 100.0,
        rep.programs,
        rep.reports,
        spec.threads,
    );
    let shape = rep.res_total < rep.heur_total;
    Experiment {
        id: "E6c",
        claim: "suffix taint evidence beats fault-shape heuristics across a generated population",
        table,
        shape_holds: shape,
    }
}

/// E7c — hardware-filter precision/recall distributions over a
/// generated population (classes whose genuine dumps the engine fully
/// explains; 4 reports per program so both corruption flavors appear).
pub fn e7c_hardware_corpus() -> Experiment {
    use res_workloads::GenClass;
    let spec = corpus_spec(
        vec![
            GenClass::DataRace,
            GenClass::DivByZero,
            GenClass::LocalOverflow,
            GenClass::UseAfterFree,
        ],
        4,
    );
    let rec = corpus_recorder("E7c");
    let rep = hardware_scale(&spec, &ResConfig::default(), &corpus_store_dir(), &rec);
    rec.finish();
    let table = format!(
        "metric     | min/med/max (per shard)              | pooled\n\
         -----------+--------------------------------------+-------\n\
         precision  | {:>36} | {:>5.1}%\n\
         recall     | {:>36} | {:>5.1}%\n\
         population: {} generated programs, {} reports (half hw-corrupted), {} threads\n\
         genuine software reports misflagged: {}\n",
        rep.precision.pct(),
        rep.precision_total * 100.0,
        rep.recall.pct(),
        rep.recall_total * 100.0,
        rep.programs,
        rep.reports,
        spec.threads,
        rep.false_positives,
    );
    let shape = rep.false_positives == 0 && rep.recall_total > 0.5;
    Experiment {
        id: "E7c",
        claim: "the hardware filter keeps zero false positives at population scale",
        table,
        shape_holds: shape,
    }
}
