//! Hardware-error identification (paper §3.2).
//!
//! "While analyzing a coredump, RES can discover inconsistencies between
//! the coredump and the execution of the program prior to generating the
//! coredump, indicating that the likely explanation is a hardware
//! error." Operationally: if *no* feasible suffix explains the dump —
//! and every rejection was a proof, not a budget cutoff — the dump is
//! hardware-suspect. The verdict is then *localized* by relaxation: the
//! engine re-runs with one candidate location (a register of the
//! faulting frame, or a memory word) replaced by an unconstrained
//! symbol; if exactly that relaxation restores feasibility, the
//! corrupted location has been found — the paper's memory-bit-flip and
//! miscomputed-addition examples both fall out of this procedure.
//!
//! The verdict reads little from its searches: whether the base search
//! finds a suffix, and which relaxation's deepest suffix is deepest. So
//! each search stops once its part of that answer is settled: the base
//! search at its first suffix, a relaxed search at its first suffix as
//! deep as the horizon (`max_depth`), and the sweep at its first
//! relaxation that reaches the horizon. Without a deadline every
//! verdict is the one a sweep running every search to the end gives.

use std::time::Instant;

use mvm_core::Coredump;
use mvm_isa::{layout, Program, Reg, Width};
use mvm_json::json_enum;
use mvm_machine::AllocState;
use res_store::SolverStore;

use crate::search::{ResConfig, ResEngine, SynthOptions, SynthesisResult, Verdict};

/// Where the engine localized a hardware fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwKind {
    /// A memory word whose dump content no feasible execution produces
    /// (bit flip, rogue DMA, multi-bit DRAM failure).
    MemoryError {
        /// The inconsistent word's address.
        addr: u64,
    },
    /// A register whose dump content no feasible execution produces
    /// (CPU datapath error).
    CpuError {
        /// The inconsistent register.
        reg: Reg,
    },
    /// Inconsistency established but not localized to a single word.
    Unlocalized,
}

json_enum!(HwKind {
    MemoryError { addr: u64 },
    CpuError { reg: Reg },
    Unlocalized
});

/// The §3.2 verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HwVerdict {
    /// A feasible suffix exists: a software bug.
    SoftwareBug,
    /// No feasible suffix: likely hardware.
    HardwareSuspected {
        /// What and where, if localized.
        kind: HwKind,
        /// `true` when the infeasibility is a proof (no budget cutoffs
        /// or solver Unknowns anywhere).
        proven: bool,
    },
    /// The engine ran out of budget before deciding.
    Inconclusive,
}

json_enum!(HwVerdict {
    SoftwareBug,
    HardwareSuspected { kind: HwKind, proven: bool },
    Inconclusive
});

/// Candidate relaxation sites for localization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Relax {
    /// No relaxation (plain synthesis).
    #[default]
    None,
    /// Treat this memory word as unknown.
    Mem {
        /// Word address.
        addr: u64,
    },
    /// Treat this register of the faulting thread's innermost frame as
    /// unknown.
    Reg {
        /// The register.
        reg: Reg,
    },
}

json_enum!(Relax {
    None,
    Mem { addr: u64 },
    Reg { reg: Reg }
});

/// Runs the full §3.2 analysis: verdict plus localization.
///
/// Solver `Unknown`s stay conservative regardless of their
/// [`mvm_symbolic::UnknownReason`]: whether the solver ran out of
/// assignment budget or hit a construct it cannot decide, an
/// unknown-tainted "no feasible suffix" is reported with
/// `proven: false` and a budget-cut search is [`HwVerdict::Inconclusive`]
/// — a hardware accusation is never built on an undecided query.
pub fn hardware_verdict(program: &Program, dump: &Coredump, config: &ResConfig) -> HwVerdict {
    hardware_verdict_inner(program, dump, config, None, Instant::now())
}

/// [`hardware_verdict`] with every solver query routed through a
/// pre-opened [`SolverStore`]: the store is absorbed once up front and
/// new results are merged back, but **committing is left to the caller**
/// (the triage daemon commits on hot-store eviction or shutdown). This
/// is the §3.2 sweep's warm path — the base synthesis and every
/// relaxation candidate share one store instead of paying
/// open/absorb/commit per call.
pub fn hardware_verdict_in_store(
    program: &Program,
    dump: &Coredump,
    config: &ResConfig,
    store: &mut SolverStore,
) -> HwVerdict {
    hardware_verdict_inner(program, dump, config, Some(store), Instant::now())
}

/// The sweep behind both entry points. The request's deadline bounds
/// the whole sweep, measured from `started`: the base search runs under
/// it as configured, each relaxed search gets the time that remains,
/// and the sweep stops when none does. Node and solver-assignment caps
/// stay per search, so without a deadline nothing here depends on time.
///
/// What the searches share is paid once: every search starts from one
/// root built from the dump, and a store is merged into only after a
/// search that grew the session's memo.
///
/// Each search stops as soon as its part of the verdict is settled, by
/// three rules that, without a deadline, leave every verdict as running
/// every search to `max_suffixes` and every relaxation would give:
/// * the base search stops at its first suffix, since one suffix makes
///   the verdict [`HwVerdict::SoftwareBug`] and the search up to it is
///   unchanged;
/// * a relaxed search stops at its first suffix of `max_depth` steps,
///   since the sweep reads only whether a suffix exists and how deep
///   the deepest is, and no suffix is deeper than `max_depth`;
/// * the sweep stops once a relaxation reaches `max_depth`, since a
///   later one replaces the best only with a strictly deeper suffix.
fn hardware_verdict_inner(
    program: &Program,
    dump: &Coredump,
    config: &ResConfig,
    mut store: Option<&mut SolverStore>,
    started: Instant,
) -> HwVerdict {
    let engine = ResEngine::new(program, config.clone());
    let root = engine.root(dump);
    let mut mark = None;
    let mut search = |opts: SynthOptions, settle_depth: usize| {
        let store = store.as_deref_mut().map(|s| (s, &mut mark));
        engine.synthesize_from(&root, dump, opts, store, settle_depth)
    };
    let base = search(SynthOptions::new(), 0);
    match base.verdict {
        Verdict::SuffixFound => return HwVerdict::SoftwareBug,
        Verdict::BudgetExhausted => return HwVerdict::Inconclusive,
        Verdict::NoFeasibleSuffix { .. } => {}
    }
    let proven = matches!(base.verdict, Verdict::NoFeasibleSuffix { proven: true });

    // Localize by relaxation. A flipped location and a register holding
    // a value derived from it can both restore feasibility for a
    // one-block suffix, so all candidates are scored by how *deep* a
    // suffix the relaxation enables — the true corruption site lets the
    // search reverse much further (ideally to the program entry).
    let mut best: Option<(usize, HwKind)> = None;
    for (kind, relax) in relaxations(dump) {
        let mut opts = SynthOptions::new().relax(relax);
        if let Some(deadline) = config.deadline {
            match deadline.checked_sub(started.elapsed()) {
                Some(left) if !left.is_zero() => opts = opts.deadline(left),
                _ => break,
            }
        }
        let res = search(opts, config.max_depth);
        if res.verdict != Verdict::SuffixFound {
            continue;
        }
        let depth = deepest(&res);
        if best.as_ref().is_none_or(|(d, _)| depth > *d) {
            best = Some((depth, kind));
        }
        if depth >= config.max_depth {
            break;
        }
    }
    HwVerdict::HardwareSuspected {
        kind: best.map(|(_, k)| k).unwrap_or(HwKind::Unlocalized),
        proven,
    }
}

/// The length of a search's deepest suffix (0 when it found none).
fn deepest(res: &SynthesisResult) -> usize {
    res.suffixes.iter().map(|s| s.len()).max().unwrap_or(0)
}

/// The sweep's relaxations in the order it tries them: every register
/// of the faulting frame, then the [`candidate_words`].
fn relaxations(dump: &Coredump) -> impl Iterator<Item = (HwKind, Relax)> {
    let regs = (0..Reg::COUNT as u8)
        .map(|r| (HwKind::CpuError { reg: Reg(r) }, Relax::Reg { reg: Reg(r) }));
    let words = candidate_words(dump)
        .into_iter()
        .map(|addr| (HwKind::MemoryError { addr }, Relax::Mem { addr }));
    regs.chain(words)
}

/// Memory words worth relaxing: the globals segment plus live heap
/// payloads, capped.
fn candidate_words(dump: &Coredump) -> Vec<u64> {
    let mut out = Vec::new();
    let mut addr = layout::GLOBAL_BASE;
    while addr < dump.globals_end && out.len() < 64 {
        out.push(addr);
        addr += Width::W8.bytes();
    }
    for m in &dump.heap_allocs {
        if m.state != AllocState::Live {
            continue;
        }
        let mut a = m.base;
        while a < m.base + m.size && out.len() < 128 {
            out.push(a);
            a += Width::W8.bytes();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    use mvm_core::{flip_memory_bit_at, HwFlavor};
    use proptest_mini::{any_u64, check, prop_assert_eq, Config};
    use res_obs::{read_journal, EventKind};
    use res_workloads::gen::{
        collect_failures, corpus_specs, generate, hardware_variant, GenClass,
    };
    use res_workloads::{build, run_to_failure, BugKind, WorkloadParams};

    use super::*;

    /// The sweep as it ran before its searches stopped early: every search
    /// to `max_suffixes` suffixes and every relaxation, without a store.
    /// The tests compare the sweep's verdicts against it.
    fn reference_verdict(program: &Program, dump: &Coredump, config: &ResConfig) -> HwVerdict {
        let started = Instant::now();
        let engine = ResEngine::new(program, config.clone());
        let root = engine.root(dump);
        let search =
            |opts: SynthOptions| engine.synthesize_from(&root, dump, opts, None, usize::MAX);
        let base = search(SynthOptions::new());
        match base.verdict {
            Verdict::SuffixFound => return HwVerdict::SoftwareBug,
            Verdict::BudgetExhausted => return HwVerdict::Inconclusive,
            Verdict::NoFeasibleSuffix { .. } => {}
        }
        let proven = matches!(base.verdict, Verdict::NoFeasibleSuffix { proven: true });
        let mut best: Option<(usize, HwKind)> = None;
        let mut consider = |kind: HwKind, res: &SynthesisResult| {
            if res.verdict != Verdict::SuffixFound {
                return;
            }
            let depth = res.suffixes.iter().map(|s| s.len()).max().unwrap_or(0);
            if best.as_ref().is_none_or(|(d, _)| depth > *d) {
                best = Some((depth, kind));
            }
        };
        for (kind, relax) in relaxations(dump) {
            let mut opts = SynthOptions::new().relax(relax);
            if let Some(deadline) = config.deadline {
                match deadline.checked_sub(started.elapsed()) {
                    Some(left) if !left.is_zero() => opts = opts.deadline(left),
                    _ => break,
                }
            }
            consider(kind, &search(opts));
        }
        HwVerdict::HardwareSuspected {
            kind: best.map(|(_, k)| k).unwrap_or(HwKind::Unlocalized),
            proven,
        }
    }

    /// Synthesis calls journaled to `path`.
    fn searches(path: &Path) -> usize {
        read_journal(path)
            .expect("journal parses")
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Span { name, .. } if name == "synthesize"))
            .count()
    }

    /// The largest total the journal at `path` flushed for `counter`.
    fn counted(path: &Path, counter: &str) -> u64 {
        read_journal(path)
            .expect("journal parses")
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Count { name, total } if name == counter => Some(*total),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// A journal directory of its own for one test.
    fn journal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("res-hwerr-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the journal directory");
        dir
    }

    /// The SemanticAssert workload's program and a genuine dump of it.
    fn semantic_assert() -> (Program, Coredump) {
        let program = build(BugKind::SemanticAssert, WorkloadParams::default());
        let machine = (0..500)
            .find_map(|s| run_to_failure(&program, s))
            .expect("workload failure");
        let dump = Coredump::capture(&machine);
        (program, dump)
    }

    /// The SemanticAssert dump with the global its assertion depends on
    /// flipped: no suffix explains it.
    fn flipped_semantic_assert() -> (Program, Coredump) {
        let (program, mut dump) = semantic_assert();
        flip_memory_bit_at(&mut dump, layout::GLOBAL_BASE, 1);
        (program, dump)
    }

    /// A sweep skips the merges into a caller-owned store that would
    /// add nothing: it leaves the store exactly as running the same
    /// searches, with the same stops, and merging after every one does.
    #[test]
    fn the_sweep_merges_what_merging_every_search_would() {
        let (program, dump) = flipped_semantic_assert();
        let dir = journal_dir("merge");
        let fp = res_store::program_fingerprint(&program);
        let config = ResConfig::default();

        let mut swept = SolverStore::open(dir.join("swept.resstore"), fp);
        let verdict = hardware_verdict_in_store(&program, &dump, &config, &mut swept);
        assert!(
            matches!(verdict, HwVerdict::HardwareSuspected { .. }),
            "{verdict:?}"
        );

        // The same searches in the same order, each merging.
        let mut each = SolverStore::open(dir.join("each.resstore"), fp);
        let engine = ResEngine::new(&program, config.clone());
        let root = engine.root(&dump);
        let mut appended = 0;
        let mut search = |opts: SynthOptions, settle_depth: usize| {
            let store = Some((&mut each, &mut None));
            let res = engine.synthesize_from(&root, &dump, opts, store, settle_depth);
            appended += res.store.expect("a store report").appended_entries;
            res
        };
        search(SynthOptions::new(), 0);
        for (_, relax) in relaxations(&dump) {
            let res = search(SynthOptions::new().relax(relax), config.max_depth);
            if deepest(&res) >= config.max_depth {
                break;
            }
        }
        assert!(appended > 0, "the searches learned nothing");
        assert_eq!(swept.to_portable().entries, each.to_portable().entries);
        assert_eq!(swept.stats(), each.stats());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The sweep runs its base search and then one relaxed search per
    /// location up to the one that localizes the fault, and no more.
    #[test]
    fn the_sweep_stops_at_its_first_horizon_deep_relaxation() {
        let (program, dump) = flipped_semantic_assert();
        let dir = journal_dir("stop");
        let config = ResConfig::builder().trace(dir.join("sweep.jsonl")).build();
        let verdict = hardware_verdict(&program, &dump, &config);
        assert_eq!(
            verdict,
            reference_verdict(&program, &dump, &ResConfig::default())
        );
        let HwVerdict::HardwareSuspected { kind, .. } = verdict else {
            panic!("{verdict:?}")
        };
        let winner = relaxations(&dump)
            .position(|(k, _)| k == kind)
            .expect("the verdict names a relaxed location");
        assert!(winner + 1 < relaxations(&dump).count(), "{kind:?} is last");
        assert_eq!(searches(&dir.join("sweep.jsonl")), 1 + winner + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A genuine dump's verdict needs one suffix, and its base search
    /// finalizes exactly one.
    #[test]
    fn a_genuine_dump_stops_at_its_first_suffix() {
        let (program, dump) = semantic_assert();
        let dir = journal_dir("genuine");
        let journal = dir.join("base.jsonl");
        let config = ResConfig::builder().trace(&journal).build();
        assert_eq!(
            hardware_verdict(&program, &dump, &config),
            HwVerdict::SoftwareBug
        );
        assert_eq!(searches(&journal), 1);
        assert_eq!(counted(&journal, "kernel.artifacts"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Over generated E7c populations (every class; each program's
    /// first genuine dump and both corrupted flavors of it), both entry
    /// points give the verdict of the sweep that runs every search to
    /// the end. Reproduce a failure with `RES_PROP_SEED=<seed>`.
    #[test]
    fn settled_sweeps_give_the_reference_verdicts() {
        const CLASSES: [GenClass; 4] = [
            GenClass::DataRace,
            GenClass::DivByZero,
            GenClass::LocalOverflow,
            GenClass::UseAfterFree,
        ];
        let dir = journal_dir("reference");
        let config = ResConfig::default();
        let cfg = Config {
            cases: 4,
            max_shrink_steps: 0,
            ..Config::new()
        };
        check(
            "settled_sweep_matches_reference",
            &cfg,
            &any_u64(),
            |&seed| {
                for spec in corpus_specs(&CLASSES, CLASSES.len(), seed, 1) {
                    let gp = generate(spec);
                    let genuine = collect_failures(&gp, 1).remove(0);
                    let fp = res_store::program_fingerprint(&gp.program);
                    let path = dir.join(format!("{seed:x}-{}.resstore", spec.class.name()));
                    let mut store = SolverStore::open(path, fp);
                    let mut dumps = vec![genuine.dump.clone()];
                    for flavor in [HwFlavor::BitFlip, HwFlavor::RegCorrupt] {
                        dumps.push(hardware_variant(&gp, &genuine, flavor).0);
                    }
                    for dump in &dumps {
                        let want = reference_verdict(&gp.program, dump, &config);
                        let got = hardware_verdict(&gp.program, dump, &config);
                        prop_assert_eq!(got, want);
                        let got = hardware_verdict_in_store(&gp.program, dump, &config, &mut store);
                        prop_assert_eq!(got, want);
                    }
                }
                Ok(())
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_sweep_shares_one_deadline() {
        let (program, dump) = flipped_semantic_assert();
        let dir = journal_dir("clock");
        let deadline = Duration::from_secs(10);
        let config = |journal: &str| {
            let mut c = ResConfig::builder().deadline(Some(deadline)).build();
            c.trace = Some(dir.join(journal));
            c
        };

        // On a fresh clock the sweep relaxes locations and localizes.
        let fresh = hardware_verdict_inner(
            &program,
            &dump,
            &config("fresh.jsonl"),
            None,
            Instant::now(),
        );
        assert!(
            matches!(fresh, HwVerdict::HardwareSuspected { ref kind, .. } if *kind != HwKind::Unlocalized),
            "{fresh:?}"
        );
        assert!(searches(&dir.join("fresh.jsonl")) > 1);

        // A sweep whose clock has already run out runs its base search
        // and no relaxed one.
        let started = Instant::now()
            .checked_sub(deadline)
            .expect("the host has been up longer than the deadline");
        let late = hardware_verdict_inner(&program, &dump, &config("late.jsonl"), None, started);
        assert!(
            matches!(
                late,
                HwVerdict::HardwareSuspected {
                    kind: HwKind::Unlocalized,
                    ..
                }
            ),
            "{late:?}"
        );
        assert_eq!(searches(&dir.join("late.jsonl")), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
