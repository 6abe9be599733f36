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
    let mut search = |opts: SynthOptions| {
        let store = store.as_deref_mut().map(|s| (s, &mut mark));
        engine.synthesize_from(&root, dump, opts, store)
    };
    let base = search(SynthOptions::new());
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
    let mut consider = |kind: HwKind, res: &SynthesisResult| {
        if res.verdict != Verdict::SuffixFound {
            return;
        }
        let depth = res.suffixes.iter().map(|s| s.len()).max().unwrap_or(0);
        if best.as_ref().is_none_or(|(d, _)| depth > *d) {
            best = Some((depth, kind));
        }
    };
    let regs = (0..Reg::COUNT as u8)
        .map(|r| (HwKind::CpuError { reg: Reg(r) }, Relax::Reg { reg: Reg(r) }));
    let words = candidate_words(dump)
        .into_iter()
        .map(|addr| (HwKind::MemoryError { addr }, Relax::Mem { addr }));
    for (kind, relax) in regs.chain(words) {
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
    use std::time::Duration;

    use mvm_core::flip_memory_bit_at;
    use res_obs::{read_journal, EventKind};
    use res_workloads::{build, run_to_failure, BugKind, WorkloadParams};

    use super::*;

    /// Synthesis calls journaled to `path`.
    fn searches(path: &std::path::Path) -> usize {
        read_journal(path)
            .expect("journal parses")
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Span { name, .. } if name == "synthesize"))
            .count()
    }

    /// A sweep skips the merges into a caller-owned store that would
    /// add nothing: it leaves the store exactly as merging after every
    /// one of its searches does.
    #[test]
    fn the_sweep_merges_what_merging_every_search_would() {
        let program = build(BugKind::SemanticAssert, WorkloadParams::default());
        let machine = (0..500)
            .find_map(|s| run_to_failure(&program, s))
            .expect("workload failure");
        let mut dump = Coredump::capture(&machine);
        flip_memory_bit_at(&mut dump, layout::GLOBAL_BASE, 1);
        let dir = std::env::temp_dir().join(format!("res-hwerr-merge-{}", std::process::id()));
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
        let engine = ResEngine::new(&program, config);
        let relaxations = (0..Reg::COUNT as u8)
            .map(|r| Relax::Reg { reg: Reg(r) })
            .chain(
                candidate_words(&dump)
                    .into_iter()
                    .map(|addr| Relax::Mem { addr }),
            );
        let mut appended = 0;
        for relax in std::iter::once(Relax::None).chain(relaxations) {
            let opts = SynthOptions::new().relax(relax);
            let report = engine.synthesize_in_store(&dump, opts, &mut each).store;
            appended += report.expect("a store report").appended_entries;
        }
        assert!(appended > 0, "the searches learned nothing");
        assert_eq!(swept.to_portable().entries, each.to_portable().entries);
        assert_eq!(swept.stats(), each.stats());
    }

    #[test]
    fn the_sweep_shares_one_deadline() {
        let program = build(BugKind::SemanticAssert, WorkloadParams::default());
        let machine = (0..500)
            .find_map(|s| run_to_failure(&program, s))
            .expect("workload failure");
        let mut dump = Coredump::capture(&machine);
        // Flip the global the assertion depends on: no suffix explains it.
        flip_memory_bit_at(&mut dump, layout::GLOBAL_BASE, 1);
        let dir = std::env::temp_dir().join(format!("res-hwerr-clock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the journal directory");
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
