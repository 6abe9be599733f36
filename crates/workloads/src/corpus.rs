//! Labeled failure corpora.
//!
//! A corpus is what a Windows-Error-Reporting-style backend receives: a
//! stream of crash reports (coredump or minidump), each secretly caused
//! by one of a set of known bugs. Because the corpus generator *knows*
//! which bug produced each report, triaging accuracy (experiment E5) and
//! hardware-filter precision (E7) are measurable.

use mvm_core::{Coredump, Minidump};
use mvm_isa::Program;
use mvm_machine::{
    InputSource,
    Machine,
    MachineConfig,
    Outcome,
    SchedPolicy,
    TraceLevel, //
};

use crate::progs::{build, BugKind, WorkloadParams};

/// One labeled failure.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// The ground-truth bug.
    pub kind: BugKind,
    /// The program that failed (shared across reports of the same kind).
    pub program: Program,
    /// The full coredump.
    pub dump: Coredump,
    /// The WER-style minidump subset.
    pub minidump: Minidump,
    /// Scheduler/input seed that produced this failure.
    pub seed: u64,
}

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Bug kinds to include.
    pub kinds: Vec<BugKind>,
    /// Failures to collect per kind.
    pub per_kind: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Workload knobs.
    pub params: WorkloadParams,
    /// Seeds tried per requested failure before giving up (concurrency
    /// bugs do not manifest under every schedule).
    pub max_attempts_per_failure: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            kinds: BugKind::ALL.to_vec(),
            per_kind: 4,
            seed: 0xc0ffee,
            params: WorkloadParams::default(),
            max_attempts_per_failure: 200,
        }
    }
}

/// Runs a program under a seeded random schedule and seeded inputs until
/// it faults, returning the machine if it does.
pub fn run_to_failure(program: &Program, seed: u64) -> Option<Machine<'_>> {
    let mut m = Machine::new(
        program,
        MachineConfig {
            sched: SchedPolicy::Random {
                seed,
                switch_per_mille: 400,
            },
            input: InputSource::Seeded {
                seed: seed ^ 0x5eed,
            },
            trace: TraceLevel::Off,
            max_steps: 2_000_000,
            ..MachineConfig::default()
        },
    );
    match m.run() {
        Outcome::Faulted { .. } => Some(m),
        _ => None,
    }
}

/// Generates a labeled corpus.
pub fn generate_corpus(spec: &CorpusSpec) -> Vec<FailureReport> {
    let mut out = Vec::new();
    for (ki, &kind) in spec.kinds.iter().enumerate() {
        let program = build(kind, spec.params);
        let mut collected = 0usize;
        let mut attempt = 0u64;
        while collected < spec.per_kind && attempt < spec.max_attempts_per_failure {
            let seed = spec
                .seed
                .wrapping_add(ki as u64 * 10_007)
                .wrapping_add(attempt * 7919);
            attempt += 1;
            let Some(m) = run_to_failure(&program, seed) else {
                continue;
            };
            let dump = Coredump::capture(&m);
            let minidump = Minidump::from_coredump(&dump);
            out.push(FailureReport {
                kind,
                program: program.clone(),
                dump,
                minidump,
                seed,
            });
            collected += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_bugs_always_fail() {
        for kind in [
            BugKind::DivByZero,
            BugKind::SemanticAssert,
            BugKind::UseAfterFree,
            BugKind::DoubleFree,
            BugKind::HashChain,
            BugKind::Figure1,
            BugKind::HeapOverflowLocal,
            BugKind::UafSameStack,
        ] {
            let p = build(kind, WorkloadParams::default());
            assert!(
                run_to_failure(&p, 1).is_some(),
                "{kind:?} should fail deterministically"
            );
        }
    }

    #[test]
    fn concurrency_bugs_fail_under_some_schedule() {
        for kind in [
            BugKind::DataRace,
            BugKind::AtomicityViolation,
            BugKind::OrderViolation,
            BugKind::Deadlock,
            BugKind::RaceNullDeref,
        ] {
            let p = build(kind, WorkloadParams::default());
            let found = (0..300).any(|s| run_to_failure(&p, s).is_some());
            assert!(found, "{kind:?} never failed in 300 schedules");
        }
    }

    #[test]
    fn corpus_collects_labeled_reports() {
        let spec = CorpusSpec {
            kinds: vec![BugKind::DivByZero, BugKind::UseAfterFree],
            per_kind: 3,
            ..CorpusSpec::default()
        };
        let corpus = generate_corpus(&spec);
        assert_eq!(corpus.len(), 6);
        assert!(corpus.iter().all(|r| r.dump.threads.iter().len() >= 1));
        assert_eq!(
            corpus
                .iter()
                .filter(|r| r.kind == BugKind::DivByZero)
                .count(),
            3
        );
    }

    #[test]
    fn race_null_deref_produces_multiple_stacks() {
        // The same root cause must manifest with at least two distinct
        // stack signatures across schedules/inputs — the §3.1 triaging
        // phenomenon.
        let p = build(BugKind::RaceNullDeref, WorkloadParams::default());
        let mut sigs = std::collections::HashSet::new();
        for s in 0..400 {
            if let Some(m) = run_to_failure(&p, s) {
                let d = Coredump::capture(&m);
                sigs.insert(d.stack_signature(2));
                if sigs.len() >= 2 {
                    break;
                }
            }
        }
        assert!(sigs.len() >= 2, "only {} distinct stacks", sigs.len());
    }

    #[test]
    fn engineered_stack_collision_across_bugs() {
        // RaceNullDeref and UafSameStack fault at the same helper with
        // aligned frame locations: naive top-frame bucketing cannot
        // separate them.
        let race = build(BugKind::RaceNullDeref, WorkloadParams::default());
        let uaf = build(BugKind::UafSameStack, WorkloadParams::default());
        let race_dump = (0..400)
            .find_map(|s| run_to_failure(&race, s))
            .map(|m| Coredump::capture(&m))
            .expect("race failure");
        let uaf_dump = run_to_failure(&uaf, 1)
            .map(|m| Coredump::capture(&m))
            .expect("uaf failure");
        assert_eq!(
            race_dump.stack_signature(1),
            uaf_dump.stack_signature(1),
            "innermost frames must collide"
        );
    }
}
