//! Forward execution synthesis (ESD-like baseline).
//!
//! Execution synthesis [Zamfir & Candea, EuroSys'10] searches *forward*
//! from the program's start state for an execution that reproduces the
//! failure, guided by the minidump (call stack + fault). Our baseline
//! reproduces its cost structure: every candidate must execute the
//! entire prefix, so the work is `O(candidates × execution length)` —
//! and the candidate space (schedules × inputs) grows with the number of
//! scheduling and input choice points, which itself grows with length.
//! RES's cost is independent of both (experiment E3).
//!
//! The searcher is driven by the same exploration kernel as the RES
//! engine (`res_core::kernel`): candidates form a linear chain of
//! nodes walked by [`explore`], resource limits are one shared
//! [`Budget`], the minidump-match check asks a memoizing
//! [`SolverSession`] as the RES engine's compatibility check does, and
//! costs come back as [`KernelStats`]. E3 therefore compares the two
//! *algorithms* under identical accounting, not two bespoke harnesses.

use mvm_core::Minidump;
use mvm_isa::{Loc, Program};
use mvm_machine::{
    InputSource,
    Machine,
    MachineConfig,
    Outcome,
    SchedPolicy, //
};
use mvm_symbolic::{Expr, ExprRef, SolveResult, SolverConfig, SolverSession};
use res_core::kernel::{
    explore, Budget, CutReason, ExploreConfig, Finalize, HypothesisGen, KernelStats, NodeScore,
    StateTransform,
};

/// Forward-search configuration, expressed in the kernel's shared
/// vocabulary: `budget.max_nodes` is the candidate cap and
/// `budget.hyp_max_steps` the per-candidate instruction budget.
#[derive(Debug, Clone)]
pub struct ForwardConfig {
    /// Resource limits. `max_nodes` bounds candidate executions,
    /// `hyp_max_steps` bounds each candidate's instruction count, and
    /// the solver/deadline limits apply as in the RES engine.
    pub budget: Budget,
    /// Solver tuning for the compatibility check.
    pub solver: SolverConfig,
    /// Base seed.
    pub seed: u64,
}

impl Default for ForwardConfig {
    fn default() -> Self {
        ForwardConfig {
            budget: Budget {
                max_nodes: 256,
                hyp_max_steps: 5_000_000,
                max_solver_assignments: None,
                deadline: None,
            },
            solver: SolverConfig::default(),
            seed: 42,
        }
    }
}

/// The outcome of a forward synthesis attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardResult {
    /// A failure-equivalent execution was found.
    pub found: bool,
    /// Candidate executions run.
    pub candidates_tried: u64,
    /// Total instructions executed across all candidates — the cost
    /// metric that scales with execution length.
    pub total_steps: u64,
    /// The seed of the reproducing candidate.
    pub witness_seed: Option<u64>,
    /// Kernel accounting (nodes, rejections, cut reason, solver cache
    /// hits/misses) in the same shape the RES engine reports.
    pub stats: KernelStats,
}

/// The ESD-like forward searcher.
#[derive(Debug, Clone, Default)]
pub struct ForwardSynthesizer {
    config: ForwardConfig,
}

/// FNV-1a over a string, used to fingerprint observed and goal failure
/// descriptors as solver constants.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn stack_fingerprint(stack: &[Loc]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for loc in stack {
        h ^= fnv1a(&loc.to_string());
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One candidate execution, identified by its position in the seed
/// sequence. Candidates form a linear chain: expanding the node at
/// index `i` runs candidate `i` and yields the node at `i + 1`.
struct FwdNode {
    /// Next candidate index to run.
    index: u64,
    /// Seed of a reproducing candidate found on the path to this node.
    witness: Option<u64>,
}

struct ForwardDriver<'a> {
    program: &'a Program,
    /// Precomputed goal fingerprints: fault class, then call stack.
    goal_prints: [u64; 2],
    config: &'a ForwardConfig,
    session: SolverSession,
    candidates_tried: u64,
    total_steps: u64,
}

impl ForwardDriver<'_> {
    fn seed_for(&self, index: u64) -> u64 {
        self.config
            .seed
            .wrapping_add(index.wrapping_mul(0x9e37_79b9))
    }

    /// The minidump-match check as the degenerate concrete case of the
    /// kernel's `S' ⊇ Spost` seam: the observed failure descriptor must
    /// equal the goal's, expressed as equality constraints over
    /// fingerprint constants and discharged by the shared session (so
    /// repeated mismatch shapes hit the memo cache).
    fn matches_goal(&self, observed: [u64; 2]) -> bool {
        let constraints: Vec<ExprRef> = observed
            .iter()
            .zip(self.goal_prints.iter())
            .map(|(&obs, &goal)| Expr::bin(mvm_isa::BinOp::Eq, Expr::konst(obs), Expr::konst(goal)))
            .collect();
        // Concrete constraints always decide; a (theoretical) Unknown
        // counts conservatively as a mismatch.
        matches!(self.session.check(&constraints), SolveResult::Sat(_))
    }
}

impl HypothesisGen for ForwardDriver<'_> {
    type Node = FwdNode;
    type Candidate = u64;

    fn generate(&mut self, node: &FwdNode) -> Vec<u64> {
        if node.witness.is_some() || node.index >= self.config.budget.max_nodes {
            return Vec::new();
        }
        vec![self.seed_for(node.index)]
    }
}

impl StateTransform for ForwardDriver<'_> {
    fn transform(
        &mut self,
        node: &FwdNode,
        cand: &u64,
        stats: &mut KernelStats,
    ) -> Option<(NodeScore, FwdNode)> {
        let seed = *cand;
        let mut m = Machine::new(
            self.program,
            MachineConfig {
                sched: SchedPolicy::Random {
                    seed,
                    switch_per_mille: 400,
                },
                input: InputSource::Seeded {
                    seed: seed ^ 0x5eed,
                },
                max_steps: self.config.budget.hyp_max_steps,
                ..MachineConfig::default()
            },
        );
        let outcome = m.run();
        self.candidates_tried += 1;
        self.total_steps += m.steps();

        let mut witness = None;
        if let Outcome::Faulted { fault, tid, .. } = outcome {
            let t = &m.threads()[&tid];
            let stack: Vec<Loc> = t.frames.iter().map(|f| f.loc()).collect();
            let observed = [fnv1a(fault.class()), stack_fingerprint(&stack)];
            if self.matches_goal(observed) {
                stats.accepted += 1;
                witness = Some(seed);
            } else {
                // Faulted, but not the goal failure: rejected by the
                // compatibility check.
                stats.rejected_solver += 1;
            }
        } else {
            // Ran to completion (or out of steps) without faulting.
            stats.rejected_exec += 1;
        }

        // The chain always continues: the child either carries the
        // witness (and finalizes on its expansion) or moves on to the
        // next candidate.
        let child = FwdNode {
            index: node.index + 1,
            witness,
        };
        Some((NodeScore { priority: 0 }, child))
    }

    fn solver_spent(&self) -> u64 {
        self.session.assignments_spent()
    }
}

impl Finalize for ForwardDriver<'_> {
    type Artifact = u64;

    fn depth(&self, node: &FwdNode) -> usize {
        node.index as usize
    }

    fn finalize(&mut self, node: FwdNode, _stats: &mut KernelStats) -> Option<u64> {
        node.witness
    }
}

impl ForwardSynthesizer {
    /// Creates a searcher with the given configuration.
    pub fn new(config: ForwardConfig) -> Self {
        ForwardSynthesizer { config }
    }

    /// Searches for an execution reproducing the minidump's failure.
    ///
    /// A candidate matches when it faults with the same fault class at
    /// the same program counter with the same call stack — the
    /// information a minidump contains. Candidates run in seed-sequence
    /// order; the witness is the first that matches.
    pub fn synthesize(&self, program: &Program, goal: &Minidump) -> ForwardResult {
        let mut driver = ForwardDriver {
            program,
            goal_prints: [
                fnv1a(goal.fault.class()),
                stack_fingerprint(&goal.call_stack()),
            ],
            config: &self.config,
            session: SolverSession::with_config(self.config.solver),
            candidates_tried: 0,
            total_steps: 0,
        };
        let cap = self.config.budget.max_nodes;
        // The node budget is enforced by `generate` (the candidate cap);
        // give the kernel two nodes of headroom so a witness found on
        // the very last candidate still gets its finalize expansion
        // instead of being cut at the pop.
        let explore_cfg = ExploreConfig {
            budget: Budget {
                max_nodes: cap.saturating_add(2),
                ..self.config.budget
            },
            max_depth: usize::MAX,
            max_artifacts: 1,
            settle_depth: usize::MAX,
        };
        let mut stats = KernelStats::default();
        let root = FwdNode {
            index: 0,
            witness: None,
        };
        let artifacts = explore(&mut driver, root, &explore_cfg, &mut stats);
        stats.solver = driver.session.stats();
        let witness_seed = artifacts.first().copied();
        if witness_seed.is_none() && stats.cut.is_none() {
            // The candidate cap is this harness's node budget; record
            // exhausting it as the cut rather than reporting a silently
            // truncated search.
            stats.cut = Some(CutReason::Nodes);
        }
        ForwardResult {
            found: witness_seed.is_some(),
            candidates_tried: driver.candidates_tried,
            total_steps: driver.total_steps,
            witness_seed,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_core::{Coredump, Minidump};
    use res_workloads::{build, run_to_failure, BugKind, WorkloadParams};

    fn goal_for(kind: BugKind, prefix: u64) -> (Program, Minidump) {
        let p = build(
            kind,
            WorkloadParams {
                prefix_iters: prefix,
                ..WorkloadParams::default()
            },
        );
        let m = (0..300)
            .find_map(|s| run_to_failure(&p, s))
            .expect("workload must fail");
        let d = Coredump::capture(&m);
        (p, Minidump::from_coredump(&d))
    }

    #[test]
    fn finds_deterministic_failures() {
        let (p, goal) = goal_for(BugKind::DivByZero, 10);
        let r = ForwardSynthesizer::default().synthesize(&p, &goal);
        assert!(r.found);
        assert_eq!(r.candidates_tried, 1);
        assert_eq!(r.stats.accepted, 1);
        assert_eq!(r.stats.cut, None);
    }

    #[test]
    fn cost_scales_with_prefix_length() {
        let (p1, g1) = goal_for(BugKind::DivByZero, 10);
        let (p2, g2) = goal_for(BugKind::DivByZero, 10_000);
        let s = ForwardSynthesizer::default();
        let r1 = s.synthesize(&p1, &g1);
        let r2 = s.synthesize(&p2, &g2);
        assert!(r1.found && r2.found);
        assert!(
            r2.total_steps > r1.total_steps * 100,
            "long prefix must cost much more: {} vs {}",
            r2.total_steps,
            r1.total_steps
        );
    }

    #[test]
    fn concurrency_failures_need_many_candidates() {
        let (p, goal) = goal_for(BugKind::AtomicityViolation, 10);
        let r = ForwardSynthesizer::new(ForwardConfig {
            budget: Budget {
                max_nodes: 512,
                ..ForwardConfig::default().budget
            },
            ..ForwardConfig::default()
        })
        .synthesize(&p, &goal);
        // The exact schedule must be re-discovered; this typically takes
        // more than one candidate (and may fail outright).
        assert!(r.candidates_tried >= 1);
        assert!(r.total_steps > 0);
    }

    #[test]
    fn exhausted_candidate_space_is_a_recorded_cut() {
        // An impossible goal: doctor the minidump's fault class so no
        // candidate can ever match.
        let (p, mut goal) = goal_for(BugKind::DivByZero, 10);
        goal.fault = mvm_machine::Fault::OutOfMemory;
        let r = ForwardSynthesizer::new(ForwardConfig {
            budget: Budget {
                max_nodes: 8,
                ..ForwardConfig::default().budget
            },
            ..ForwardConfig::default()
        })
        .synthesize(&p, &goal);
        assert!(!r.found);
        assert_eq!(r.candidates_tried, 8);
        assert_eq!(r.stats.cut, Some(CutReason::Nodes));
        // Repeated mismatch shapes share memoized solver answers.
        assert!(r.stats.solver.queries >= 1);
        assert!(r.stats.solver.cache_hits + r.stats.solver.cache_misses == r.stats.solver.queries);
    }
}
