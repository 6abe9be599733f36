//! The layered exploration kernel.
//!
//! The paper's core loop (§2.3–§2.4) is a budgeted backward search:
//! pop a node, form predecessor hypotheses, test each by forward
//! symbolic execution, keep the compatible children, repeat. The kernel
//! factors that loop out of the RES engine so the same machinery drives
//! the forward-ES baseline (making E3 apples-to-apples) and so budgets
//! and solver accounting are each one seam:
//!
//! * [`budget`] — one [`Budget`] over nodes, per-hypothesis
//!   instructions, solver assignments, and wall clock; every cutoff is
//!   a [`CutReason`].
//! * [`stats`] — [`KernelStats`], what one search did.
//! * [`par`] — [`parallel_map`], fan-out *across* searches (corpus
//!   runs, the harness); each search runs on one thread.
//! * the trait seams below — hypothesis generation
//!   ([`HypothesisGen`]), state transformation ([`StateTransform`]:
//!   havoc + forward exec), artifact completion ([`Finalize`]), and the
//!   `S' ⊇ Spost` compatibility check ([`CompatCheck`]).
//!
//! [`explore`] is the loop itself, a depth-first search generic over a
//! driver implementing the seams.

pub mod budget;
pub mod par;
pub mod stats;

pub use budget::{Budget, BudgetMeter, CutReason};
pub use par::{auto_workers, parallel_map};
pub use stats::{AbandonedSpace, KernelStats, ParallelReport};
// Re-exported so kernel drivers in other crates can call [`explore`]
// without a manifest dependency on the tracing crate.
pub use res_obs::{Recorder, Span};

use mvm_symbolic::{ExprRef, SolveResult, SolverSession, UnknownReason};

/// How promising a surviving child is: [`explore`] expands the lowest
/// `priority` first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeScore {
    /// Candidate priority from hypothesis enumeration; 0 is best.
    pub priority: u8,
}

/// Produces predecessor (or, for forward search, successor) hypotheses
/// for a node.
pub trait HypothesisGen {
    /// A point in the search space.
    type Node;
    /// One hypothesis about how to extend it.
    type Candidate;

    /// Enumerates the hypotheses for `node`, in deterministic order.
    fn generate(&mut self, node: &Self::Node) -> Vec<Self::Candidate>;
}

/// Tests a hypothesis and, when it survives, builds the child node.
///
/// For RES this is havoc + forward symbolic execution of the
/// hypothesized range plus the global satisfiability check; for the
/// forward-ES baseline it is a concrete machine run.
pub trait StateTransform: HypothesisGen {
    /// Executes the hypothesis. `None` rejects it (the transform
    /// records the rejection reason in `stats`); `Some` yields the
    /// child and its score.
    fn transform(
        &mut self,
        node: &Self::Node,
        cand: &Self::Candidate,
        stats: &mut KernelStats,
    ) -> Option<(NodeScore, Self::Node)>;

    /// Cumulative solver assignments spent so far, for
    /// [`Budget::max_solver_assignments`] enforcement.
    fn solver_spent(&self) -> u64 {
        0
    }
}

/// Turns a finished node into a search artifact.
pub trait Finalize: HypothesisGen {
    /// What the search produces (an `ExecutionSuffix` for RES, a
    /// witness schedule for forward-ES).
    type Artifact;

    /// Depth of `node` — the kernel's horizon check compares this
    /// against the configured maximum.
    fn depth(&self, node: &Self::Node) -> usize;

    /// Completes `node` into an artifact, or rejects it late (counting
    /// the failure in `stats`).
    fn finalize(&mut self, node: &Self::Node, stats: &mut KernelStats) -> Option<Self::Artifact>;
}

/// Verdict of a compatibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompatVerdict {
    /// A witness exists: the hypothesized earlier state can produce the
    /// observed later state (`S' ⊇ Spost` holds).
    Compatible,
    /// Proven incompatible.
    Incompatible,
    /// The solver could not decide; RES keeps the hypothesis but flags
    /// the suffix approximate.
    Undecided(UnknownReason),
}

/// The `S' ⊇ Spost` compatibility check (paper §2.4) as a seam: given
/// the accumulated constraint set, is the hypothesized execution
/// consistent with everything reconstructed after it?
pub trait CompatCheck {
    /// Checks the conjunction of `constraints`.
    fn compatible(&self, constraints: &[ExprRef]) -> CompatVerdict;
}

/// The standard implementation: ask the (memoizing) solver session.
pub struct SessionCompat<'s> {
    session: &'s SolverSession,
}

impl<'s> SessionCompat<'s> {
    /// Wraps a session.
    pub fn new(session: &'s SolverSession) -> Self {
        SessionCompat { session }
    }
}

impl CompatCheck for SessionCompat<'_> {
    fn compatible(&self, constraints: &[ExprRef]) -> CompatVerdict {
        match self.session.check(constraints) {
            SolveResult::Sat(_) => CompatVerdict::Compatible,
            SolveResult::Unsat => CompatVerdict::Incompatible,
            SolveResult::Unknown(reason) => CompatVerdict::Undecided(reason),
        }
    }
}

/// Limits for one [`explore`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Resource budgets.
    pub budget: Budget,
    /// Maximum node depth; nodes at the horizon are finalized, not
    /// expanded.
    pub max_depth: usize,
    /// Stop after this many artifacts.
    pub max_artifacts: usize,
}

/// The exploration loop: a depth-first search over a stack.
///
/// Replicates the historical engine's order of operations exactly (the
/// golden suffix fixture depends on it): pop; stop if enough artifacts;
/// admit against the budget (recording the cut and the abandoned stack
/// on failure); count the expansion; finalize at the depth horizon;
/// generate hypotheses (finalizing childless nodes); transform each;
/// finalize cul-de-sacs of nonzero depth; push surviving children.
///
/// `recorder` is a strictly passive observer (pass an already-scoped
/// handle, e.g. `rec.scoped("kernel")`, or [`Recorder::disabled`]):
/// the loop never reads it, so enabling tracing cannot perturb the
/// search order.
pub fn explore<D>(
    driver: &mut D,
    root: D::Node,
    config: &ExploreConfig,
    stats: &mut KernelStats,
    recorder: &Recorder,
) -> Vec<D::Artifact>
where
    D: StateTransform + Finalize,
{
    let meter = BudgetMeter::start();
    let mut artifacts = Vec::new();
    let mut stack = vec![root];
    recorder.counter("frontier_push", 1);
    while let Some(node) = stack.pop() {
        recorder.counter("frontier_pop", 1);
        if artifacts.len() >= config.max_artifacts {
            break;
        }
        if let Some(cut) = config
            .budget
            .admit(&meter, stats.nodes_expanded, driver.solver_spent())
        {
            stats.cut = Some(cut);
            stats.abandoned.record(driver.depth(&node));
            for n in &stack {
                stats.abandoned.record(driver.depth(n));
            }
            let abandoned = stats.abandoned.nodes;
            recorder.event_with("cut", || {
                vec![
                    ("reason".into(), format!("{cut:?}")),
                    ("abandoned".into(), abandoned.to_string()),
                ]
            });
            break;
        }
        stats.nodes_expanded += 1;
        recorder.counter("nodes_expanded", 1);
        let depth = driver.depth(&node);
        stats.deepest = stats.deepest.max(depth);

        if depth >= config.max_depth {
            if let Some(a) = driver.finalize(&node, stats) {
                artifacts.push(a);
                recorder.counter("artifacts", 1);
            }
            continue;
        }
        let candidates = driver.generate(&node);
        if candidates.is_empty() {
            if let Some(a) = driver.finalize(&node, stats) {
                artifacts.push(a);
                recorder.counter("artifacts", 1);
            }
            continue;
        }
        recorder.counter("hypotheses", candidates.len() as u64);
        let mut children = Vec::new();
        for cand in candidates {
            stats.hypotheses += 1;
            if let Some(child) = driver.transform(&node, &cand, stats) {
                children.push(child);
            }
        }
        if children.is_empty() {
            // Cul-de-sac: the node itself is the longest suffix on this
            // path.
            if depth > 0 {
                if let Some(a) = driver.finalize(&node, stats) {
                    artifacts.push(a);
                    recorder.counter("artifacts", 1);
                }
            }
            continue;
        }
        recorder.counter("frontier_push", children.len() as u64);
        // Stable sort by *descending* priority value, then push in
        // order: the best (lowest value) lands on top of the stack, and
        // among equal priorities the later-enumerated child pops first.
        // This is exactly the historical `sort_by(|a, b| b.0.cmp(&a.0))`
        // + push loop; do not "simplify" to ascending-sort-and-reverse,
        // which flips the equal-priority order.
        children.sort_by_key(|(score, _)| std::cmp::Reverse(score.priority));
        stack.extend(children.into_iter().map(|(_, child)| child));
    }
    artifacts
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy driver over a binary tree of u32 paths: node `p` has
    /// children `2p` and `2p+1`; leaves at the depth horizon finalize
    /// to their path value.
    struct TreeDriver {
        reject_odd: bool,
    }

    fn bit_depth(n: u32) -> usize {
        (31 - n.leading_zeros()) as usize
    }

    impl HypothesisGen for TreeDriver {
        type Node = u32;
        type Candidate = u32;
        fn generate(&mut self, node: &u32) -> Vec<u32> {
            vec![node * 2, node * 2 + 1]
        }
    }

    impl StateTransform for TreeDriver {
        fn transform(
            &mut self,
            _node: &u32,
            cand: &u32,
            stats: &mut KernelStats,
        ) -> Option<(NodeScore, u32)> {
            if self.reject_odd && cand % 2 == 1 {
                stats.rejected_structural += 1;
                return None;
            }
            stats.accepted += 1;
            Some((
                NodeScore {
                    priority: (cand % 2) as u8,
                },
                *cand,
            ))
        }
    }

    impl Finalize for TreeDriver {
        type Artifact = u32;
        fn depth(&self, node: &u32) -> usize {
            bit_depth(*node)
        }
        fn finalize(&mut self, node: &u32, _stats: &mut KernelStats) -> Option<u32> {
            Some(*node)
        }
    }

    /// A root (node 0) whose children `1..=n` carry the given
    /// priorities and finalize at depth 1, so the artifacts list the
    /// order in which the stack pops them.
    struct FanDriver {
        priorities: Vec<u8>,
    }

    impl HypothesisGen for FanDriver {
        type Node = u32;
        type Candidate = u32;
        fn generate(&mut self, _node: &u32) -> Vec<u32> {
            (1..=self.priorities.len() as u32).collect()
        }
    }

    impl StateTransform for FanDriver {
        fn transform(
            &mut self,
            _node: &u32,
            cand: &u32,
            _stats: &mut KernelStats,
        ) -> Option<(NodeScore, u32)> {
            let priority = self.priorities[*cand as usize - 1];
            Some((NodeScore { priority }, *cand))
        }
    }

    impl Finalize for FanDriver {
        type Artifact = u32;
        fn depth(&self, node: &u32) -> usize {
            usize::from(*node > 0)
        }
        fn finalize(&mut self, node: &u32, _stats: &mut KernelStats) -> Option<u32> {
            Some(*node)
        }
    }

    fn run<D: StateTransform + Finalize>(
        driver: &mut D,
        root: D::Node,
        config: &ExploreConfig,
    ) -> (Vec<D::Artifact>, KernelStats) {
        let mut stats = KernelStats::default();
        let artifacts = explore(driver, root, config, &mut stats, &Recorder::disabled());
        (artifacts, stats)
    }

    #[test]
    fn dfs_explores_best_priority_first() {
        let mut d = TreeDriver { reject_odd: false };
        let cfg = ExploreConfig {
            budget: Budget::default(),
            max_depth: 2,
            max_artifacts: 1,
        };
        let (artifacts, stats) = run(&mut d, 1, &cfg);
        // Even children score priority 0, so DFS dives 1 → 2 → 4.
        assert_eq!(artifacts, vec![4]);
        assert_eq!(stats.cut, None);
        assert!(stats.deepest >= 2);
    }

    /// The property the golden suffix fixture depends on: descending
    /// stable sort + stack push means the best (lowest) priority pops
    /// first, and among equal priorities the *later-enumerated* sibling
    /// pops first — exactly the historical engine's order.
    #[test]
    fn equal_priority_siblings_pop_latest_enumerated_first() {
        let mut d = FanDriver {
            priorities: vec![2, 0, 0, 1],
        };
        let cfg = ExploreConfig {
            budget: Budget::default(),
            max_depth: 1,
            max_artifacts: 64,
        };
        let (artifacts, _) = run(&mut d, 0, &cfg);
        assert_eq!(artifacts, vec![3, 2, 4, 1]);
    }

    #[test]
    fn budget_cut_records_abandoned_frontier() {
        let mut d = TreeDriver { reject_odd: false };
        let cfg = ExploreConfig {
            budget: Budget {
                max_nodes: 2,
                ..Budget::default()
            },
            max_depth: 8,
            max_artifacts: 64,
        };
        let (artifacts, stats) = run(&mut d, 1, &cfg);
        assert!(artifacts.is_empty());
        assert_eq!(stats.cut, Some(CutReason::Nodes));
        assert_eq!(stats.nodes_expanded, 2);
        // After 2 expansions the stack holds 3 entries; all 3 are
        // abandoned (the popped one plus the rest).
        assert_eq!(stats.abandoned.nodes, 3);
        assert!(stats.abandoned.max_depth >= stats.abandoned.min_depth);
    }

    #[test]
    fn childless_nodes_finalize_as_cul_de_sacs() {
        let mut d = TreeDriver { reject_odd: true };
        let cfg = ExploreConfig {
            budget: Budget::default(),
            max_depth: 3,
            max_artifacts: 64,
        };
        let (artifacts, stats) = run(&mut d, 1, &cfg);
        // Only even children survive: the single chain 1→2→4→8 (node 8
        // sits at the depth horizon, so 3 expansions reject odd kids).
        assert_eq!(artifacts, vec![8]);
        assert_eq!(stats.rejected_structural, 3);
    }

    #[test]
    fn artifact_cap_stops_the_search() {
        let mut d = TreeDriver { reject_odd: false };
        let cfg = ExploreConfig {
            budget: Budget::default(),
            max_depth: 3,
            max_artifacts: 2,
        };
        let (artifacts, stats) = run(&mut d, 1, &cfg);
        assert_eq!(artifacts, vec![8, 9]);
        assert_eq!(stats.cut, None, "artifact cap is not a budget cut");
    }
}
