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
//!   havoc + forward exec, whose `S' ⊇ Spost` compatibility check asks
//!   the search's [`mvm_symbolic::SolverSession`]), and artifact
//!   completion ([`Finalize`]).
//!
//! [`explore`] is the loop itself, a depth-first search generic over a
//! driver implementing the seams.

pub mod budget;
pub mod par;
pub mod stats;

pub use budget::{Budget, BudgetMeter, CutReason};
pub use par::{auto_workers, parallel_map};
pub use stats::{AbandonedSpace, KernelStats, ParallelReport};

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
    /// the failure in `stats`). The node leaves the search here, so the
    /// artifact may take what only the node holds instead of copying it.
    fn finalize(&mut self, node: Self::Node, stats: &mut KernelStats) -> Option<Self::Artifact>;
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
    /// Stop after the first artifact at least this deep: a caller that
    /// reads only whether an artifact exists sets 0, one that reads
    /// only the deepest artifact's depth sets `max_depth`, and every
    /// other caller sets `usize::MAX`, which no artifact reaches.
    pub settle_depth: usize,
}

/// The exploration loop: a depth-first search over a stack.
///
/// Replicates the historical engine's order of operations exactly (the
/// golden suffix fixture depends on it): pop; stop if enough artifacts,
/// or one deep enough to settle the search; admit against the budget
/// (recording the cut and the abandoned stack on failure); count the
/// expansion; finalize at the depth horizon; generate hypotheses
/// (finalizing childless nodes); transform each; finalize cul-de-sacs
/// of nonzero depth; push surviving children. Everything the loop
/// counts goes to `stats`.
pub fn explore<D>(
    driver: &mut D,
    root: D::Node,
    config: &ExploreConfig,
    stats: &mut KernelStats,
) -> Vec<D::Artifact>
where
    D: StateTransform + Finalize,
{
    let meter = BudgetMeter::start();
    let mut artifacts = Vec::new();
    let mut stack = vec![root];
    let mut settled = false;
    while let Some(node) = stack.pop() {
        if artifacts.len() >= config.max_artifacts || settled {
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
            break;
        }
        stats.nodes_expanded += 1;
        let depth = driver.depth(&node);
        stats.deepest = stats.deepest.max(depth);

        if depth >= config.max_depth {
            if let Some(a) = driver.finalize(node, stats) {
                artifacts.push(a);
                settled = depth >= config.settle_depth;
            }
            continue;
        }
        let candidates = driver.generate(&node);
        if candidates.is_empty() {
            if let Some(a) = driver.finalize(node, stats) {
                artifacts.push(a);
                settled = depth >= config.settle_depth;
            }
            continue;
        }
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
                if let Some(a) = driver.finalize(node, stats) {
                    artifacts.push(a);
                    settled = depth >= config.settle_depth;
                }
            }
            continue;
        }
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
        fn finalize(&mut self, node: u32, _stats: &mut KernelStats) -> Option<u32> {
            Some(node)
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
        fn finalize(&mut self, node: u32, _stats: &mut KernelStats) -> Option<u32> {
            Some(node)
        }
    }

    fn run<D: StateTransform + Finalize>(
        driver: &mut D,
        root: D::Node,
        config: &ExploreConfig,
    ) -> (Vec<D::Artifact>, KernelStats) {
        let mut stats = KernelStats::default();
        let artifacts = explore(driver, root, config, &mut stats);
        (artifacts, stats)
    }

    #[test]
    fn dfs_explores_best_priority_first() {
        let mut d = TreeDriver { reject_odd: false };
        let cfg = ExploreConfig {
            budget: Budget::default(),
            max_depth: 2,
            max_artifacts: 1,
            settle_depth: usize::MAX,
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
            settle_depth: usize::MAX,
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
            settle_depth: usize::MAX,
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
            settle_depth: usize::MAX,
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
            settle_depth: usize::MAX,
        };
        let (artifacts, stats) = run(&mut d, 1, &cfg);
        assert_eq!(artifacts, vec![8, 9]);
        assert_eq!(stats.cut, None, "artifact cap is not a budget cut");
    }

    /// The first artifact as deep as `settle_depth` ends the search; a
    /// shallower one does not.
    #[test]
    fn a_deep_enough_artifact_settles_the_search() {
        let mut d = TreeDriver { reject_odd: false };
        let settle = |settle_depth| ExploreConfig {
            budget: Budget::default(),
            max_depth: 3,
            max_artifacts: 64,
            settle_depth,
        };
        let (all, _) = run(&mut d, 1, &settle(usize::MAX));
        assert_eq!(all, vec![8, 9, 10, 11, 12, 13, 14, 15]);
        let (first, stats) = run(&mut d, 1, &settle(3));
        assert_eq!(first, vec![8]);
        assert_eq!(stats.nodes_expanded, 4, "the root, 2, 4 and 8");
        // Every artifact here is 3 deep, so none settles a search that
        // waits for a deeper one.
        assert_eq!(run(&mut d, 1, &settle(4)).0, all);
    }
}
