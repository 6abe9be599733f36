//! Kernel statistics — the currency of experiments E3, E4, A1, and A3.
//!
//! [`KernelStats`] replaced the old `SearchStats` (the transitional
//! alias is gone): every historical counter is kept under its old name,
//! and the kernel layers add what the monolith could not report — which
//! budget cut the search ([`CutReason`]), how much frontier was
//! abandoned when it did, solver-session cache behaviour, and the split
//! of accepted solver Unknowns by reason. For sharded runs,
//! [`KernelStats::absorb`] rolls per-worker stats into one report and
//! [`ParallelReport`] carries the cross-worker accounting.

use mvm_json::json_struct;
use mvm_symbolic::SessionStats;

use super::budget::CutReason;

/// Frontier entries left unexplored when a budget cut the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbandonedSpace {
    /// Entries abandoned (the popped-but-unexpanded node plus the rest
    /// of the frontier).
    pub nodes: u64,
    /// Shallowest abandoned depth (0 when nothing was abandoned).
    pub min_depth: usize,
    /// Deepest abandoned depth.
    pub max_depth: usize,
}

json_struct!(AbandonedSpace {
    nodes,
    min_depth,
    max_depth
});

impl AbandonedSpace {
    /// Accounts one abandoned entry at `depth`.
    pub fn record(&mut self, depth: usize) {
        if self.nodes == 0 {
            self.min_depth = depth;
            self.max_depth = depth;
        } else {
            self.min_depth = self.min_depth.min(depth);
            self.max_depth = self.max_depth.max(depth);
        }
        self.nodes += 1;
    }

    /// Folds another worker's abandoned accounting into this one.
    pub fn absorb(&mut self, other: &AbandonedSpace) {
        if other.nodes == 0 {
            return;
        }
        if self.nodes == 0 {
            *self = *other;
            return;
        }
        self.min_depth = self.min_depth.min(other.min_depth);
        self.max_depth = self.max_depth.max(other.max_depth);
        self.nodes += other.nodes;
    }
}

/// Search statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Nodes expanded.
    pub nodes_expanded: u64,
    /// Hypotheses executed.
    pub hypotheses: u64,
    /// Hypotheses accepted.
    pub accepted: u64,
    /// Rejections: control flow cannot work.
    pub rejected_structural: u64,
    /// Rejections: execution-time contradiction.
    pub rejected_exec: u64,
    /// Rejections: solver proved the combined constraints unsatisfiable.
    pub rejected_solver: u64,
    /// Rejections: LBR breadcrumb mismatch.
    pub rejected_lbr: u64,
    /// Rejections: error-log breadcrumb mismatch.
    pub rejected_log: u64,
    /// Rejections: per-hypothesis budget (inconclusive).
    pub rejected_budget: u64,
    /// Acceptances that leaned on a solver Unknown.
    pub unknown_accepted: u64,
    /// ... of which the solver ran out of assignment budget.
    pub unknown_accepted_budget: u64,
    /// ... of which the constraints were outside the solver's theory.
    pub unknown_accepted_incomplete: u64,
    /// Complete suffixes whose final model solve failed (pruned late).
    pub finalize_failed: u64,
    /// Deepest suffix reached.
    pub deepest: usize,
    /// Which budget dimension cut the search, if any.
    pub cut: Option<CutReason>,
    /// Frontier left unexplored by the cut.
    pub abandoned: AbandonedSpace,
    /// Solver-session counters for this search (queries, cache
    /// hits/misses, verdict tallies, assignments spent).
    pub solver: SessionStats,
    /// Always zero: the search never skips a subtree. Kept only because
    /// the benchmark (`perfbench/`) reads `stats.skipped.nodes`; it
    /// leaves together with the benchmark's `res.skipped_nodes` and
    /// `res.skip_ratio` metrics when the benchmark is next revised.
    pub skipped: SkippedNodes,
}

/// The type of [`KernelStats::skipped`]; see there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkippedNodes {
    /// Always zero.
    pub nodes: u64,
}

json_struct!(SkippedNodes { nodes });

json_struct!(KernelStats {
    nodes_expanded,
    hypotheses,
    accepted,
    rejected_structural,
    rejected_exec,
    rejected_solver,
    rejected_lbr,
    rejected_log,
    rejected_budget,
    unknown_accepted,
    unknown_accepted_budget,
    unknown_accepted_incomplete,
    finalize_failed,
    deepest,
    cut,
    abandoned,
    solver,
    skipped
});

impl KernelStats {
    /// Folds another worker's stats into this one: counters sum, depth
    /// high-water marks take the max, abandoned ranges merge, and the
    /// first recorded cut wins (workers are folded in worker order, so
    /// the reported reason is deterministic).
    pub fn absorb(&mut self, other: &KernelStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.hypotheses += other.hypotheses;
        self.accepted += other.accepted;
        self.rejected_structural += other.rejected_structural;
        self.rejected_exec += other.rejected_exec;
        self.rejected_solver += other.rejected_solver;
        self.rejected_lbr += other.rejected_lbr;
        self.rejected_log += other.rejected_log;
        self.rejected_budget += other.rejected_budget;
        self.unknown_accepted += other.unknown_accepted;
        self.unknown_accepted_budget += other.unknown_accepted_budget;
        self.unknown_accepted_incomplete += other.unknown_accepted_incomplete;
        self.finalize_failed += other.finalize_failed;
        self.deepest = self.deepest.max(other.deepest);
        self.cut = self.cut.or(other.cut);
        self.abandoned.absorb(&other.abandoned);
        self.solver.absorb(&other.solver);
    }
}

/// Accounting for one sharded (multi-worker) synthesis run.
///
/// The engine's parallel mode is speculate-then-replay: N workers
/// explore disjoint frontier shards to warm a portable solver cache,
/// then the exact sequential search replays over the warmed cache (see
/// `DESIGN.md`, "The parallel kernel"). The headline
/// [`KernelStats`] of a run always describes the authoritative replay;
/// this report carries what the speculative fan-out did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelReport {
    /// Worker count the run was sharded across.
    pub workers: usize,
    /// All workers' exploration stats, folded in worker order.
    pub speculative: KernelStats,
    /// Nodes expanded by each worker (index = worker id).
    pub per_worker_nodes: Vec<u64>,
    /// Portable solver-cache entries the workers handed to the replay.
    pub cache_entries: usize,
}

json_struct!(ParallelReport {
    workers,
    speculative,
    per_worker_nodes,
    cache_entries
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abandoned_tracks_depth_range() {
        let mut a = AbandonedSpace::default();
        a.record(3);
        assert_eq!((a.nodes, a.min_depth, a.max_depth), (1, 3, 3));
        a.record(7);
        a.record(1);
        assert_eq!((a.nodes, a.min_depth, a.max_depth), (3, 1, 7));
    }

    #[test]
    fn default_stats_report_no_cut() {
        let s = KernelStats::default();
        assert_eq!(s.cut, None);
        assert_eq!(s.abandoned.nodes, 0);
        assert_eq!(s.solver.queries, 0);
    }

    #[test]
    fn absorb_sums_counters_and_merges_extremes() {
        let mut a = KernelStats {
            nodes_expanded: 3,
            hypotheses: 5,
            deepest: 2,
            ..KernelStats::default()
        };
        a.abandoned.record(4);
        let mut b = KernelStats {
            nodes_expanded: 7,
            hypotheses: 1,
            deepest: 6,
            cut: Some(CutReason::Nodes),
            ..KernelStats::default()
        };
        b.abandoned.record(1);
        b.abandoned.record(9);
        a.absorb(&b);
        assert_eq!(a.nodes_expanded, 10);
        assert_eq!(a.hypotheses, 6);
        assert_eq!(a.deepest, 6);
        assert_eq!(a.cut, Some(CutReason::Nodes));
        assert_eq!(
            (
                a.abandoned.nodes,
                a.abandoned.min_depth,
                a.abandoned.max_depth
            ),
            (3, 1, 9)
        );
    }

    #[test]
    fn absorb_keeps_first_cut() {
        let mut a = KernelStats {
            cut: Some(CutReason::Deadline),
            ..KernelStats::default()
        };
        a.absorb(&KernelStats {
            cut: Some(CutReason::Nodes),
            ..KernelStats::default()
        });
        assert_eq!(a.cut, Some(CutReason::Deadline));
    }

    #[test]
    fn absorb_into_empty_abandoned_copies() {
        let mut a = AbandonedSpace::default();
        let mut b = AbandonedSpace::default();
        b.record(5);
        a.absorb(&b);
        assert_eq!((a.nodes, a.min_depth, a.max_depth), (1, 5, 5));
        a.absorb(&AbandonedSpace::default());
        assert_eq!(a.nodes, 1, "empty absorb is a no-op");
    }
}
