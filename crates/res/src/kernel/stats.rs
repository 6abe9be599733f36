//! Kernel statistics — the currency of experiments E3, E4, A1, and A3.
//!
//! [`KernelStats`] replaced the old `SearchStats` (the transitional
//! alias is gone): every historical counter is kept under its old name,
//! and the kernel layers add what the monolith could not report — which
//! budget cut the search ([`CutReason`]), how much of the stack was
//! abandoned when it did, solver-session cache behaviour, and the split
//! of accepted solver Unknowns by reason.

use mvm_json::json_struct;
use mvm_symbolic::SessionStats;

use super::budget::CutReason;

/// Stack entries left unexplored when a budget cut the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AbandonedSpace {
    /// Entries abandoned (the popped-but-unexpanded node plus the rest
    /// of the stack).
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
    /// Stack left unexplored by the cut.
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

/// The type of `SynthesisResult::parallel`, which is always `None`:
/// the search runs on one thread. Kept only because the benchmark
/// (`perfbench/`) reads `speculative.nodes_expanded` from it; it leaves
/// together with the benchmark's `res.speculate_us` and
/// `res.speculative_nodes` metrics when the benchmark is next revised.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParallelReport {
    /// Always default.
    pub speculative: KernelStats,
}

json_struct!(ParallelReport { speculative });

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
}
