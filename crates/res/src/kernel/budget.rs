//! Unified search budgets.
//!
//! The engine historically metered three resources in three places with
//! three ad-hoc signals: node expansions (`budget_cut` in the search
//! loop), per-hypothesis instructions (`Infeasible::Budget` in the block
//! executor), and solver assignments (silently inside the solver). One
//! [`Budget`] now carries all of them, plus an optional wall-clock
//! deadline, and every cutoff reports a [`CutReason`].

use std::time::{Duration, Instant};

use mvm_json::json_enum;

/// Everything the exploration kernel is allowed to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum search nodes expanded.
    pub max_nodes: u64,
    /// Per-hypothesis instruction budget (enforced by the state
    /// transform, not by [`Budget::admit`]).
    pub hyp_max_steps: u64,
    /// Cumulative solver enumeration assignments across the whole
    /// search; `None` leaves the solver bounded only by its own
    /// per-query budget.
    pub max_solver_assignments: Option<u64>,
    /// Wall-clock deadline for the whole search. `None` (the default)
    /// keeps the search fully deterministic.
    pub deadline: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_nodes: 4000,
            hyp_max_steps: 4096,
            max_solver_assignments: None,
            deadline: None,
        }
    }
}

/// Which budget dimension cut the search short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutReason {
    /// Node-expansion cap reached.
    Nodes,
    /// A per-hypothesis instruction budget ran out.
    HypInstructions,
    /// The cumulative solver-assignment cap was reached.
    SolverAssignments,
    /// The wall-clock deadline passed.
    Deadline,
}

json_enum!(CutReason {
    Nodes,
    HypInstructions,
    SolverAssignments,
    Deadline
});

/// Tracks elapsed wall-clock time for deadline enforcement.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    started: Instant,
}

impl BudgetMeter {
    /// Starts the clock.
    pub fn start() -> Self {
        BudgetMeter {
            started: Instant::now(),
        }
    }

    /// Time since [`start`](BudgetMeter::start).
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Budget {
    /// May another node be expanded? Returns the binding [`CutReason`]
    /// if not. Dimensions are checked in a fixed order (nodes, solver
    /// assignments, deadline) so the reported reason is deterministic
    /// whenever the budgets themselves are.
    pub fn admit(
        &self,
        meter: &BudgetMeter,
        nodes_expanded: u64,
        solver_assignments: u64,
    ) -> Option<CutReason> {
        if nodes_expanded >= self.max_nodes {
            return Some(CutReason::Nodes);
        }
        if let Some(cap) = self.max_solver_assignments {
            if solver_assignments >= cap {
                return Some(CutReason::SolverAssignments);
            }
        }
        if let Some(d) = self.deadline {
            if meter.elapsed() >= d {
                return Some(CutReason::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_cap_binds_first() {
        let b = Budget {
            max_nodes: 10,
            max_solver_assignments: Some(5),
            ..Budget::default()
        };
        let m = BudgetMeter::start();
        assert_eq!(b.admit(&m, 10, 99), Some(CutReason::Nodes));
        assert_eq!(b.admit(&m, 9, 5), Some(CutReason::SolverAssignments));
        assert_eq!(b.admit(&m, 9, 4), None);
    }

    #[test]
    fn default_budget_matches_legacy_knobs() {
        let b = Budget::default();
        assert_eq!(b.max_nodes, 4000);
        assert_eq!(b.hyp_max_steps, 4096);
        assert_eq!(b.max_solver_assignments, None);
        assert_eq!(b.deadline, None);
    }

    #[test]
    fn deadline_cuts_when_elapsed() {
        let b = Budget {
            deadline: Some(Duration::from_secs(0)),
            ..Budget::default()
        };
        let m = BudgetMeter::start();
        assert_eq!(b.admit(&m, 0, 0), Some(CutReason::Deadline));
    }
}
