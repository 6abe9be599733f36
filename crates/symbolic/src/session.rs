//! A memoizing solver session.
//!
//! The RES search loop issues many satisfiability checks over constraint
//! sets that repeat: sibling hypotheses share the suffix they extend, the
//! hardware-error localization sweep re-solves the same relaxed sets, and
//! the global compatibility check grows one tagged constraint at a time.
//! Because [`ExprRef`]s are structurally hashed and the solver is a
//! deterministic function of its input, a `(constraint set → result)`
//! memo is exact: a cache hit returns precisely what a fresh
//! [`Solver::check`] would.
//!
//! [`SolverSession`] wraps a [`Solver`] with that memo plus cumulative
//! accounting — queries, hit/miss counts, sat/unsat/unknown tallies
//! (unknowns split by [`UnknownReason`]), and the total enumeration
//! assignments spent. The assignment total is what kernel-level solver
//! budgets are charged against; cache hits cost zero, which is the point.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use mvm_json::json_struct;
use res_obs::Recorder;

use crate::expr::ExprRef;
use crate::fingerprint::{canonical_key, CanonFp, PortableCache, PortableResult};
use crate::solver::{SolveResult, Solver, SolverConfig, UnknownReason};

/// Cumulative counters for one [`SolverSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Total `check` calls.
    pub queries: u64,
    /// Queries answered from the memo cache.
    pub cache_hits: u64,
    /// Queries that ran the underlying solver.
    pub cache_misses: u64,
    /// Cache hits served by the absorbed (cross-session, α-canonical)
    /// cache rather than the exact in-session memo. A subset of
    /// `cache_hits`.
    pub absorbed_hits: u64,
    /// Absorbed hits served by entries that came from a *persistent
    /// cross-run store* (as opposed to a same-process speculative
    /// worker). A subset of `absorbed_hits`; this is the counter the
    /// warm-run experiments report, so cross-run reuse is never
    /// conflated with intra-run memoization.
    pub store_hits: u64,
    /// Sat verdicts (counting cached replays).
    pub sat: u64,
    /// Unsat verdicts (counting cached replays).
    pub unsat: u64,
    /// Unknown verdicts caused by assignment-budget exhaustion.
    pub unknown_budget: u64,
    /// Unknown verdicts caused by a theory gap.
    pub unknown_incomplete: u64,
    /// Enumeration assignments spent by cache misses (plus the replayed
    /// cost of first-time absorbed hits, so budget accounting does not
    /// depend on *which* session originally paid for a query).
    pub assignments: u64,
}

json_struct!(SessionStats {
    queries,
    cache_hits,
    cache_misses,
    absorbed_hits,
    store_hits,
    sat,
    unsat,
    unknown_budget,
    unknown_incomplete,
    assignments
});

impl SessionStats {
    /// Counter-wise difference `self - earlier`; use with a snapshot
    /// taken before a phase to attribute work to that phase.
    pub fn delta_since(&self, earlier: &SessionStats) -> SessionStats {
        SessionStats {
            queries: self.queries - earlier.queries,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            absorbed_hits: self.absorbed_hits - earlier.absorbed_hits,
            store_hits: self.store_hits - earlier.store_hits,
            sat: self.sat - earlier.sat,
            unsat: self.unsat - earlier.unsat,
            unknown_budget: self.unknown_budget - earlier.unknown_budget,
            unknown_incomplete: self.unknown_incomplete - earlier.unknown_incomplete,
            assignments: self.assignments - earlier.assignments,
        }
    }

    /// Counter-wise sum, for rolling per-worker sessions into one
    /// report.
    pub fn absorb(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.absorbed_hits += other.absorbed_hits;
        self.store_hits += other.store_hits;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.unknown_budget += other.unknown_budget;
        self.unknown_incomplete += other.unknown_incomplete;
        self.assignments += other.assignments;
    }

    /// Cache hit rate in `[0, 1]`; 0 when no queries ran.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

/// A [`Solver`] wrapped with a constraint-set memo cache and cumulative
/// accounting.
///
/// Interior mutability keeps the caller's API `&self`: the search engine
/// threads one session through hypothesis testing, finalization, and the
/// localization sweep without plumbing `&mut` everywhere.
#[derive(Debug, Default)]
pub struct SolverSession {
    solver: Solver,
    /// Exact memo: constraint sequence → (result, original assignment
    /// cost, renaming-equivariant?).
    cache: RefCell<HashMap<Vec<ExprRef>, (SolveResult, u64, bool)>>,
    /// Cross-session cache absorbed from other sessions' portable
    /// exports, keyed by α-canonical fingerprint and tagged with where
    /// the entry came from. Consulted only after the exact memo misses.
    absorbed: RefCell<HashMap<CanonFp, (PortableResult, AbsorbSource)>>,
    stats: RefCell<SessionStats>,
    /// Passive observer mirroring the stats counters into a journal
    /// (disabled by default: every call is then an allocation-free
    /// no-op). Nothing in the session ever reads it back. The caller
    /// hands in an already-scoped recorder (the engine uses
    /// `rec.scoped("solver")`), so counter names here stay bare.
    recorder: RefCell<Recorder>,
}

/// Where an absorbed cache entry originated. The distinction only
/// affects accounting ([`SessionStats::store_hits`]); lookup semantics
/// are identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsorbSource {
    /// A sibling session in this process (a speculative worker).
    Worker,
    /// A persistent cross-run store loaded from disk.
    Store,
}

impl SolverSession {
    /// Session around a solver with default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Session around a solver with explicit budgets.
    pub fn with_config(config: SolverConfig) -> Self {
        SolverSession {
            solver: Solver::with_config(config),
            ..Self::default()
        }
    }

    /// Session around an existing solver.
    pub fn from_solver(solver: Solver) -> Self {
        SolverSession {
            solver,
            ..Self::default()
        }
    }

    /// Attaches a tracing recorder at construction time. Pass an
    /// already-scoped handle (e.g. `rec.scoped("solver")`); the session
    /// emits bare counter names like `queries` and `store_hits`.
    pub fn with_recorder(self, recorder: Recorder) -> Self {
        self.recorder.replace(recorder);
        self
    }

    /// Swaps the tracing recorder, returning the previous one — used by
    /// callers that override tracing for a single run and restore it
    /// after.
    pub fn set_recorder(&self, recorder: Recorder) -> Recorder {
        self.recorder.replace(recorder)
    }

    /// Memoized [`Solver::check`]: the conjunction of `constraints`,
    /// each truthy when non-zero.
    ///
    /// The key is the constraint *sequence* — structurally equal sets in
    /// a different order miss; callers with a canonical build order (as
    /// the search engine has) get exact reuse anyway.
    pub fn check(&self, constraints: &[ExprRef]) -> SolveResult {
        let rec = self.recorder.borrow();
        let mut stats = self.stats.borrow_mut();
        stats.queries += 1;
        rec.counter("queries", 1);
        if let Some((hit, _, _)) = self.cache.borrow().get(constraints) {
            stats.cache_hits += 1;
            rec.counter("cache_hits", 1);
            Self::tally(&mut stats, &rec, hit);
            return hit.clone();
        }
        // Absorbed (α-canonical) lookup. The guard keeps the common
        // single-session path free of canonicalization overhead.
        if !self.absorbed.borrow().is_empty() {
            let (fp, sorted_syms) = canonical_key(constraints);
            let instantiated = self
                .absorbed
                .borrow()
                .get(&fp)
                .and_then(|(p, src)| Some((p.instantiate(&sorted_syms)?, p.assignments, *src)));
            if let Some((result, cost, source)) = instantiated {
                stats.cache_hits += 1;
                stats.absorbed_hits += 1;
                rec.counter("cache_hits", 1);
                rec.counter("absorbed_hits", 1);
                if source == AbsorbSource::Store {
                    stats.store_hits += 1;
                    rec.counter("store_hits", 1);
                }
                // Charge the original enumeration cost so solver-budget
                // enforcement matches a session that solved this query
                // itself; repeats then hit the exact memo for free,
                // exactly like a locally-solved query.
                stats.assignments += cost;
                rec.counter("assignments", cost);
                Self::tally(&mut stats, &rec, &result);
                self.cache
                    .borrow_mut()
                    .insert(constraints.to_vec(), (result.clone(), cost, true));
                return result;
            }
        }
        stats.cache_misses += 1;
        rec.counter("cache_misses", 1);
        drop(stats);
        let (result, used, portable) = self.solver.check_classified(constraints);
        let mut stats = self.stats.borrow_mut();
        stats.assignments += used;
        rec.counter("assignments", used);
        Self::tally(&mut stats, &rec, &result);
        self.cache
            .borrow_mut()
            .insert(constraints.to_vec(), (result.clone(), used, portable));
        result
    }

    /// Exports every renaming-equivariant cached result as an
    /// α-canonical [`PortableCache`], deduplicated by fingerprint and in
    /// deterministic (fingerprint) order. The export contains no
    /// [`ExprRef`]s, so it can cross threads.
    pub fn export_portable(&self) -> PortableCache {
        let mut by_fp: BTreeMap<CanonFp, PortableResult> = BTreeMap::new();
        for (key, (result, assignments, portable)) in self.cache.borrow().iter() {
            if !portable {
                continue;
            }
            let (fp, sorted_syms) = canonical_key(key);
            if let Some(p) = PortableResult::from_result(result, *assignments, &sorted_syms) {
                by_fp.entry(fp).or_insert(p);
            }
        }
        PortableCache {
            entries: by_fp.into_iter().collect(),
        }
    }

    /// Merges another session's portable export into this session's
    /// absorbed cache. On fingerprint collision between absorptions the
    /// first entry wins; by equivariance the entries are identical
    /// anyway (modulo the ~2⁻¹²⁸ hash-collision risk, which
    /// [`PortableResult::instantiate`]'s rank guard partially covers).
    pub fn absorb(&self, export: &PortableCache) {
        self.absorb_from(export, AbsorbSource::Worker);
    }

    /// [`absorb`](SolverSession::absorb) for entries loaded from a
    /// persistent cross-run store: hits they serve are additionally
    /// counted in [`SessionStats::store_hits`].
    pub fn absorb_from_store(&self, export: &PortableCache) {
        self.absorb_from(export, AbsorbSource::Store);
    }

    /// Merges a portable export, tagging every newly-absorbed entry
    /// with `source` for hit attribution.
    pub fn absorb_from(&self, export: &PortableCache, source: AbsorbSource) {
        let mut absorbed = self.absorbed.borrow_mut();
        let before = absorbed.len();
        for (fp, p) in &export.entries {
            absorbed.entry(*fp).or_insert_with(|| (p.clone(), source));
        }
        let new = absorbed.len() - before;
        self.recorder.borrow().event_with("absorb", || {
            vec![
                ("source".into(), format!("{source:?}")),
                ("entries".into(), export.entries.len().to_string()),
                ("new".into(), new.to_string()),
            ]
        });
    }

    /// Number of entries in the absorbed (cross-session) cache.
    pub fn absorbed_len(&self) -> usize {
        self.absorbed.borrow().len()
    }

    /// Memoized [`Solver::solve`]: check and demand a model.
    pub fn solve(&self, constraints: &[ExprRef]) -> Option<crate::model::Model> {
        match self.check(constraints) {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    fn tally(stats: &mut SessionStats, rec: &Recorder, result: &SolveResult) {
        match result {
            SolveResult::Sat(_) => {
                stats.sat += 1;
                rec.counter("sat", 1);
            }
            SolveResult::Unsat => {
                stats.unsat += 1;
                rec.counter("unsat", 1);
            }
            SolveResult::Unknown(UnknownReason::BudgetExhausted) => {
                stats.unknown_budget += 1;
                rec.counter("unknown_budget", 1);
            }
            SolveResult::Unknown(UnknownReason::Incomplete) => {
                stats.unknown_incomplete += 1;
                rec.counter("unknown_incomplete", 1);
            }
        }
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> SessionStats {
        *self.stats.borrow()
    }

    /// Total enumeration assignments spent so far (cache hits are free).
    pub fn assignments_spent(&self) -> u64 {
        self.stats.borrow().assignments
    }

    /// Number of distinct constraint sets memoized.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// The wrapped solver, for callers that need an uncached check.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use mvm_isa::BinOp;

    fn eq(a: ExprRef, b: ExprRef) -> ExprRef {
        Expr::bin(BinOp::Eq, a, b)
    }

    #[test]
    fn repeat_query_hits_cache_and_agrees() {
        let session = SolverSession::new();
        let cs = vec![eq(
            Expr::bin(BinOp::Add, Expr::sym(0), Expr::konst(5)),
            Expr::konst(12),
        )];
        let first = session.check(&cs);
        let second = session.check(&cs);
        assert_eq!(first, second);
        let st = session.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.cache_hits, 1);
        assert_eq!(st.cache_misses, 1);
        assert_eq!(st.sat, 2, "cached replays still tally verdicts");
        assert_eq!(session.cache_len(), 1);
    }

    #[test]
    fn cached_answer_equals_fresh_solver() {
        let session = SolverSession::new();
        let fresh = Solver::new();
        let cs = vec![
            eq(
                Expr::bin(BinOp::Add, Expr::sym(0), Expr::sym(1)),
                Expr::konst(10),
            ),
            eq(Expr::sym(0), Expr::konst(4)),
        ];
        assert_eq!(session.check(&cs), fresh.check(&cs));
        assert_eq!(session.check(&cs), fresh.check(&cs)); // now from cache
    }

    #[test]
    fn assignments_accrue_only_on_misses() {
        let session = SolverSession::new();
        // Forces enumeration: two-symbol non-invertible constraint.
        let cs = vec![
            eq(
                Expr::bin(BinOp::Mul, Expr::sym(0), Expr::sym(0)),
                Expr::konst(9),
            ),
            Expr::bin(BinOp::LtU, Expr::sym(0), Expr::konst(4)),
        ];
        session.check(&cs);
        let after_miss = session.assignments_spent();
        assert!(after_miss > 0, "enumeration must cost assignments");
        session.check(&cs);
        assert_eq!(session.assignments_spent(), after_miss, "hits are free");
    }

    #[test]
    fn unknown_reasons_are_split() {
        let session = SolverSession::with_config(SolverConfig {
            max_assignments: 10,
            ..SolverConfig::default()
        });
        let cs = vec![eq(
            Expr::bin(BinOp::Mul, Expr::sym(0), Expr::sym(0)),
            Expr::konst(0x4000_0000_0000_0001),
        )];
        let r = session.check(&cs);
        assert!(r.is_unknown(), "tiny budget must not decide: {r:?}");
        let st = session.stats();
        assert_eq!(st.unknown_budget + st.unknown_incomplete, 1);
    }

    #[test]
    fn absorbed_cache_shares_portable_answers_across_renaming() {
        let a = SolverSession::new();
        // Propagation-decided → portable.
        let q_a = vec![eq(
            Expr::bin(BinOp::Add, Expr::sym(3), Expr::konst(5)),
            Expr::konst(12),
        )];
        a.check(&q_a);
        let export = a.export_portable();
        assert!(!export.is_empty(), "portable result must be exported");

        let b = SolverSession::new();
        b.absorb(&export);
        assert_eq!(b.absorbed_len(), export.len());
        // Same query, different symbol numbering.
        let q_b = vec![eq(
            Expr::bin(BinOp::Add, Expr::sym(41), Expr::konst(5)),
            Expr::konst(12),
        )];
        let r = b.check(&q_b);
        assert_eq!(r.model().unwrap().get(41), Some(7), "renamed witness");
        let st = b.stats();
        assert_eq!(st.queries, 1);
        assert_eq!(st.cache_hits, 1, "absorbed hit counts as a hit");
        assert_eq!(st.absorbed_hits, 1);
        assert_eq!(st.cache_misses, 0);
        // The absorbed answer is now in the exact memo: a repeat is an
        // ordinary hit, not a second absorbed hit.
        b.check(&q_b);
        assert_eq!(b.stats().absorbed_hits, 1);
        assert_eq!(b.stats().cache_hits, 2);
    }

    #[test]
    fn absorbed_hits_replay_the_original_assignment_cost() {
        let a = SolverSession::new();
        // Complete-domain enumeration → portable, with nonzero cost.
        let q_a = vec![
            Expr::bin(BinOp::LtU, Expr::sym(0), Expr::konst(4)),
            eq(
                Expr::bin(BinOp::Mul, Expr::sym(0), Expr::sym(0)),
                Expr::konst(9),
            ),
        ];
        a.check(&q_a);
        let original_cost = a.assignments_spent();
        assert!(original_cost > 0, "enumeration must cost assignments");

        let b = SolverSession::new();
        b.absorb(&a.export_portable());
        let q_b = vec![
            Expr::bin(BinOp::LtU, Expr::sym(9), Expr::konst(4)),
            eq(
                Expr::bin(BinOp::Mul, Expr::sym(9), Expr::sym(9)),
                Expr::konst(9),
            ),
        ];
        let r = b.check(&q_b);
        assert_eq!(r.model().unwrap().get(9), Some(3));
        assert_eq!(
            b.assignments_spent(),
            original_cost,
            "first absorbed hit charges what a fresh solve would have"
        );
        b.check(&q_b);
        assert_eq!(b.assignments_spent(), original_cost, "repeats are free");
    }

    #[test]
    fn store_hits_are_split_from_worker_absorbed_hits() {
        let origin = SolverSession::new();
        let q = |sym: u32| {
            vec![eq(
                Expr::bin(BinOp::Add, Expr::sym(sym), Expr::konst(5)),
                Expr::konst(12),
            )]
        };
        origin.check(&q(0));
        let export = origin.export_portable();
        assert!(!export.is_empty());

        // Worker-absorbed: absorbed_hits ticks, store_hits does not.
        let via_worker = SolverSession::new();
        via_worker.absorb(&export);
        via_worker.check(&q(17));
        let st = via_worker.stats();
        assert_eq!(st.absorbed_hits, 1);
        assert_eq!(st.store_hits, 0);

        // Store-absorbed: both tick.
        let via_store = SolverSession::new();
        via_store.absorb_from_store(&export);
        via_store.check(&q(23));
        let st = via_store.stats();
        assert_eq!(st.absorbed_hits, 1);
        assert_eq!(st.store_hits, 1);
        // A repeat lands in the exact memo: a plain session hit.
        via_store.check(&q(23));
        assert_eq!(via_store.stats().store_hits, 1);
        assert_eq!(via_store.stats().cache_hits, 2);
    }

    #[test]
    fn probe_based_results_stay_private() {
        let session = SolverSession::new();
        // Unbounded domain → probe candidates → not renaming-equivariant.
        let q = vec![eq(
            Expr::bin(BinOp::And, Expr::sym(0), Expr::konst(0xf0)),
            Expr::konst(0x30),
        )];
        assert!(session.check(&q).is_sat());
        assert!(
            session.export_portable().is_empty(),
            "probe-seeded results must not be exported"
        );
    }

    #[test]
    fn delta_since_isolates_a_phase() {
        let session = SolverSession::new();
        let a = vec![eq(Expr::sym(0), Expr::konst(1))];
        let b = vec![eq(Expr::sym(0), Expr::konst(2))];
        session.check(&a);
        let snap = session.stats();
        session.check(&b);
        session.check(&b);
        let d = session.stats().delta_since(&snap);
        assert_eq!(d.queries, 2);
        assert_eq!(d.cache_misses, 1);
        assert_eq!(d.cache_hits, 1);
    }
}
