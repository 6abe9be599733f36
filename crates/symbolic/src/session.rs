//! A memoizing solver session.
//!
//! The RES search loop issues many satisfiability checks over constraint
//! sets that repeat: sibling hypotheses share the suffix they extend, the
//! hardware-error localization sweep re-solves the same relaxed sets, and
//! the global compatibility check grows one tagged constraint at a time.
//! Because the memo compares [`ExprRef`]s structurally and the solver is
//! a deterministic function of its input, a `(constraint set → result)`
//! memo is exact: a cache hit returns precisely what a fresh
//! [`Solver::check`] would. Each key carries its hash, a word-at-a-time
//! fold over the sequence, so a query that extends an earlier one
//! ([`SolverSession::check_after`]) hashes only what it adds.
//!
//! [`SolverSession`] wraps a [`Solver`] with that memo plus cumulative
//! accounting — queries, hit/miss counts, sat/unsat/unknown tallies
//! (unknowns split by [`UnknownReason`]), and the total enumeration
//! assignments spent. The assignment total is what kernel-level solver
//! budgets are charged against; cache hits cost zero, which is the point.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use mvm_json::json_struct;

use crate::expr::{ExprRef, SymId};
use crate::fingerprint::{
    canonical_key, CanonFp, CanonKey, PortableCache, PortableResult, PortableTable,
};
use crate::solver::{Fixpoint, SolveResult, Solver, SolverConfig, UnknownReason, WeakFixpoint};

/// Cumulative counters for one [`SolverSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Total `check` calls.
    pub queries: u64,
    /// Queries answered from the memo cache.
    pub cache_hits: u64,
    /// Queries that ran the underlying solver.
    pub cache_misses: u64,
    /// Cache hits served by entries absorbed from a persistent cross-run
    /// store (α-canonical) rather than the exact in-session memo. A
    /// subset of `cache_hits`; this is the counter the warm-run
    /// experiments report, so cross-run reuse is never conflated with
    /// intra-run memoization.
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
            store_hits: self.store_hits - earlier.store_hits,
            sat: self.sat - earlier.sat,
            unsat: self.unsat - earlier.unsat,
            unknown_budget: self.unknown_budget - earlier.unknown_budget,
            unknown_incomplete: self.unknown_incomplete - earlier.unknown_incomplete,
            assignments: self.assignments - earlier.assignments,
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
    /// Exact memo: each constraint sequence's memo-key hash → the
    /// entries of the sequences with that hash (almost always one).
    cache: RefCell<HashMap<u64, Vec<MemoEntry>, BuildHasherDefault<WordHasher>>>,
    /// Cross-session cache absorbed from persistent stores, keyed by
    /// α-canonical fingerprint. Consulted only after the exact memo
    /// misses.
    absorbed: RefCell<Absorbed>,
    stats: RefCell<SessionStats>,
}

/// The store entries a session absorbed: tables it shares with their
/// stores and entries it copied. Each fingerprint is held by one of
/// them, the first source that brought it: a table is shared only when
/// the session holds none of its fingerprints yet, and otherwise only
/// the entries it adds are copied into `own`. So the session holds each
/// absorbed entry once, however often it absorbs a reopened store.
#[derive(Debug, Default)]
struct Absorbed {
    own: PortableTable,
    shared: Vec<Arc<PortableTable>>,
}

impl Absorbed {
    fn is_empty(&self) -> bool {
        self.own.is_empty() && self.shared.is_empty()
    }

    fn get(&self, fp: &CanonFp) -> Option<&PortableResult> {
        self.own
            .get(fp)
            .or_else(|| self.shared.iter().find_map(|t| t.get(fp)))
    }

    fn contains(&self, fp: &CanonFp) -> bool {
        self.own.contains_key(fp) || self.shared.iter().any(|t| t.contains_key(fp))
    }
}

/// One memo entry: the constraint sequence, its answer, the answer's
/// α-canonical form, and the fixpoint a query extending it starts
/// from, held weakly so that the memo does not keep every node's
/// propagation state alive. Two sequences share an entry only when
/// they are structurally equal. The sequence is the caller's list when
/// it was shared ([`SolverSession::check_after`]), so a search node and
/// its memo entry hold one list.
#[derive(Debug)]
struct MemoEntry {
    exprs: Rc<[ExprRef]>,
    result: SolveResult,
    canon: Canon,
    fixpoint: WeakFixpoint,
}

/// Continues the memo-key hash `hash` over `exprs`. The key hash of a
/// sequence is this fold from 0, with no length prefix, so the hash of
/// `all` continues the hash of `all[..k]`.
fn fold(hash: u64, exprs: &[ExprRef]) -> u64 {
    let mut h = WordHasher(hash);
    for e in exprs {
        e.hash(&mut h);
    }
    h.finish()
}

/// A word-at-a-time multiplicative hasher (the Fx step: rotate, xor,
/// multiply per word). Not collision-resistant, which an exact memo
/// does not need: it hashes expression trees a few words per node.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The α-canonical form of one memo entry, computed at most once: on
/// the memo miss when an absorbed cache already forced the key, else on
/// the first [`SolverSession::export_portable`] that needs it.
#[derive(Debug)]
enum Canon {
    /// Not renaming-equivariant: never exported.
    Private,
    /// Renaming-equivariant, not canonicalized yet; holds the original
    /// assignment cost.
    Lazy(u64),
    /// Renaming-equivariant and canonicalized.
    Known(Box<(CanonFp, PortableResult)>),
}

impl Canon {
    fn known(fp: CanonFp, result: &SolveResult, cost: u64, sorted_syms: &[SymId]) -> Canon {
        PortableResult::from_result(result, cost, sorted_syms)
            .map_or(Canon::Private, |p| Canon::Known(Box::new((fp, p))))
    }
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

    /// Memoized [`Solver::check`]: the conjunction of `constraints`,
    /// each truthy when non-zero.
    ///
    /// The key is the constraint *sequence* — structurally equal sets in
    /// a different order miss; callers with a canonical build order (as
    /// the search engine has) get exact reuse anyway.
    pub fn check(&self, constraints: &[ExprRef]) -> SolveResult {
        self.lookup_or_solve(constraints, || constraints.into(), &Fixpoint::default())
            .0
    }

    /// [`check`](SolverSession::check) of `all`, given `parent`: the
    /// [`Fixpoint`] an earlier `check_after` of `all[..k]` returned on
    /// this session (the default one stands for the empty prefix).
    /// Returns the answer with the fixpoint of `all`, for the check of
    /// a list that extends it.
    ///
    /// The memo key's hash continues from the parent's, and a miss
    /// propagates only `all[k..]` when the parent's fixpoint allows it
    /// ([`Solver::check_after`]); answers and counts are exactly those
    /// of `check(all)`. A memo hit returns the fixpoint the entry's
    /// solve recorded while some caller still holds it (else an
    /// unsettled one); a hit on an absorbed store entry returns an
    /// unsettled one. A query extending an unsettled fixpoint solves
    /// from scratch. A miss memoizes `all` itself, not a copy.
    ///
    /// When the session has absorbed store entries, a memo miss needs
    /// `all`'s store key. It continues the key the parent's fixpoint
    /// carries ([`CanonKey::extend`]) unless `all[k..]` brings a symbol
    /// ranked below the parent's largest, and is computed from scratch
    /// otherwise. The returned fixpoint carries the key, and so does a
    /// memo hit's, from the entry, so the key of a list below a repeated
    /// one continues too ([`Fixpoint::store_key`]).
    pub fn check_after(&self, all: &Rc<[ExprRef]>, parent: &Fixpoint) -> (SolveResult, Fixpoint) {
        self.lookup_or_solve(all, || all.clone(), parent)
    }

    /// [`check_after`](SolverSession::check_after) of `all`; a miss
    /// memoizes the list `shared` returns, which equals `all`.
    fn lookup_or_solve(
        &self,
        all: &[ExprRef],
        shared: impl FnOnce() -> Rc<[ExprRef]>,
        parent: &Fixpoint,
    ) -> (SolveResult, Fixpoint) {
        let mut stats = self.stats.borrow_mut();
        stats.queries += 1;
        debug_assert_eq!(
            fold(0, &all[..parent.len]),
            parent.hash,
            "the parent fixpoint covers a prefix of the query"
        );
        let added = &all[parent.len..];
        let hash = fold(parent.hash, added);
        let cache = self.cache.borrow();
        if let Some(hit) = cache
            .get(&hash)
            .and_then(|b| b.iter().find(|e| *e.exprs == *all))
        {
            stats.cache_hits += 1;
            Self::tally(&mut stats, &hit.result);
            return (hit.result.clone(), hit.fixpoint.upgrade());
        }
        drop(cache);
        // Absorbed (α-canonical) lookup. The guard keeps the common
        // single-session path free of canonicalization overhead; when
        // it runs, the key continues the parent's when the step keeps
        // its ranks, and the canonical form is kept for the memo entry
        // so no export has to canonicalize this query again.
        let mut canonical = None;
        if !self.absorbed.borrow().is_empty() {
            let key = parent
                .canon
                .as_ref()
                .and_then(|k| k.extend(added))
                .unwrap_or_else(|| CanonKey::of(all));
            let fp = key.fingerprint();
            let instantiated = self
                .absorbed
                .borrow()
                .get(&fp)
                .and_then(|p| Some((p.instantiate(key.symbols())?, p.assignments)));
            if let Some((result, cost)) = instantiated {
                stats.cache_hits += 1;
                stats.store_hits += 1;
                // Charge the original enumeration cost so solver-budget
                // enforcement matches a session that solved this query
                // itself; repeats then hit the exact memo for free,
                // exactly like a locally-solved query.
                stats.assignments += cost;
                Self::tally(&mut stats, &result);
                let canon = Canon::known(fp, &result, cost, key.symbols());
                let unsettled = Fixpoint::unsettled(all.len(), hash, Some(key));
                self.insert(shared(), &result, canon, &unsettled);
                return (result, unsettled);
            }
            canonical = Some((fp, key));
        }
        stats.cache_misses += 1;
        drop(stats);
        let (result, used, portable, mut fixpoint) = self.solver.check_after(all, parent);
        let mut stats = self.stats.borrow_mut();
        stats.assignments += used;
        Self::tally(&mut stats, &result);
        let canon = match &canonical {
            _ if !portable => Canon::Private,
            Some((fp, key)) => Canon::known(*fp, &result, used, key.symbols()),
            None => Canon::Lazy(used),
        };
        fixpoint.hash = hash;
        fixpoint.canon = canonical.map(|(_, key)| key);
        self.insert(shared(), &result, canon, &fixpoint);
        (result, fixpoint)
    }

    fn insert(
        &self,
        exprs: Rc<[ExprRef]>,
        result: &SolveResult,
        canon: Canon,
        fixpoint: &Fixpoint,
    ) {
        let entry = MemoEntry {
            exprs,
            result: result.clone(),
            canon,
            fixpoint: fixpoint.downgrade(),
        };
        let mut cache = self.cache.borrow_mut();
        cache.entry(fixpoint.hash).or_default().push(entry);
    }

    /// Exports every renaming-equivariant cached result as an
    /// α-canonical [`PortableCache`], deduplicated by fingerprint and in
    /// deterministic (fingerprint) order. The export contains no
    /// [`ExprRef`]s, so it can cross threads. Each memo entry is
    /// canonicalized at most once over the session's life, so repeated
    /// exports cost a walk of the memo, not a re-canonicalization.
    pub fn export_portable(&self) -> PortableCache {
        let mut by_fp: BTreeMap<CanonFp, PortableResult> = BTreeMap::new();
        let mut cache = self.cache.borrow_mut();
        for MemoEntry {
            exprs,
            result,
            canon,
            ..
        } in cache.values_mut().flatten()
        {
            if let Canon::Lazy(cost) = *canon {
                let (fp, sorted_syms) = canonical_key(exprs);
                *canon = Canon::known(fp, result, cost, &sorted_syms);
            }
            if let Canon::Known(known) = canon {
                by_fp.entry(known.0).or_insert_with(|| known.1.clone());
            }
        }
        PortableCache {
            entries: by_fp.into_iter().collect(),
        }
    }

    /// Merges borrowed `(fingerprint, result)` entries into the
    /// absorbed cache and returns how many were new; the hits they
    /// serve are counted in [`SessionStats::store_hits`]. Only
    /// fingerprints this session does not hold yet are cloned. On
    /// fingerprint collision the first entry wins; by equivariance the
    /// entries are identical anyway (modulo the ~2⁻¹²⁸ hash-collision
    /// risk, which [`PortableResult::instantiate`]'s rank guard
    /// partially covers).
    pub fn absorb_from<'a>(
        &self,
        entries: impl IntoIterator<Item = (&'a CanonFp, &'a PortableResult)>,
    ) -> usize {
        let mut absorbed = self.absorbed.borrow_mut();
        let Absorbed { own, shared } = &mut *absorbed;
        let mut new = 0;
        for (fp, p) in entries {
            if shared.iter().any(|t| t.contains_key(fp)) {
                continue;
            }
            if let Entry::Vacant(slot) = own.entry(*fp) {
                slot.insert(p.clone());
                new += 1;
            }
        }
        new
    }

    /// Absorbs a whole table and returns how many of its fingerprints
    /// this session did not hold yet. A table none of whose
    /// fingerprints the session holds is shared, not copied: one
    /// pointer push, and a first table needs no lookup. Otherwise the
    /// entries it adds are copied, as
    /// [`absorb_from`](SolverSession::absorb_from) does, so absorbing a
    /// reopened store again keeps no second copy of what it held. A
    /// table the session already shares adds nothing and costs one
    /// pointer comparison per table held.
    pub fn absorb_shared(&self, table: &Arc<PortableTable>) -> usize {
        let mut absorbed = self.absorbed.borrow_mut();
        if table.is_empty() || absorbed.shared.iter().any(|t| Arc::ptr_eq(t, table)) {
            return 0;
        }
        if absorbed.is_empty() || table.keys().all(|fp| !absorbed.contains(fp)) {
            absorbed.shared.push(Arc::clone(table));
            return table.len();
        }
        drop(absorbed);
        self.absorb_from(table.iter())
    }

    /// Memoized [`Solver::solve`]: check and demand a model.
    pub fn solve(&self, constraints: &[ExprRef]) -> Option<crate::model::Model> {
        match self.check(constraints) {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    fn tally(stats: &mut SessionStats, result: &SolveResult) {
        match result {
            SolveResult::Sat(_) => stats.sat += 1,
            SolveResult::Unsat => stats.unsat += 1,
            SolveResult::Unknown(UnknownReason::BudgetExhausted) => stats.unknown_budget += 1,
            SolveResult::Unknown(UnknownReason::Incomplete) => stats.unknown_incomplete += 1,
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
        self.cache.borrow().values().map(Vec::len).sum()
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
    use std::rc::Rc;

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
    fn memo_keys_compare_structure_not_pointers() {
        let session = SolverSession::new();
        let build = |k: u64, s: u32| {
            vec![
                eq(
                    Expr::bin(BinOp::Add, Expr::sym(s), Expr::konst(5)),
                    Expr::konst(k),
                ),
                Expr::bin(BinOp::LtU, Expr::sym(s), Expr::konst(100)),
            ]
        };
        let first = build(12, 0);
        session.check(&first);
        // Rebuilt from scratch: structurally equal, no node shared.
        let again = build(12, 0);
        assert!(first.iter().zip(&again).all(|(a, b)| !Rc::ptr_eq(a, b)));
        session.check(&again);
        assert_eq!(session.stats().cache_hits, 1, "structural equality hits");
        let mut reordered = build(12, 0);
        reordered.reverse();
        for (what, q) in [
            ("one constant", build(13, 0)),
            ("one symbol id", build(12, 1)),
            ("the order", reordered),
        ] {
            let misses = session.stats().cache_misses;
            session.check(&q);
            assert_eq!(session.stats().cache_misses, misses + 1, "{what} differs");
        }
        assert_eq!(session.stats().cache_hits, 1);
        assert_eq!(session.cache_len(), 4);
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
        b.absorb_from(export.iter());
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
        assert_eq!(st.store_hits, 1);
        assert_eq!(st.cache_misses, 0);
        // The absorbed answer is now in the exact memo: a repeat is an
        // ordinary hit, not a second store hit.
        b.check(&q_b);
        assert_eq!(b.stats().store_hits, 1);
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
        b.absorb_from(a.export_portable().iter());
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
    fn absorbing_a_reopened_table_keeps_each_entry_once() {
        use crate::fingerprint::PortableVerdict;
        // Entry `i` of a table; `cost` tells two sources' entries apart.
        let entry = |i: u64, cost: u64| {
            let result = PortableResult {
                verdict: PortableVerdict::Sat(vec![(0, i)]),
                assignments: cost,
            };
            (CanonFp(u128::from(i) << 64 | 1), result)
        };
        let table = |ids: std::ops::Range<u64>, cost: u64| {
            Arc::new(ids.map(|i| entry(i, cost)).collect::<PortableTable>())
        };
        let session = SolverSession::new();
        let first = table(0..4, 1);
        assert_eq!(session.absorb_shared(&first), 4);
        assert_eq!(session.absorb_shared(&first), 0, "the same table");
        // A reopened store decodes what it held into a new table.
        assert_eq!(session.absorb_shared(&table(0..4, 2)), 0);
        // One that gained entries since adds only those.
        assert_eq!(session.absorb_shared(&table(0..6, 3)), 2);
        // A table with nothing the session holds is shared whole.
        assert_eq!(session.absorb_shared(&table(10..13, 4)), 3);
        let absorbed = session.absorbed.borrow();
        assert_eq!(absorbed.shared.len(), 2, "only the disjoint tables");
        assert_eq!(absorbed.own.len(), 2, "only the added entries");
        let cost = |i| absorbed.get(&entry(i, 0).0).map(|p| p.assignments);
        assert_eq!(
            (0..6).chain(10..13).map(cost).collect::<Vec<_>>(),
            [1, 1, 1, 1, 3, 3, 4, 4, 4].map(Some),
            "the first source of each fingerprint answers"
        );
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

    /// One generated constraint: `(kind, sym a, sym b, constant)`.
    type Spec = (u64, u64, u64);

    /// Builds a query over symbols `shift + 0..4`. Adding the same
    /// `shift` to every symbol is a monotone renaming, so shifted
    /// copies are α-equivalent to the original and can hit an absorbed
    /// entry. The kinds cover propagation-decided, complete-domain and
    /// probe-based (private) verdicts.
    fn query(specs: &[Spec], shift: u32) -> Vec<ExprRef> {
        specs
            .iter()
            .map(|&(kind, ab, c)| {
                let a = Expr::sym(shift + (ab % 4) as u32);
                let b = Expr::sym(shift + (ab / 4 % 4) as u32);
                match kind {
                    0 => eq(Expr::bin(BinOp::Add, a, Expr::konst(c)), Expr::konst(c + 5)),
                    1 => Expr::bin(BinOp::LtU, a, Expr::konst(c + 1)),
                    2 => eq(Expr::bin(BinOp::Mul, a, b), Expr::konst(c)),
                    3 => Expr::bin(BinOp::LtU, a, b),
                    4 => Expr::bin(BinOp::Ne, a, Expr::konst(c)),
                    _ => eq(
                        Expr::bin(BinOp::And, a, Expr::konst(0xf0)),
                        Expr::konst(c << 4),
                    ),
                }
            })
            .collect()
    }

    /// The export recomputed from scratch: every distinct query asked so
    /// far is solved afresh and, when renaming-equivariant,
    /// canonicalized with [`canonical_key`].
    fn export_from_scratch(asked: &[Vec<ExprRef>]) -> PortableCache {
        let solver = Solver::new();
        let mut by_fp = BTreeMap::new();
        for q in asked {
            let (result, used, portable) = solver.check_classified(q);
            if !portable {
                continue;
            }
            let (fp, sorted_syms) = canonical_key(q);
            if let Some(p) = PortableResult::from_result(&result, used, &sorted_syms) {
                by_fp.entry(fp).or_insert(p);
            }
        }
        PortableCache {
            entries: by_fp.into_iter().collect(),
        }
    }

    /// The memoized canonical form never drifts from a recomputation:
    /// over random constraint sets, in sessions with and without an
    /// absorbed cache, every export (including those taken right after
    /// absorbed hits) equals the export recomputed from scratch.
    #[test]
    fn memoized_export_equals_export_recomputed_from_scratch() {
        use proptest_mini::{
            check, pair, prop_assert_eq, triple, u64_range, usize_range, vec_of, Config,
        };
        use std::cell::Cell;

        let spec = triple(u64_range(0, 6), u64_range(0, 16), u64_range(0, 12));
        let queries = vec_of(vec_of(spec, 1, 4), 1, 7);
        let store_hits = Cell::new(0u64);
        check(
            "memoized_export_equals_export_recomputed_from_scratch",
            &Config::with_cases(128),
            &pair(queries, usize_range(0, 2)),
            |(queries, mode)| {
                // The origin session solves the first half; its export
                // seeds the session under test (mode 1), which asks
                // every query renamed.
                let origin = SolverSession::new();
                for specs in &queries[..queries.len() / 2] {
                    origin.check(&query(specs, 0));
                }
                let session = SolverSession::new();
                if *mode == 1 {
                    session.absorb_from(origin.export_portable().iter());
                }
                let mut asked = Vec::new();
                for specs in queries {
                    let q = query(specs, 7);
                    session.check(&q);
                    // A repeat is an exact-memo hit and adds no entry.
                    session.check(&q);
                    asked.push(q);
                    prop_assert_eq!(
                        session.export_portable().entries,
                        export_from_scratch(&asked).entries
                    );
                }
                store_hits.set(store_hits.get() + session.stats().store_hits);
                Ok(())
            },
        );
        assert!(
            store_hits.get() > 0,
            "the property must cover exports taken after absorbed hits"
        );
    }
}
