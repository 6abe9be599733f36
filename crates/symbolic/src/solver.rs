//! A from-scratch constraint solver for RES-style constraint sets.
//!
//! Three cooperating phases (see the crate docs for why this is enough
//! for block-level reverse synthesis):
//!
//! 1. **Equality isolation** — `σ + 5 == 12`-style constraints are
//!    solved exactly by inverting the arithmetic spine (add/sub/xor/not/
//!    neg/odd-mul are invertible on `u64`).
//! 2. **Interval propagation** — unsigned comparisons against constants
//!    narrow per-symbol ranges; an empty range proves unsatisfiability.
//! 3. **Bounded enumeration** — remaining symbols are searched over a
//!    candidate set seeded with the constraints' own constants, interval
//!    endpoints, small values, and deterministic pseudo-random probes.
//!
//! The verdict is three-valued: [`SolveResult::Unsat`] is only returned
//! when *proven* (contradiction during propagation, or exhaustive
//! enumeration of a complete finite candidate space); budget exhaustion
//! yields [`SolveResult::Unknown`], which RES treats conservatively.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::{Rc, Weak};

use mvm_isa::{BinOp, UnOp};
use mvm_json::json_enum;

use crate::expr::{Expr, ExprRef, SymId};
use crate::fingerprint::{CanonFp, CanonKey};
use crate::interval::Interval;
use crate::model::Model;

/// Solver tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Maximum full assignments tried during enumeration.
    pub max_assignments: u64,
    /// Maximum propagation rounds.
    pub max_rounds: usize,
    /// Pseudo-random probe values per symbol.
    pub probes_per_symbol: usize,
    /// Domains at most this large are enumerated exhaustively, allowing
    /// a definitive Unsat.
    pub exhaustive_domain: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_assignments: 20_000,
            max_rounds: 32,
            probes_per_symbol: 8,
            exhaustive_domain: 256,
        }
    }
}

/// Why a check came back [`SolveResult::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownReason {
    /// The enumeration ran out of its assignment budget; a larger
    /// `max_assignments` might produce a verdict.
    BudgetExhausted,
    /// The residual constraints are outside what the solver can decide
    /// (theory gap); no budget increase will help.
    Incomplete,
}

json_enum!(UnknownReason {
    BudgetExhausted,
    Incomplete
});

/// The outcome of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a witness.
    Sat(Model),
    /// Proven unsatisfiable.
    Unsat,
    /// No verdict, with the reason (budget vs theory gap).
    Unknown(UnknownReason),
}

impl SolveResult {
    /// Returns the model if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// `true` if definitely satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// `true` if proven unsatisfiable.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// `true` if no verdict was reached.
    pub fn is_unknown(&self) -> bool {
        matches!(self, SolveResult::Unknown(_))
    }
}

/// The constraint solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    config: SolverConfig,
}

/// Multiplicative inverse of an odd `u64` (Newton's method).
fn odd_inverse(a: u64) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut x = a; // 3 bits correct
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

/// Outcome of trying to isolate `expr == target` down to a symbol.
enum Isolated {
    /// `sym` must equal the value.
    Bind(SymId, u64),
    /// The equation is contradictory (e.g. `shl` with bad low bits).
    Contradiction,
    /// Not invertible down to a single symbol.
    NoProgress,
}

fn isolate(e: &ExprRef, target: u64) -> Isolated {
    match &**e {
        Expr::Sym(s) => Isolated::Bind(*s, target),
        Expr::Const(c) => {
            if *c == target {
                // Trivially true; caller drops the constraint.
                Isolated::NoProgress
            } else {
                Isolated::Contradiction
            }
        }
        Expr::Un(UnOp::Neg, a) => isolate(a, target.wrapping_neg()),
        Expr::Un(UnOp::Not, a) => isolate(a, !target),
        Expr::Bin(op, a, b) => {
            match (op, a.as_const(), b.as_const()) {
                (BinOp::Add, _, Some(c)) => isolate(a, target.wrapping_sub(c)),
                (BinOp::Sub, _, Some(c)) => isolate(a, target.wrapping_add(c)),
                (BinOp::Sub, Some(c), _) => isolate(b, c.wrapping_sub(target)),
                (BinOp::Xor, _, Some(c)) => isolate(a, target ^ c),
                (BinOp::Mul, _, Some(c)) if c & 1 == 1 && a.as_const() != Some(0) => {
                    isolate(a, target.wrapping_mul(odd_inverse(c)))
                }
                (BinOp::Shl, _, Some(c)) if c < 64 => {
                    // a << c == target requires target's low c bits zero;
                    // the high bits of `a` are unconstrained, so only
                    // detect contradiction, don't bind.
                    if target & ((1u64 << c) - 1) != 0 {
                        Isolated::Contradiction
                    } else {
                        Isolated::NoProgress
                    }
                }
                _ => Isolated::NoProgress,
            }
        }
    }
}

/// `true` when `c` can reach [`Solver::extract`] as a `!=` once some of
/// its symbols are bound: it holds a `!=` anywhere, or an `==` below its
/// root, which a negated comparison `(a == b) == 0` rewrites to `!=`.
/// Binding a symbol can lift either to the root (`x + σ` becomes `x`
/// when σ is 0), so the test is on the whole tree.
fn may_hold_disequality(c: &Expr) -> bool {
    fn has(e: &Expr, root: bool) -> bool {
        match e {
            Expr::Const(_) | Expr::Sym(_) => false,
            Expr::Bin(BinOp::Ne, ..) => true,
            Expr::Bin(BinOp::Eq, ..) if !root => true,
            Expr::Bin(_, a, b) => has(a, false) || has(b, false),
            Expr::Un(_, a) => has(a, false),
        }
    }
    has(c, true)
}

/// Negates a comparison operator (`(a op b) == 0` rewriting).
fn negate_cmp(op: BinOp) -> Option<(BinOp, bool)> {
    // Returns (new_op, swap_operands).
    Some(match op {
        BinOp::Eq => (BinOp::Ne, false),
        BinOp::Ne => (BinOp::Eq, false),
        BinOp::LtU => (BinOp::LeU, true),
        BinOp::LeU => (BinOp::LtU, true),
        BinOp::LtS => (BinOp::LeS, true),
        BinOp::LeS => (BinOp::LtS, true),
        _ => return None,
    })
}

/// What a check hands the check of a longer list that starts with its
/// constraints: the propagation fixpoint its run settled in, when that
/// run is one a later run may start from (see
/// [`Solver::check_after`]). Opaque to callers, who only carry it from
/// one check to the next; the default is the empty list's.
#[derive(Debug, Clone, Default)]
pub struct Fixpoint {
    /// How many constraints it covers: the prefix of the next query.
    pub(crate) len: usize,
    /// The session's memo-key hash of those constraints, which the
    /// next query's hash continues (see `SolverSession::check_after`).
    pub(crate) hash: u64,
    /// Their store key, which the next query's key continues; `None`
    /// when the check that returned this fixpoint computed none.
    pub(crate) canon: Option<CanonKey>,
    /// The settled state; `None` when no exact start was recorded, so
    /// the next query solves from scratch.
    settled: Option<Rc<Settled>>,
}

/// The end state of a propagation run that absorbed every constraint,
/// recorded no hole, met no `!=` whose effect depends on constraint
/// order, and stopped before its round cap.
#[derive(Debug)]
struct Settled {
    bindings: BTreeMap<SymId, u64>,
    intervals: BTreeMap<SymId, Interval>,
    /// A bound on the rounds a from-scratch propagation of the covered
    /// constraints takes.
    rounds: usize,
}

impl Fixpoint {
    /// A fixpoint of `len` constraints with memo-key hash `hash` and
    /// store key `canon` that records no state: a query extending it
    /// solves from scratch.
    pub(crate) fn unsettled(len: usize, hash: u64, canon: Option<CanonKey>) -> Fixpoint {
        Fixpoint {
            len,
            hash,
            canon,
            settled: None,
        }
    }

    /// The store key of the constraints this fixpoint covers and their
    /// sorted distinct symbols, as the check that returned it computed
    /// them: always equal to [`canonical_key`](crate::canonical_key) of
    /// those constraints. `None` when that check needed no key (its
    /// session had absorbed no store entries).
    pub fn store_key(&self) -> Option<(CanonFp, &[SymId])> {
        let canon = self.canon.as_ref()?;
        Some((canon.fingerprint(), canon.symbols()))
    }

    /// `true` when a query extending this one may start from its state.
    #[cfg(test)]
    fn is_settled(&self) -> bool {
        self.settled.is_some()
    }

    /// A handle to this fixpoint that does not keep its state alive.
    pub(crate) fn downgrade(&self) -> WeakFixpoint {
        WeakFixpoint {
            len: self.len,
            hash: self.hash,
            canon: self.canon.clone(),
            settled: self.settled.as_ref().map(Rc::downgrade),
        }
    }
}

/// A [`Fixpoint`] whose state lives only as long as some [`Fixpoint`]
/// still holds it. A session's memo keeps these: the state of a list a
/// live search node still carries is there for a repeat of that list,
/// and a discarded subtree's states are freed with it. The store key is
/// kept whole, so a repeat continues it too.
#[derive(Debug)]
pub(crate) struct WeakFixpoint {
    len: usize,
    hash: u64,
    canon: Option<CanonKey>,
    settled: Option<Weak<Settled>>,
}

impl WeakFixpoint {
    /// The fixpoint, settled only while its state is alive.
    pub(crate) fn upgrade(&self) -> Fixpoint {
        Fixpoint {
            len: self.len,
            hash: self.hash,
            canon: self.canon.clone(),
            settled: self.settled.as_ref().and_then(Weak::upgrade),
        }
    }
}

/// A check's answer, assignment cost and portable flag, with the state
/// a query extending it may start from.
type Answer = (SolveResult, u64, bool, Option<Rc<Settled>>);

struct State {
    bindings: BTreeMap<SymId, u64>,
    intervals: BTreeMap<SymId, Interval>,
    constraints: Vec<ExprRef>,
    /// Interior `σ != v` constraints propagation took in without
    /// enforcing them: a convex interval cannot hold the hole (see
    /// [`Interval::refine_ne`]). Checked against the finished model.
    holes: Vec<ExprRef>,
    /// Some `!=` acted in a way that depends on constraint order: an
    /// absorbed `σ != v` had `0 < v < u64::MAX`, so whether it cut an
    /// interval endpoint or left a hole depended on the interval when
    /// it arrived; or a constraint that can turn into a `!=`
    /// ([`may_hold_disequality`]) folded to false, which a run that
    /// met it before its symbols were bound would have taken as a hole.
    ordered_ne: bool,
    /// Propagation rounds started.
    rounds: usize,
    /// The run ran out of rounds instead of reaching a round that
    /// changed nothing.
    capped: bool,
    /// The symbols bound since the current propagation round began.
    fresh: Vec<SymId>,
}

/// What [`Solver::extract`] made of one constraint.
enum Extracted {
    /// Turned into bindings or interval refinements.
    Absorbed,
    /// Left for enumeration: the constraint itself, or the comparison a
    /// negated one was rewritten to.
    Residual(ExprRef),
}

impl State {
    fn new(
        bindings: BTreeMap<SymId, u64>,
        intervals: BTreeMap<SymId, Interval>,
        constraints: Vec<ExprRef>,
    ) -> State {
        State {
            bindings,
            intervals,
            constraints,
            holes: Vec::new(),
            ordered_ne: false,
            rounds: 0,
            capped: false,
            fresh: Vec::new(),
        }
    }

    /// `true` when the run so far is one a later run may start from,
    /// or take the answer of: no hole, no order-dependent `!=`, no cap.
    fn exact(&self) -> bool {
        self.holes.is_empty() && !self.ordered_ne && !self.capped
    }

    /// The model of a run that absorbed every constraint: the bindings,
    /// and each other refined symbol at its interval's low point.
    fn model(&self) -> Model {
        let mut model = Model::new();
        for (&s, &v) in &self.bindings {
            model.set(s, v);
        }
        for (&s, iv) in &self.intervals {
            if model.get(s).is_none() {
                model.set(s, iv.lo);
            }
        }
        model
    }

    /// The Sat answer of a run that absorbed every constraint exactly,
    /// with its state for a later run to start from; a from-scratch run
    /// of the same list takes at most `rounds` rounds.
    fn settle(self, rounds: usize) -> Answer {
        let model = self.model();
        let settled = Settled {
            bindings: self.bindings,
            intervals: self.intervals,
            rounds,
        };
        (SolveResult::Sat(model), 0, true, Some(Rc::new(settled)))
    }

    fn bind(&mut self, s: SymId, v: u64) -> Result<bool, ()> {
        if let Some(&old) = self.bindings.get(&s) {
            return if old == v { Ok(false) } else { Err(()) };
        }
        if !self
            .intervals
            .get(&s)
            .copied()
            .unwrap_or_default()
            .contains(v)
        {
            return Err(());
        }
        self.bindings.insert(s, v);
        self.fresh.push(s);
        Ok(true)
    }

    fn refine(&mut self, s: SymId, f: impl FnOnce(Interval) -> Interval) -> Result<bool, ()> {
        let cur = self.intervals.get(&s).copied().unwrap_or_default();
        let next = f(cur);
        if next.is_empty() {
            return Err(());
        }
        // A symbol bound earlier in the round keeps its value only if
        // the narrowed interval still holds it.
        if self.bindings.get(&s).is_some_and(|&v| !next.contains(v)) {
            return Err(());
        }
        if next == cur {
            return Ok(false);
        }
        self.intervals.insert(s, next);
        if next.is_point() {
            self.bind(s, next.lo).map(|_| true)
        } else {
            Ok(true)
        }
    }
}

impl Solver {
    /// Creates a solver with default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with explicit budgets.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Checks the conjunction of `constraints` (each truthy when
    /// non-zero).
    pub fn check(&self, constraints: &[ExprRef]) -> SolveResult {
        self.check_counted(constraints).0
    }

    /// Like [`check`](Solver::check), but also reports how many full
    /// assignments the enumeration phase consumed (0 when propagation
    /// alone decided the query). This is the currency the kernel-level
    /// solver budget is denominated in.
    pub fn check_counted(&self, constraints: &[ExprRef]) -> (SolveResult, u64) {
        let (result, used, _) = self.check_classified(constraints);
        (result, used)
    }

    /// Like [`check_counted`](Solver::check_counted), plus a *portable*
    /// flag: `true` when the verdict is renaming-equivariant — renaming
    /// the query's symbols by any monotone map and re-solving would
    /// return the identically-renamed verdict at the same assignment
    /// cost. That holds when propagation alone decided the query, or
    /// when enumeration ran over complete finite domains (candidates
    /// are then whole intervals and the search order is the sorted
    /// symbol order, both structure-only). It does *not* hold once
    /// probe candidates enter, because probes are seeded from raw
    /// [`SymId`]s. Portable results may be shared across
    /// differently-numbered sessions (see `crate::fingerprint`).
    pub fn check_classified(&self, constraints: &[ExprRef]) -> (SolveResult, u64, bool) {
        let (result, used, portable, _) = self.check_after(constraints, &Fixpoint::default());
        (result, used, portable)
    }

    /// [`check_classified`](Solver::check_classified) of `all`, given
    /// `parent`, the [`Fixpoint`] a check of `all[..k]` returned, plus
    /// the fixpoint of `all` for the check of a longer list.
    ///
    /// When `parent` is settled, only `all[k..]` is propagated, from the
    /// parent's bindings and intervals. That run's answer is taken when
    /// it is exact: no hole, no `!=` whose effect depends on constraint
    /// order, for a Sat answer every new constraint absorbed, and the
    /// parent's round bound plus the run's rounds, less the one round
    /// both count, within `max_rounds`. Otherwise, or when `parent` is
    /// not settled, `all` is solved from scratch. Either way the answer
    /// is exactly `check_classified(all)`; DESIGN §4 ("Exploration
    /// kernel") gives the argument.
    pub fn check_after(
        &self,
        all: &[ExprRef],
        parent: &Fixpoint,
    ) -> (SolveResult, u64, bool, Fixpoint) {
        debug_assert!(parent.len <= all.len(), "a fixpoint covers a prefix");
        let extended = parent
            .settled
            .as_ref()
            .and_then(|from| self.extend(from, &all[parent.len..]));
        let (result, used, portable, settled) =
            extended.unwrap_or_else(|| self.solve_from_scratch(all));
        let fixpoint = Fixpoint {
            len: all.len(),
            hash: 0,
            canon: None,
            settled,
        };
        (result, used, portable, fixpoint)
    }

    /// Propagates the constraints `added` to the list `from` settled;
    /// `None` when the run is not exact and the whole list must be
    /// solved from scratch.
    fn extend(&self, from: &Settled, added: &[ExprRef]) -> Option<Answer> {
        // A from-scratch run of the whole list takes at most the
        // parent's rounds plus this run's, less one: each count ends
        // with a round that changed nothing.
        let rounds_left = (self.config.max_rounds + 1).saturating_sub(from.rounds);
        let mut st = State::new(
            from.bindings.clone(),
            from.intervals.clone(),
            added.to_vec(),
        );
        let propagated = self.propagate(&mut st, rounds_left);
        if !st.exact() {
            return None;
        }
        match propagated {
            Err(()) => Some((SolveResult::Unsat, 0, true, None)),
            Ok(()) if st.constraints.is_empty() => {
                let rounds = from.rounds + st.rounds - 1;
                Some(st.settle(rounds))
            }
            Ok(()) => None,
        }
    }

    /// Solves `constraints` from scratch; the fixpoint is settled when
    /// propagation alone decided a Sat answer exactly.
    fn solve_from_scratch(&self, constraints: &[ExprRef]) -> Answer {
        let mut st = State::new(BTreeMap::new(), BTreeMap::new(), constraints.to_vec());
        if self.propagate(&mut st, self.config.max_rounds).is_err() {
            return (SolveResult::Unsat, 0, true, None);
        }
        if st.constraints.is_empty() && st.exact() {
            let rounds = st.rounds;
            return st.settle(rounds);
        }
        let (result, used, portable) = if st.constraints.is_empty() {
            (SolveResult::Sat(st.model()), 0, true)
        } else {
            self.enumerate(&st)
        };
        let model_fills_a_hole = result
            .model()
            .is_some_and(|m| st.holes.iter().any(|h| m.eval_total(h) == Some(0)));
        if !model_fills_a_hole {
            return (result, used, portable, None);
        }
        // Search again with the holes enforced, as residual constraints
        // under the propagated bindings. Only a wrong model gets here,
        // so a sound answer never changes.
        let bindings = &st.bindings;
        for h in std::mem::take(&mut st.holes) {
            let h = h.substitute(&|s| bindings.get(&s).map(|&v| Expr::konst(v)));
            match h.as_const() {
                Some(0) => return (SolveResult::Unsat, used, portable, None),
                Some(_) => {}
                None => st.constraints.push(h),
            }
        }
        let (result, again, complete) = self.enumerate(&st);
        (result, used + again, portable && complete, None)
    }

    /// Convenience: check and demand a model.
    pub fn solve(&self, constraints: &[ExprRef]) -> Option<Model> {
        match self.check(constraints) {
            SolveResult::Sat(m) => Some(m),
            _ => None,
        }
    }

    /// Propagates `st.constraints` into its bindings and intervals for
    /// at most `max_rounds` rounds, leaving the residual constraints.
    /// `Err` proves the constraints unsatisfiable.
    ///
    /// A round substitutes the bindings as they stood when it began.
    /// `bind` never rebinds a symbol, so those are the bindings less
    /// the symbols bound during the round, which `st.fresh` lists: no
    /// round copies the map.
    fn propagate(&self, st: &mut State, max_rounds: usize) -> Result<(), ()> {
        let mut settled = false;
        for _ in 0..max_rounds {
            st.rounds += 1;
            st.fresh.clear();
            let mut changed = false;
            let mut next: Vec<ExprRef> = Vec::with_capacity(st.constraints.len());
            for c in std::mem::take(&mut st.constraints) {
                let substituted = c.substitute(&|s| match st.bindings.get(&s) {
                    Some(&v) if !st.fresh.contains(&s) => Some(Expr::konst(v)),
                    _ => None,
                });
                match substituted.as_const() {
                    Some(0) => {
                        st.ordered_ne |= may_hold_disequality(&c);
                        return Err(());
                    }
                    Some(_) => {
                        changed = true;
                        continue;
                    }
                    None => {}
                }
                match self.extract(substituted, st)? {
                    Extracted::Absorbed => changed = true,
                    Extracted::Residual(c) => next.push(c),
                }
            }
            st.constraints = next;
            if !changed {
                settled = true;
                break;
            }
        }
        st.capped = !settled;
        // Final substitution + tautology sweep.
        let mut out = Vec::new();
        for c in std::mem::take(&mut st.constraints) {
            let c = c.substitute(&|s| st.bindings.get(&s).map(|&v| Expr::konst(v)));
            match c.as_const() {
                Some(0) => return Err(()),
                Some(_) => {}
                None => out.push(c),
            }
        }
        st.constraints = out;
        Ok(())
    }

    /// The reference for [`propagate`](Solver::propagate): each round
    /// substitutes a copy of the bindings taken when it began. The
    /// property `propagate_matches_the_reference` holds `propagate` to
    /// the state this leaves after every run.
    #[cfg(test)]
    fn propagate_reference(&self, st: &mut State, max_rounds: usize) -> Result<(), ()> {
        let mut settled = false;
        for _ in 0..max_rounds {
            st.rounds += 1;
            let mut changed = false;
            let mut next: Vec<ExprRef> = Vec::with_capacity(st.constraints.len());
            let bindings = st.bindings.clone();
            for c in std::mem::take(&mut st.constraints) {
                let substituted = c.substitute(&|s| bindings.get(&s).map(|&v| Expr::konst(v)));
                match substituted.as_const() {
                    Some(0) => {
                        st.ordered_ne |= may_hold_disequality(&c);
                        return Err(());
                    }
                    Some(_) => {
                        changed = true;
                        continue;
                    }
                    None => {}
                }
                match self.extract(substituted, st)? {
                    Extracted::Absorbed => changed = true,
                    Extracted::Residual(c) => next.push(c),
                }
            }
            st.constraints = next;
            if !changed {
                settled = true;
                break;
            }
        }
        st.capped = !settled;
        // Final substitution + tautology sweep.
        let bindings = st.bindings.clone();
        let mut out = Vec::new();
        for c in std::mem::take(&mut st.constraints) {
            let c = c.substitute(&|s| bindings.get(&s).map(|&v| Expr::konst(v)));
            match c.as_const() {
                Some(0) => return Err(()),
                Some(_) => {}
                None => out.push(c),
            }
        }
        st.constraints = out;
        Ok(())
    }

    /// Tries to turn one constraint into bindings / interval
    /// refinements; a constraint it cannot absorb stays residual, and a
    /// negated comparison stays as the comparison it was rewritten to.
    fn extract(&self, c: ExprRef, st: &mut State) -> Result<Extracted, ()> {
        match &*c {
            // A bare symbol as a constraint: σ != 0.
            Expr::Sym(s) => {
                st.refine(*s, |iv| iv.refine_ne(0))?;
                Ok(Extracted::Absorbed)
            }
            Expr::Bin(BinOp::Eq, a, b) => {
                // `(cmp ...) == 0` → negated comparison.
                if b.as_const() == Some(0) {
                    if let Expr::Bin(op, x, y) = &**a {
                        if let Some((nop, swap)) = negate_cmp(*op) {
                            let (x, y) = if swap {
                                (y.clone(), x.clone())
                            } else {
                                (x.clone(), y.clone())
                            };
                            return self.extract(Expr::bin(nop, x, y), st);
                        }
                    }
                }
                if let Some(t) = b.as_const() {
                    match isolate(a, t) {
                        Isolated::Bind(s, v) => {
                            st.bind(s, v)?;
                            return Ok(Extracted::Absorbed);
                        }
                        Isolated::Contradiction => return Err(()),
                        Isolated::NoProgress => {}
                    }
                }
                if let Some(t) = a.as_const() {
                    match isolate(b, t) {
                        Isolated::Bind(s, v) => {
                            st.bind(s, v)?;
                            return Ok(Extracted::Absorbed);
                        }
                        Isolated::Contradiction => return Err(()),
                        Isolated::NoProgress => {}
                    }
                }
                Ok(Extracted::Residual(c))
            }
            Expr::Bin(BinOp::Ne, a, b) => {
                if let (Some(s), Some(v)) = (a.as_sym(), b.as_const()) {
                    st.ordered_ne |= 0 < v && v < u64::MAX;
                    let iv = st.intervals.get(&s).copied().unwrap_or_default();
                    if iv.lo < v && v < iv.hi {
                        st.holes.push(c.clone());
                    }
                    st.refine(s, |iv| iv.refine_ne(v))?;
                    return Ok(Extracted::Absorbed);
                }
                Ok(Extracted::Residual(c))
            }
            Expr::Bin(BinOp::LtU, a, b) => {
                let mut used = false;
                if let (Some(s), Some(v)) = (a.as_sym(), b.as_const()) {
                    st.refine(s, |iv| iv.refine_lt(v))?;
                    used = true;
                }
                if let (Some(v), Some(s)) = (a.as_const(), b.as_sym()) {
                    st.refine(s, |iv| iv.refine_gt(v))?;
                    used = true;
                }
                Ok(if used {
                    Extracted::Absorbed
                } else {
                    Extracted::Residual(c)
                })
            }
            Expr::Bin(BinOp::LeU, a, b) => {
                let mut used = false;
                if let (Some(s), Some(v)) = (a.as_sym(), b.as_const()) {
                    st.refine(s, |iv| iv.refine_le(v))?;
                    used = true;
                }
                if let (Some(v), Some(s)) = (a.as_const(), b.as_sym()) {
                    st.refine(s, |iv| iv.refine_ge(v))?;
                    used = true;
                }
                Ok(if used {
                    Extracted::Absorbed
                } else {
                    Extracted::Residual(c)
                })
            }
            _ => Ok(Extracted::Residual(c)),
        }
    }

    fn enumerate(&self, st: &State) -> (SolveResult, u64, bool) {
        // Free symbols of the residual constraints.
        let mut syms: BTreeSet<SymId> = BTreeSet::new();
        for c in &st.constraints {
            syms.extend(c.symbols());
        }
        let syms: Vec<SymId> = syms.into_iter().collect();
        if syms.is_empty() {
            // Residual constraints with no symbols should have folded;
            // if they didn't, that's a theory gap, not a budget issue.
            return (SolveResult::Unknown(UnknownReason::Incomplete), 0, true);
        }
        // Seed constants from the constraints.
        let mut seeds: BTreeSet<u64> = BTreeSet::new();
        for c in &st.constraints {
            for k in c.constants() {
                seeds.insert(k);
                seeds.insert(k.wrapping_add(1));
                seeds.insert(k.wrapping_sub(1));
            }
        }
        seeds.insert(0);
        seeds.insert(1);
        seeds.insert(u64::MAX);

        // Candidate lists per symbol.
        let mut candidates: Vec<Vec<u64>> = Vec::with_capacity(syms.len());
        let mut complete = true;
        for (i, &s) in syms.iter().enumerate() {
            let iv = st.intervals.get(&s).copied().unwrap_or_default();
            let mut cs: BTreeSet<u64> = BTreeSet::new();
            if iv.count() <= self.config.exhaustive_domain {
                for v in iv.lo..=iv.hi {
                    cs.insert(v);
                }
            } else {
                complete = false;
                cs.insert(iv.lo);
                cs.insert(iv.hi);
                for &k in &seeds {
                    if iv.contains(k) {
                        cs.insert(k);
                    }
                }
                // Deterministic probes.
                let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ ((s as u64 + 1) * (i as u64 + 1));
                for _ in 0..self.config.probes_per_symbol {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    let v = iv
                        .lo
                        .wrapping_add(x.wrapping_mul(0x2545_f491_4f6c_dd1d) % iv.count().max(1));
                    if iv.contains(v) {
                        cs.insert(v);
                    }
                }
            }
            candidates.push(cs.into_iter().collect());
        }
        // Order symbols by ascending candidate count (fail fast).
        let mut order: Vec<usize> = (0..syms.len()).collect();
        order.sort_by_key(|&i| candidates[i].len());

        let mut assignment: BTreeMap<SymId, u64> = st.bindings.clone();
        let mut budget = self.config.max_assignments;
        let found = self.dfs(
            &st.constraints,
            &st.intervals,
            &syms,
            &candidates,
            &order,
            0,
            &mut assignment,
            &mut budget,
        );
        let used = self.config.max_assignments - budget;
        let result = match found {
            Some(model_map) => {
                let mut model = Model::new();
                for (s, v) in model_map {
                    model.set(s, v);
                }
                // A symbol the model leaves out reads as 0. One whose
                // interval excludes 0 takes its low point instead, as
                // in a propagation-only model.
                for (&s, iv) in &st.intervals {
                    if iv.lo > 0 && model.get(s).is_none() {
                        model.set(s, iv.lo);
                    }
                }
                SolveResult::Sat(model)
            }
            None if complete && budget > 0 => SolveResult::Unsat,
            None if budget == 0 => SolveResult::Unknown(UnknownReason::BudgetExhausted),
            // Candidate space exhausted but incomplete: more budget would
            // not have helped, the probe set just missed.
            None => SolveResult::Unknown(UnknownReason::Incomplete),
        };
        // With complete domains no probe candidates exist, so the whole
        // enumeration (order, forced values, budget spend, witness) is a
        // function of constraint structure alone → portable. A budget
        // cut is still portable: the renamed run cuts at the same point.
        (result, used, complete)
    }

    /// Checks whether any constraint, specialized to the current partial
    /// assignment, pins symbol `s` to a unique value. Returns
    /// `Some(Ok(v))` when forced, `Some(Err(()))` when contradictory,
    /// `None` when unconstrained.
    fn forced_value(
        &self,
        constraints: &[ExprRef],
        assignment: &BTreeMap<SymId, u64>,
        s: SymId,
    ) -> Option<Result<u64, ()>> {
        for c in constraints {
            let syms = c.symbols();
            if !syms.contains(&s) {
                continue;
            }
            // Every *other* symbol must already be assigned.
            if !syms.iter().all(|q| *q == s || assignment.contains_key(q)) {
                continue;
            }
            let specialized = c.substitute(&|q| assignment.get(&q).map(|&v| Expr::konst(v)));
            if let Expr::Bin(BinOp::Eq, a, b) = &*specialized {
                let (expr, target) = match (a.as_const(), b.as_const()) {
                    (Some(t), None) => (b, t),
                    (None, Some(t)) => (a, t),
                    _ => continue,
                };
                match isolate(expr, target) {
                    Isolated::Bind(q, v) if q == s => return Some(Ok(v)),
                    Isolated::Contradiction => return Some(Err(())),
                    _ => {}
                }
            }
        }
        None
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        constraints: &[ExprRef],
        intervals: &BTreeMap<SymId, Interval>,
        syms: &[SymId],
        candidates: &[Vec<u64>],
        order: &[usize],
        depth: usize,
        assignment: &mut BTreeMap<SymId, u64>,
        budget: &mut u64,
    ) -> Option<BTreeMap<SymId, u64>> {
        if *budget == 0 {
            return None;
        }
        if depth == order.len() {
            *budget -= 1;
            // Candidates lie inside their symbol's interval, but a
            // forced value need not.
            let ok = constraints.iter().all(|c| {
                c.eval(&|s| assignment.get(&s).copied())
                    .is_some_and(|v| v != 0)
            }) && syms
                .iter()
                .all(|s| intervals.get(s).is_none_or(|iv| iv.contains(assignment[s])));
            return ok.then(|| assignment.clone());
        }
        let idx = order[depth];
        let s = syms[idx];
        // If, under the current partial assignment, some constraint
        // reduces to an invertible equality on `s`, its value is forced:
        // enumerate just that value (Contradiction prunes the branch).
        let forced = self.forced_value(constraints, assignment, s);
        let forced_list;
        let values: &[u64] = match forced {
            Some(Ok(v)) => {
                forced_list = [v];
                &forced_list
            }
            Some(Err(())) => &[],
            None => &candidates[idx],
        };
        for &v in values {
            if *budget == 0 {
                return None;
            }
            assignment.insert(s, v);
            // Early pruning: evaluate constraints that are fully
            // assigned so far.
            let viable =
                constraints
                    .iter()
                    .all(|c| match c.eval(&|q| assignment.get(&q).copied()) {
                        Some(0) => false,
                        Some(_) | None => true,
                    });
            if viable {
                if let Some(m) = self.dfs(
                    constraints,
                    intervals,
                    syms,
                    candidates,
                    order,
                    depth + 1,
                    assignment,
                    budget,
                ) {
                    return Some(m);
                }
            } else {
                *budget = budget.saturating_sub(1);
            }
            assignment.remove(&s);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(id: SymId) -> ExprRef {
        Expr::sym(id)
    }

    fn k(v: u64) -> ExprRef {
        Expr::konst(v)
    }

    fn eq(a: ExprRef, b: ExprRef) -> ExprRef {
        Expr::bin(BinOp::Eq, a, b)
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let solver = Solver::new();
        assert!(solver.check(&[k(1)]).is_sat());
        assert!(solver.check(&[k(0)]).is_unsat());
        assert!(solver.check(&[]).is_sat());
    }

    #[test]
    fn isolates_linear_equations() {
        let solver = Solver::new();
        // σ0 + 5 == 12 → σ0 = 7.
        let c = eq(Expr::bin(BinOp::Add, s(0), k(5)), k(12));
        let m = solver.solve(&[c]).unwrap();
        assert_eq!(m.get(0), Some(7));
    }

    #[test]
    fn isolates_through_chains() {
        let solver = Solver::new();
        // ((σ0 ^ 0xff) - 3) == 10 → σ0 = 13 ^ 0xff.
        let c = eq(
            Expr::bin(BinOp::Sub, Expr::bin(BinOp::Xor, s(0), k(0xff)), k(3)),
            k(10),
        );
        let m = solver.solve(&[c]).unwrap();
        assert_eq!(m.get(0), Some(13 ^ 0xff));
    }

    #[test]
    fn isolates_odd_multiplication() {
        let solver = Solver::new();
        // σ0 * 3 == 42 → σ0 = 14.
        let c = eq(Expr::bin(BinOp::Mul, s(0), k(3)), k(42));
        let m = solver.solve(&[c]).unwrap();
        assert_eq!(m.get(0), Some(14));
    }

    #[test]
    fn isolates_negation_and_not() {
        let solver = Solver::new();
        let c = eq(Expr::un(UnOp::Neg, s(0)), k(5u64.wrapping_neg()));
        assert_eq!(solver.solve(&[c]).unwrap().get(0), Some(5));
        let c = eq(Expr::un(UnOp::Not, s(1)), k(!77));
        assert_eq!(solver.solve(&[c]).unwrap().get(1), Some(77));
    }

    #[test]
    fn conflicting_equalities_unsat() {
        let solver = Solver::new();
        let c1 = eq(s(0), k(1));
        let c2 = eq(s(0), k(2));
        assert!(solver.check(&[c1, c2]).is_unsat());
    }

    #[test]
    fn interval_contradiction_unsat() {
        let solver = Solver::new();
        // σ0 < 5 and σ0 == 9.
        let c1 = Expr::bin(BinOp::LtU, s(0), k(5));
        let c2 = eq(s(0), k(9));
        assert!(solver.check(&[c1, c2]).is_unsat());
    }

    #[test]
    fn bounded_domain_enumerated_exhaustively() {
        let solver = Solver::new();
        // σ0 < 4 and σ0*σ0 == 9 → σ0 = 3.
        let c1 = Expr::bin(BinOp::LtU, s(0), k(4));
        let c2 = eq(Expr::bin(BinOp::Mul, s(0), s(0)), k(9));
        let m = solver.solve(&[c1, c2]).unwrap();
        assert_eq!(m.get(0), Some(3));
    }

    #[test]
    fn bounded_domain_proves_unsat() {
        let solver = Solver::new();
        // σ0 < 4 and σ0*σ0 == 10 — nothing works; domain complete.
        let c1 = Expr::bin(BinOp::LtU, s(0), k(4));
        let c2 = eq(Expr::bin(BinOp::Mul, s(0), s(0)), k(10));
        assert!(solver.check(&[c1, c2]).is_unsat());
    }

    #[test]
    fn constant_seeding_cracks_equalities() {
        let solver = Solver::new();
        // σ0 & 0xf0 == 0x30 over an unbounded domain — seeds include
        // 0x30 ± 1 and friends; 0x30 itself satisfies.
        let c = eq(Expr::bin(BinOp::And, s(0), k(0xf0)), k(0x30));
        let m = solver.solve(&[c]).unwrap();
        assert_eq!(m.get_or_zero(0) & 0xf0, 0x30);
    }

    #[test]
    fn two_symbol_system() {
        let solver = Solver::new();
        // σ0 + σ1 == 10, σ0 == 4.
        let c1 = eq(Expr::bin(BinOp::Add, s(0), s(1)), k(10));
        let c2 = eq(s(0), k(4));
        let m = solver.solve(&[c1, c2]).unwrap();
        assert_eq!(m.get(0), Some(4));
        assert_eq!(m.get(1), Some(6));
    }

    #[test]
    fn negated_comparison_rewrites() {
        let solver = Solver::new();
        // (σ0 < 10) == 0 → σ0 >= 10; with σ0 <= 10 → σ0 = 10.
        let lt = Expr::bin(BinOp::LtU, s(0), k(10));
        let c1 = eq(lt, k(0));
        let c2 = Expr::bin(BinOp::LeU, s(0), k(10));
        let m = solver.solve(&[c1, c2]).unwrap();
        assert_eq!(m.get(0), Some(10));
    }

    #[test]
    fn bare_symbol_constraint_means_nonzero() {
        let solver = Solver::new();
        let c1 = s(0);
        let c2 = Expr::bin(BinOp::LeU, s(0), k(1));
        let m = solver.solve(&[c1, c2]).unwrap();
        assert_eq!(m.get(0), Some(1));
    }

    #[test]
    fn disequality_enumeration() {
        let solver = Solver::new();
        // σ0 != 0, σ0 != 1, σ0 <= 2 → σ0 = 2.
        let c1 = Expr::bin(BinOp::Ne, s(0), k(0));
        let c2 = Expr::bin(BinOp::Ne, s(0), k(1));
        let c3 = Expr::bin(BinOp::LeU, s(0), k(2));
        let m = solver.solve(&[c1, c2, c3]).unwrap();
        assert_eq!(m.get(0), Some(2));
    }

    #[test]
    fn unknown_on_hard_unbounded_problems() {
        // σ0 * σ0 == 0x4000000000000001 over the full domain with a tiny
        // budget: no seed hits it, so the solver must answer Unknown,
        // never a false Unsat.
        let solver = Solver::with_config(SolverConfig {
            max_assignments: 100,
            ..SolverConfig::default()
        });
        let c = eq(Expr::bin(BinOp::Mul, s(0), s(0)), k(0x4000_0000_0000_0001));
        let r = solver.check(&[c]);
        assert!(!r.is_unsat(), "must not claim unsat: {r:?}");
    }

    #[test]
    fn shl_low_bits_contradiction() {
        let solver = Solver::new();
        // σ0 << 4 == 3 is impossible.
        let c = eq(Expr::bin(BinOp::Shl, s(0), k(4)), k(3));
        assert!(solver.check(&[c]).is_unsat());
    }

    #[test]
    fn model_satisfies_all_constraints() {
        let solver = Solver::new();
        let cs = vec![
            eq(Expr::bin(BinOp::Add, s(0), s(1)), k(100)),
            Expr::bin(BinOp::LtU, s(0), k(50)),
            Expr::bin(BinOp::LtU, k(40), s(0)),
        ];
        let m = solver.solve(&cs).unwrap();
        for c in &cs {
            assert_eq!(m.eval_total(c).map(|v| v != 0), Some(true), "violated: {c}");
        }
    }

    /// Checks `cs` and demands a model that satisfies every constraint.
    fn witness(cs: &[ExprRef]) -> Model {
        let m = Solver::new().solve(cs).expect("sat");
        for c in cs {
            assert_eq!(
                m.eval_total(c).map(|v| v != 0),
                Some(true),
                "{m:?} violates {c}"
            );
        }
        m
    }

    #[test]
    fn negated_comparison_left_residual_is_enforced() {
        // (σ0 <u σ1) == 0 rewrites to σ1 <=u σ0, which no interval holds.
        let c1 = eq(Expr::bin(BinOp::LtU, s(0), s(1)), k(0));
        let m = witness(&[c1, eq(s(1), k(5))]);
        assert!(m.get_or_zero(0) >= 5);
        // σ2 != σ3 with both pinned to 7.
        let c1 = eq(eq(s(2), s(3)), k(0));
        let pins = [
            eq(s(2), k(7)),
            Expr::bin(BinOp::LeU, s(3), k(7)),
            Expr::bin(BinOp::LeU, k(7), s(3)),
        ];
        let cs: Vec<ExprRef> = std::iter::once(c1).chain(pins).collect();
        assert!(Solver::new().check(&cs).is_unsat());
    }

    #[test]
    fn interior_disequality_is_enforced() {
        let ne = Expr::bin(BinOp::Ne, s(0), k(5));
        assert!(Solver::new()
            .check(&[ne.clone(), eq(s(0), k(5))])
            .is_unsat());
        let m = witness(&[ne, Expr::bin(BinOp::LeU, k(5), s(0))]);
        assert_ne!(m.get(0), Some(5));
    }

    #[test]
    fn refinement_after_a_binding_keeps_it_inside() {
        // σ0 is bound before the bound that excludes its value is seen.
        let cs = [eq(s(0), k(2)), Expr::bin(BinOp::LtU, s(0), k(2))];
        assert!(Solver::new().check(&cs).is_unsat());
    }

    #[test]
    fn enumerated_models_respect_absorbed_intervals() {
        // σ0 ∈ [2, ∞) is absorbed; σ1 * σ0 == 1 forces σ0 = 1 once σ1 = 1.
        let cs = [
            eq(Expr::bin(BinOp::Mul, s(1), s(0)), k(1)),
            Expr::bin(BinOp::LtU, s(1), k(2)),
            Expr::bin(BinOp::LeU, k(2), s(0)),
        ];
        assert!(!Solver::new().check(&cs).is_sat());
        // σ2 ∈ [1, ∞) appears in no residual constraint, yet must not
        // read as 0.
        witness(&[
            Expr::bin(BinOp::Ne, s(2), k(0)),
            eq(Expr::bin(BinOp::LtU, s(0), s(1)), k(0)),
        ]);
    }

    /// Checks `steps` as a chain, each list extending the last, from
    /// the previous check's fixpoint; returns each step's answer and
    /// whether its fixpoint was settled, after comparing the answer
    /// with a from-scratch check.
    fn chain(steps: &[Vec<ExprRef>]) -> Vec<bool> {
        let solver = Solver::new();
        let mut all = Vec::new();
        let mut parent = Fixpoint::default();
        let mut settled = Vec::new();
        for step in steps {
            all.extend(step.iter().cloned());
            let (result, used, portable, fixpoint) = solver.check_after(&all, &parent);
            assert_eq!((result, used, portable), solver.check_classified(&all));
            settled.push(fixpoint.is_settled());
            parent = fixpoint;
        }
        settled
    }

    #[test]
    fn a_mid_range_disequality_keeps_no_fixpoint() {
        // `σ1 != σ2` arrives when 5 is σ1's interval endpoint and cuts
        // it; after `σ2 == 5` it arrives while 5 is interior, as a hole,
        // and the answer costs 2 assignments and is not portable.
        let ne = Expr::bin(BinOp::Ne, s(1), s(2));
        let p = vec![
            ne,
            Expr::bin(BinOp::LeU, s(3), s(1)),
            eq(s(2), s(4)),
            eq(s(4), k(5)),
            eq(s(3), k(5)),
        ];
        let solver = Solver::new();
        let (result, used, portable) = solver.check_classified(&p);
        assert_eq!(
            (result.model().and_then(|m| m.get(1)), used, portable),
            (Some(6), 0, true)
        );
        let mut child = p.clone();
        child.push(eq(s(2), k(5)));
        let (result, used, portable) = solver.check_classified(&child);
        assert_eq!(
            (result.model().and_then(|m| m.get(1)), used, portable),
            (Some(6), 2, false)
        );
        assert_eq!(chain(&[p, vec![eq(s(2), k(5))]]), [false, false]);
    }

    #[test]
    fn a_disequality_folded_to_false_answers_from_scratch() {
        // From the parent's bindings `σ3 != 7` folds to false; from
        // scratch it arrives before σ3 is bound, as a hole, and the
        // residual `σ1 != σ0` is enumerated first: 2 assignments.
        let steps = [
            vec![eq(Expr::bin(BinOp::Add, s(3), k(u64::MAX - 1)), k(5))],
            vec![
                Expr::bin(BinOp::Ne, s(1), s(0)),
                Expr::bin(BinOp::Ne, s(3), k(7)),
            ],
        ];
        let all: Vec<ExprRef> = steps.concat();
        assert_eq!(
            Solver::new().check_classified(&all),
            (SolveResult::Unsat, 2, false)
        );
        assert_eq!(chain(&steps), [true, false]);
    }

    #[test]
    fn the_round_bound_accumulates_along_a_chain() {
        // σ(i+1) == σi, newest link first, binds one link per round.
        // The anchored first 10 links settle in 12 rounds and each
        // further 10 in 11 from the parent's fixpoint, one of which is
        // the final round both counts hold: three steps take exactly the
        // cap of 32, and a fourth would take 42, so it is solved from
        // scratch, where it reaches the cap and settles nothing.
        let links = |from: u32| -> Vec<ExprRef> {
            (from..from + 10)
                .rev()
                .map(|i| eq(s(i + 1), s(i)))
                .collect()
        };
        let mut first = links(0);
        first.push(eq(s(0), k(7)));
        let settled = chain(&[first, links(10), links(20), links(30)]);
        assert_eq!(settled, [true, true, true, false]);
    }

    #[test]
    fn odd_inverse_correct() {
        for a in [1u64, 3, 5, 7, 0xdead_beef | 1, u64::MAX] {
            assert_eq!(a.wrapping_mul(odd_inverse(a)), 1, "inv({a})");
        }
    }

    type Propagate = fn(&Solver, &mut State, usize) -> Result<(), ()>;

    /// What a propagation run leaves.
    #[derive(Debug, PartialEq)]
    struct Left {
        result: Result<(), ()>,
        bindings: BTreeMap<SymId, u64>,
        intervals: BTreeMap<SymId, Interval>,
        /// The residual constraints, in order.
        constraints: Vec<ExprRef>,
        holes: Vec<ExprRef>,
        ordered_ne: bool,
        rounds: usize,
        capped: bool,
    }

    /// Runs `propagate` on `constraints` from `bindings` and
    /// `intervals` for at most `max_rounds` rounds.
    fn run(
        propagate: Propagate,
        (bindings, intervals): (&BTreeMap<SymId, u64>, &BTreeMap<SymId, Interval>),
        constraints: &[ExprRef],
        max_rounds: usize,
    ) -> Left {
        let mut st = State::new(bindings.clone(), intervals.clone(), constraints.to_vec());
        let result = propagate(&Solver::new(), &mut st, max_rounds);
        Left {
            result,
            bindings: st.bindings,
            intervals: st.intervals,
            constraints: st.constraints,
            holes: st.holes,
            ordered_ne: st.ordered_ne,
            rounds: st.rounds,
            capped: st.capped,
        }
    }

    /// Rounds that hide the symbols bound since they began, instead of
    /// substituting a copy of the bindings, leave exactly the state the
    /// copying rounds left. Every list of a generated chain is run from
    /// scratch, and as an increment from the state its parent list's run
    /// left under the round bound `Solver::check_after` gives it; the
    /// chains' 40-link equality chain reaches the round cap both ways.
    #[test]
    fn propagate_matches_the_reference() {
        use crate::chains::{chain_lists, fixpoint_chains};
        use proptest_mini::{check, prop_assert, Config};

        check(
            "propagate_matches_the_reference",
            &Config::new(),
            &fixpoint_chains(),
            |chain| {
                let max_rounds = SolverConfig::default().max_rounds;
                let empty = (&BTreeMap::new(), &BTreeMap::new());
                let mut parent: Option<(Left, usize)> = None;
                for all in chain_lists(chain) {
                    let got = run(Solver::propagate, empty, &all, max_rounds);
                    let want = run(Solver::propagate_reference, empty, &all, max_rounds);
                    prop_assert!(got == want, "from scratch: {got:?} != {want:?} on {all:?}");
                    if let Some((from, len)) =
                        parent.as_ref().filter(|(from, _)| from.result.is_ok())
                    {
                        let start = (&from.bindings, &from.intervals);
                        let rounds_left = (max_rounds + 1).saturating_sub(from.rounds);
                        let added = &all[*len..];
                        let got = run(Solver::propagate, start, added, rounds_left);
                        let want = run(Solver::propagate_reference, start, added, rounds_left);
                        prop_assert!(got == want, "increment: {got:?} != {want:?} on {all:?}");
                    }
                    parent = Some((want, all.len()));
                }
                Ok(())
            },
        );
    }
}
