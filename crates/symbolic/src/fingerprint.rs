//! Canonical (α-renamed) constraint fingerprints and portable results.
//!
//! Every search mints its own [`SymCtx`]-style symbol numbering, so two
//! runs over dumps of the same program build constraint sets that are
//! *α-equivalent* — identical up to a monotone renaming of symbol ids —
//! but never byte-equal, and the exact memo cache in
//! [`SolverSession`](crate::SolverSession) cannot share answers between
//! them. This module provides the bridge that the persistent store
//! (`res-store`) carries from one run to the next:
//!
//! * [`canonical_key`] renames every symbol to its *rank* among the
//!   distinct symbols of the query (a monotone renaming) and hashes the
//!   renamed structure into a 128-bit [`CanonFp`]. α-equivalent
//!   constraint sequences collide exactly; everything else collides
//!   with probability ~2⁻¹²⁸.
//! * [`PortableResult`] is a solver verdict expressed over ranks
//!   instead of raw symbol ids. It contains no [`ExprRef`]s, so it can
//!   be written to disk and instantiated in another session.
//!
//! Only *renaming-equivariant* results may be exported (see
//! [`Solver::check_classified`](crate::Solver::check_classified)):
//! verdicts decided by propagation or by exhaustive enumeration of
//! complete finite domains depend only on the constraint structure, so
//! replaying them through the rank maps reproduces byte-for-byte what a
//! fresh solve would return. Probe-based enumeration seeds its
//! candidates from raw symbol ids and is therefore *not* equivariant;
//! such results stay private to the session that computed them.
//!
//! `SymCtx` lives in `res-core`; the solver only sees the ids it mints.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use mvm_json::{field, json_enum, json_struct, FromJson, Json, JsonError, Reader, ToJson};

use crate::expr::{Expr, ExprRef, SymId};
use crate::model::Model;
use crate::solver::{SolveResult, UnknownReason};

/// A 128-bit fingerprint of a canonicalized constraint sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonFp(pub u128);

// JSON keeps integers at u64 precision, so the 128-bit fingerprint is
// split into two words on the wire.
impl ToJson for CanonFp {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hi".to_string(), Json::U64((self.0 >> 64) as u64)),
            ("lo".to_string(), Json::U64(self.0 as u64)),
        ])
    }
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"hi\":");
        ((self.0 >> 64) as u64).write_json(out);
        out.push_str(",\"lo\":");
        (self.0 as u64).write_json(out);
        out.push('}');
    }
}

impl FromJson for CanonFp {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let obj = v
            .as_obj()
            .ok_or_else(|| JsonError::expected("CanonFp", v))?;
        let hi: u64 = field(obj, "hi", "CanonFp")?;
        let lo: u64 = field(obj, "lo", "CanonFp")?;
        Ok(CanonFp(((hi as u128) << 64) | lo as u128))
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let (mut hi, mut lo) = (None, None);
        r.object(|r, key| {
            let word = match key {
                "hi" => &mut hi,
                "lo" => &mut lo,
                _ => return None,
            };
            if word.is_some() {
                return None;
            }
            *word = Some(r.u64()?);
            Some(())
        })?;
        Some(CanonFp(((hi? as u128) << 64) | lo? as u128))
    }
}

/// The running state of a store key: two 64-bit lanes that every word
/// of a renamed constraint walk is mixed into (see [`canonical_key`]).
/// It is finalized only when a fingerprint is read, so the key of a
/// sequence continues from the lanes of any prefix of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lanes {
    a: u64,
    b: u64,
}

/// Multipliers of the two lanes (odd, from the digits of π and e).
const K_A: u64 = 0x243f_6a88_85a3_08d3;
const K_B: u64 = 0xb7e1_5162_8aed_2a6b;

/// The word that ends each constraint. Node words carry their tag in
/// the low byte (1 to 4), so no node starts with it.
const END: u64 = 0xfe;

impl Lanes {
    const START: Lanes = Lanes {
        a: 0xcbf2_9ce4_8422_2325,
        b: 0x6c62_272e_07bb_0142,
    };

    /// Mixes `w` into both lanes: each lane is multiplied into 128 bits,
    /// keeps the low half and feeds the high half to the other lane.
    /// For a fixed word the step is a bijection of the state, so no two
    /// states merge.
    fn word(&mut self, w: u64) {
        let p = u128::from(self.a ^ w) * u128::from(K_A);
        self.a = p as u64;
        self.b ^= (p >> 64) as u64;
        let q = u128::from(self.b) * u128::from(K_B);
        self.b = q as u64;
        self.a ^= (q >> 64) as u64;
    }

    /// The fingerprint: two more rounds, so the last words reach every
    /// bit of both lanes.
    fn finish(mut self) -> CanonFp {
        self.word(END << 8);
        self.word(END << 16);
        CanonFp((u128::from(self.a) << 64) | u128::from(self.b))
    }

    /// Mixes in `e` with every symbol replaced by its rank: its position
    /// in `sorted`, which holds every symbol of `e`. A node is one word
    /// (its tag in the low byte, its operator or rank above), and a
    /// constant is followed by a word of its value.
    fn expr(&mut self, e: &ExprRef, sorted: &[SymId]) {
        match &**e {
            Expr::Const(v) => {
                self.word(1);
                self.word(*v);
            }
            Expr::Sym(s) => {
                let rank = sorted.binary_search(s).expect("every symbol is ranked");
                self.word(2 | (rank as u64) << 8);
            }
            Expr::Bin(op, a, b) => {
                self.word(3 | u64::from(*op as u8) << 8);
                self.expr(a, sorted);
                self.expr(b, sorted);
            }
            Expr::Un(op, a) => {
                self.word(4 | u64::from(*op as u8) << 8);
                self.expr(a, sorted);
            }
        }
    }

    /// Mixes in each constraint of `constraints`, each followed by
    /// [`END`].
    fn constraints(&mut self, constraints: &[ExprRef], sorted: &[SymId]) {
        for c in constraints {
            self.expr(c, sorted);
            self.word(END);
        }
    }
}

/// The sorted distinct symbols of `constraints`.
fn sorted_symbols(constraints: &[ExprRef]) -> Vec<SymId> {
    let mut sorted = Vec::new();
    for c in constraints {
        c.collect_symbols(&mut sorted);
    }
    sorted.sort_unstable();
    sorted.dedup();
    sorted
}

/// Canonicalizes a constraint sequence: returns its [`CanonFp`] and the
/// sorted distinct symbols, whose position *is* the canonical rank
/// (rank → original id). The renaming is monotone (sorted order), so it
/// preserves every id-order-dependent choice the solver makes on
/// complete domains.
///
/// The fingerprint is a fold over a pre-order walk of the renamed
/// constraints, one 64-bit word per node (two for a constant), each
/// constraint ended by a terminator word and the sequence by nothing:
/// the walk decodes unambiguously, so no length prefix is needed, and
/// the key of a sequence continues the key of any prefix whose ranks it
/// keeps ([`CanonKey::extend`]). This is store format 2; format 1
/// hashed the same walk a byte at a time behind a length prefix.
pub fn canonical_key(constraints: &[ExprRef]) -> (CanonFp, Vec<SymId>) {
    let sorted = sorted_symbols(constraints);
    let mut lanes = Lanes::START;
    lanes.constraints(constraints, &sorted);
    (lanes.finish(), sorted)
}

/// The store key of a constraint sequence, unfinalized, with its sorted
/// distinct symbols: what a solver [`Fixpoint`](crate::Fixpoint) carries
/// so that the key of a list extending the sequence hashes only what
/// the list adds.
#[derive(Debug, Clone)]
pub struct CanonKey {
    lanes: Lanes,
    sorted: Rc<[SymId]>,
}

impl CanonKey {
    /// The key of `constraints`, computed from scratch.
    pub fn of(constraints: &[ExprRef]) -> CanonKey {
        let sorted = sorted_symbols(constraints);
        let mut lanes = Lanes::START;
        lanes.constraints(constraints, &sorted);
        CanonKey {
            lanes,
            sorted: sorted.into(),
        }
    }

    /// The key of this key's sequence followed by `added`, continued
    /// from this key's lanes. `None` when `added` brings a symbol that
    /// ranks below this sequence's largest: the ranks of the prefix
    /// would shift, so the key must be computed from scratch.
    pub fn extend(&self, added: &[ExprRef]) -> Option<CanonKey> {
        let mut new = sorted_symbols(added);
        new.retain(|s| self.sorted.binary_search(s).is_err());
        let sorted = match (new.first(), self.sorted.last()) {
            (None, _) => self.sorted.clone(),
            (Some(low), Some(high)) if low < high => return None,
            _ => self.sorted.iter().chain(&new).copied().collect(),
        };
        let mut lanes = self.lanes;
        lanes.constraints(added, &sorted);
        Some(CanonKey { lanes, sorted })
    }

    /// The fingerprint of the sequence.
    pub fn fingerprint(&self) -> CanonFp {
        self.lanes.finish()
    }

    /// The sequence's sorted distinct symbols: rank → symbol.
    pub fn symbols(&self) -> &[SymId] {
        &self.sorted
    }
}

/// A solver verdict over canonical ranks (no `ExprRef`s, so `Send`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortableVerdict {
    /// Satisfiable; the witness maps ranks to values.
    Sat(Vec<(u32, u64)>),
    /// Proven unsatisfiable.
    Unsat,
    /// No verdict (reason preserved).
    Unknown(UnknownReason),
}

json_enum!(PortableVerdict {
    Sat(Vec<(u32, u64)>),
    Unsat,
    Unknown(UnknownReason),
});

/// A renaming-equivariant solver result, exportable across threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortableResult {
    /// The verdict, over ranks.
    pub verdict: PortableVerdict,
    /// Enumeration assignments the original solve spent. Replayed into
    /// the absorbing session's accounting so kernel solver budgets
    /// behave identically whether a query was solved locally or
    /// imported.
    pub assignments: u64,
}

json_struct!(PortableResult {
    verdict,
    assignments
});

impl PortableResult {
    /// Renames `result` into rank space; `sorted_syms` is sorted and
    /// distinct, as [`canonical_key`] returns it. Returns `None` when the model
    /// mentions a symbol outside the key (cannot happen for results the
    /// solver produced from the keyed constraints; guarded anyway).
    pub fn from_result(
        result: &SolveResult,
        assignments: u64,
        sorted_syms: &[SymId],
    ) -> Option<Self> {
        let verdict = match result {
            SolveResult::Sat(m) => {
                let mut pairs = Vec::with_capacity(m.len());
                for (s, v) in m.iter() {
                    let rank = sorted_syms.binary_search(&s).ok()?;
                    pairs.push((rank as u32, v));
                }
                PortableVerdict::Sat(pairs)
            }
            SolveResult::Unsat => PortableVerdict::Unsat,
            SolveResult::Unknown(r) => PortableVerdict::Unknown(*r),
        };
        Some(PortableResult {
            verdict,
            assignments,
        })
    }

    /// Renames the verdict back into the symbol space of a query with
    /// the given sorted distinct symbols. Returns `None` when a rank is
    /// out of range (a fingerprint collision guard: the query then falls
    /// through to a fresh solve).
    pub fn instantiate(&self, sorted_syms: &[SymId]) -> Option<SolveResult> {
        Some(match &self.verdict {
            PortableVerdict::Sat(pairs) => {
                let mut m = Model::new();
                for &(rank, v) in pairs {
                    m.set(*sorted_syms.get(rank as usize)?, v);
                }
                SolveResult::Sat(m)
            }
            PortableVerdict::Unsat => SolveResult::Unsat,
            PortableVerdict::Unknown(r) => SolveResult::Unknown(*r),
        })
    }
}

/// A batch of canonical cache entries exported by one session.
#[derive(Debug, Clone, Default)]
pub struct PortableCache {
    /// `(fingerprint, result)` pairs, deduplicated per session.
    pub entries: Vec<(CanonFp, PortableResult)>,
}

json_struct!(PortableCache { entries });

impl PortableCache {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was exported.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries as borrowed `(fingerprint, result)` pairs, the shape
    /// [`SolverSession::absorb_from`](crate::SolverSession::absorb_from)
    /// takes.
    pub fn iter(&self) -> impl Iterator<Item = (&CanonFp, &PortableResult)> {
        self.entries.iter().map(|(fp, p)| (fp, p))
    }
}

/// Store entries by fingerprint: a store decodes its file into one and
/// shares it with every session that absorbs the store
/// ([`SolverSession::absorb_shared`](crate::SolverSession::absorb_shared)).
pub type PortableTable = HashMap<CanonFp, PortableResult, BuildHasherDefault<FpHasher>>;

/// Hashes a [`CanonFp`], which is a hash already, by folding its halves.
#[derive(Default)]
pub struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(K_A);
        }
    }

    fn write_u128(&mut self, n: u128) {
        self.0 = n as u64 ^ (n >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::BinOp;

    fn eq(a: ExprRef, b: ExprRef) -> ExprRef {
        Expr::bin(BinOp::Eq, a, b)
    }

    #[test]
    fn alpha_equivalent_sets_share_a_fingerprint() {
        // σ3 + 5 == 12 and σ90 + 5 == 12 are the same query up to
        // renaming.
        let a = vec![eq(
            Expr::bin(BinOp::Add, Expr::sym(3), Expr::konst(5)),
            Expr::konst(12),
        )];
        let b = vec![eq(
            Expr::bin(BinOp::Add, Expr::sym(90), Expr::konst(5)),
            Expr::konst(12),
        )];
        let (fa, sa) = canonical_key(&a);
        let (fb, sb) = canonical_key(&b);
        assert_eq!(fa, fb);
        assert_eq!(sa, vec![3]);
        assert_eq!(sb, vec![90]);
    }

    #[test]
    fn different_structure_differs() {
        let a = vec![eq(Expr::sym(0), Expr::konst(5))];
        let b = vec![eq(Expr::sym(0), Expr::konst(6))];
        let c = vec![Expr::bin(BinOp::LtU, Expr::sym(0), Expr::konst(5))];
        let (fa, _) = canonical_key(&a);
        let (fb, _) = canonical_key(&b);
        let (fc, _) = canonical_key(&c);
        assert_ne!(fa, fb);
        assert_ne!(fa, fc);
    }

    #[test]
    fn renaming_must_be_monotone_to_match() {
        // Two symbols in swapped roles: σ0 < σ1 vs σ1 < σ0. The sorted
        // renaming maps both queries over ranks {0, 1} but the structure
        // differs, so the fingerprints must differ.
        let a = vec![Expr::bin(BinOp::LtU, Expr::sym(0), Expr::sym(1))];
        let b = vec![Expr::bin(BinOp::LtU, Expr::sym(1), Expr::sym(0))];
        let (fa, _) = canonical_key(&a);
        let (fb, _) = canonical_key(&b);
        assert_ne!(fa, fb);
    }

    #[test]
    fn portable_roundtrip_renames_models() {
        let mut m = Model::new();
        m.set(7, 100);
        m.set(9, 200);
        let p = PortableResult::from_result(&SolveResult::Sat(m), 3, &[7, 9]).unwrap();
        let back = p.instantiate(&[40, 80]).unwrap();
        match back {
            SolveResult::Sat(m2) => {
                assert_eq!(m2.get(40), Some(100));
                assert_eq!(m2.get(80), Some(200));
            }
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(p.assignments, 3);
    }

    #[test]
    fn portable_results_round_trip_through_json() {
        let cache = PortableCache {
            entries: vec![
                (
                    CanonFp(u128::MAX - 7),
                    PortableResult {
                        verdict: PortableVerdict::Sat(vec![(0, u64::MAX), (1, 0)]),
                        assignments: 42,
                    },
                ),
                (
                    CanonFp(3),
                    PortableResult {
                        verdict: PortableVerdict::Unsat,
                        assignments: 0,
                    },
                ),
                (
                    CanonFp(9),
                    PortableResult {
                        verdict: PortableVerdict::Unknown(UnknownReason::Incomplete),
                        assignments: 1,
                    },
                ),
            ],
        };
        let text = mvm_json::to_string(&cache);
        let back: PortableCache = mvm_json::from_str(&text).unwrap();
        assert_eq!(back.entries, cache.entries);
    }

    #[test]
    fn instantiate_guards_rank_overflow() {
        let p = PortableResult {
            verdict: PortableVerdict::Sat(vec![(5, 1)]),
            assignments: 0,
        };
        assert!(p.instantiate(&[1, 2]).is_none(), "rank 5 has no symbol");
    }
}
