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

use std::collections::{BTreeMap, BTreeSet};

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

/// Two independent FNV-1a accumulators, combined into 128 bits.
struct Fnv2 {
    a: u64,
    b: u64,
}

impl Fnv2 {
    fn new() -> Self {
        Fnv2 {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x6c62_272e_07bb_0142,
        }
    }

    fn byte(&mut self, x: u8) {
        self.a ^= x as u64;
        self.a = self.a.wrapping_mul(0x0000_0100_0000_01b3);
        self.b ^= x as u64;
        self.b = self.b.wrapping_mul(0x0000_0100_0000_0163);
    }

    fn u64(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.byte(byte);
        }
    }

    fn finish(&self) -> u128 {
        ((self.a as u128) << 64) | self.b as u128
    }
}

fn hash_expr(e: &ExprRef, rank: &BTreeMap<SymId, u32>, h: &mut Fnv2) {
    match &**e {
        Expr::Const(v) => {
            h.byte(1);
            h.u64(*v);
        }
        Expr::Sym(s) => {
            h.byte(2);
            h.u64(rank[s] as u64);
        }
        Expr::Bin(op, a, b) => {
            h.byte(3);
            h.byte(*op as u8);
            hash_expr(a, rank, h);
            hash_expr(b, rank, h);
        }
        Expr::Un(op, a) => {
            h.byte(4);
            h.byte(*op as u8);
            hash_expr(a, rank, h);
        }
    }
}

/// Canonicalizes a constraint sequence: returns its [`CanonFp`] and the
/// sorted distinct symbols, whose position *is* the canonical rank
/// (rank → original id). The renaming is monotone (sorted order), so it
/// preserves every id-order-dependent choice the solver makes on
/// complete domains.
pub fn canonical_key(constraints: &[ExprRef]) -> (CanonFp, Vec<SymId>) {
    let mut syms: BTreeSet<SymId> = BTreeSet::new();
    for c in constraints {
        syms.extend(c.symbols());
    }
    let sorted: Vec<SymId> = syms.into_iter().collect();
    let rank: BTreeMap<SymId, u32> = sorted
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let mut h = Fnv2::new();
    h.u64(constraints.len() as u64);
    for c in constraints {
        hash_expr(c, &rank, &mut h);
        h.byte(0xfe);
    }
    (CanonFp(h.finish()), sorted)
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
    /// Renames `result` into rank space. Returns `None` when the model
    /// mentions a symbol outside the key (cannot happen for results the
    /// solver produced from the keyed constraints; guarded anyway).
    pub fn from_result(
        result: &SolveResult,
        assignments: u64,
        sorted_syms: &[SymId],
    ) -> Option<Self> {
        let rank: BTreeMap<SymId, u32> = sorted_syms
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let verdict = match result {
            SolveResult::Sat(m) => {
                let mut pairs = Vec::with_capacity(m.len());
                for (s, v) in m.iter() {
                    pairs.push((*rank.get(&s)?, v));
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
