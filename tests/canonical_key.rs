//! `canonical_key` against a plain reference, from scratch and continued.
//!
//! Every store file holds the [`CanonFp`] values `canonical_key`
//! computes, so the key must return exactly the fingerprint and sorted
//! symbol list of the format-2 definition kept below: the renamed
//! pre-order walk written out as a list of words and folded into two
//! lanes, with the symbols ranked through a `BTreeSet` and a
//! `BTreeMap`. A solver session's `check_after` continues a query's key
//! from the key its parent's fixpoint carries, so the key every
//! returned [`Fixpoint`] carries must equal the reference too.
//! Reproduce a failure with
//! `RES_PROP_SEED=<seed> cargo test --test canonical_key`.

use std::cell::Cell;
use std::rc::Rc;

use proptest_mini::{check, prop_assert_eq, Config, Gen};
use res_debugger::isa::{BinOp, UnOp};
use res_debugger::symbolic::{
    canonical_key, CanonFp, Expr, ExprRef, Fixpoint, PortableCache, PortableResult,
    PortableVerdict, SolverConfig, SolverSession, SymId,
};

mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use res_debugger::symbolic::{CanonFp, Expr, ExprRef, SymId};

    /// The renamed pre-order walk of `e`: one word per node, its tag in
    /// the low byte (1 constant, 2 symbol, 3 binary, 4 unary) and its
    /// rank or operator above it, and a constant's value as one more
    /// word.
    fn words(e: &ExprRef, rank: &BTreeMap<SymId, u64>, out: &mut Vec<u64>) {
        match &**e {
            Expr::Const(v) => out.extend([1, *v]),
            Expr::Sym(s) => out.push(2 + (rank[s] << 8)),
            Expr::Bin(op, a, b) => {
                out.push(3 + ((*op as u64) << 8));
                words(a, rank, out);
                words(b, rank, out);
            }
            Expr::Un(op, a) => {
                out.push(4 + ((*op as u64) << 8));
                words(a, rank, out);
            }
        }
    }

    /// One word into the lanes `(a, b)`: `a` takes the word and is
    /// multiplied into 128 bits, keeping the low half and handing the
    /// high half to `b`, which is multiplied in turn and hands its high
    /// half back.
    fn mix((a, b): (u64, u64), w: u64) -> (u64, u64) {
        let p = (a ^ w) as u128 * 0x243f_6a88_85a3_08d3;
        let (a, b) = (p as u64, b ^ (p >> 64) as u64);
        let q = b as u128 * 0xb7e1_5162_8aed_2a6b;
        (a ^ (q >> 64) as u64, q as u64)
    }

    /// The format-2 store key: every constraint's words, each
    /// constraint followed by the word `0xfe`, folded from fixed lanes
    /// and closed by the words `0xfe00` and `0xfe0000`.
    pub fn canonical_key(constraints: &[ExprRef]) -> (CanonFp, Vec<SymId>) {
        let mut syms: BTreeSet<SymId> = BTreeSet::new();
        for c in constraints {
            syms.extend(c.symbols());
        }
        let sorted: Vec<SymId> = syms.into_iter().collect();
        let rank: BTreeMap<SymId, u64> = sorted
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u64))
            .collect();
        let mut stream = Vec::new();
        for c in constraints {
            words(c, &rank, &mut stream);
            stream.push(0xfe);
        }
        stream.extend([0xfe00, 0xfe_0000]);
        let (a, b) = stream
            .into_iter()
            .fold((0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142), mix);
        (CanonFp(((a as u128) << 64) | b as u128), sorted)
    }
}

const BIN_OPS: [BinOp; 17] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::DivU,
    BinOp::RemU,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
    BinOp::Sar,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::LtU,
    BinOp::LeU,
    BinOp::LtS,
    BinOp::LeS,
];

/// A raw expression tree (no simplifying constructors, so any shape
/// the key might meet is reachable) over a few small symbols that
/// repeat and a few sparse large ones, with the constants `0` and
/// `u64::MAX` among the leaves. Up to 12 levels deep.
fn expr(rng: &mut mvm_prng::Xoshiro256StarStar, depth: u32) -> ExprRef {
    let pick = |rng: &mut mvm_prng::Xoshiro256StarStar, n: usize| rng.next_below(n as u64) as usize;
    let leaf = depth >= 12 || rng.next_below(3) == 0;
    if leaf {
        return match pick(rng, 4) {
            0 => Expr::konst([0, u64::MAX, 1, rng.next_u64()][pick(rng, 4)]),
            1 => Expr::sym(pick(rng, 4) as u32),
            2 => Expr::sym([1 << 20, 65_535, u32::MAX - 1, u32::MAX][pick(rng, 4)]),
            _ => Expr::sym(rng.next_u64() as u32),
        };
    }
    if rng.next_below(4) == 0 {
        let op = [UnOp::Not, UnOp::Neg][pick(rng, 2)];
        return Rc::new(Expr::Un(op, expr(rng, depth + 1)));
    }
    let op = BIN_OPS[pick(rng, BIN_OPS.len())];
    Rc::new(Expr::Bin(op, expr(rng, depth + 1), expr(rng, depth + 1)))
}

/// Constraint sequences of 0 to 15 expressions; one case in eight is
/// empty.
fn sequences() -> Gen<Vec<ExprRef>> {
    Gen::new(
        |rng| {
            let len = if rng.next_below(8) == 0 {
                0
            } else {
                1 + rng.next_below(15) as usize
            };
            (0..len).map(|_| expr(rng, 0)).collect()
        },
        |v: &Vec<ExprRef>| {
            (0..v.len())
                .map(|i| [&v[..i], &v[i + 1..]].concat())
                .collect()
        },
    )
}

/// The key returns the reference's fingerprint and sorted symbols.
#[test]
fn canonical_key_matches_the_reference() {
    check(
        "canonical_key_matches_the_reference",
        &Config::with_cases(512),
        &sequences(),
        |constraints| {
            prop_assert_eq!(
                canonical_key(constraints),
                reference::canonical_key(constraints)
            );
            Ok(())
        },
    );
}

// ---- keys continued along check_after chains ---------------------------

/// A chain of 3 to 8 steps, each the constraints one search step adds.
/// `low` is a step (never the first) that brings a symbol ranked below
/// every symbol before it, so the keys of the list ranks shift; `repeat`
/// is a step whose list is asked twice from the same parent, the second
/// time an exact-memo hit that the chain then continues from.
#[derive(Debug, Clone)]
struct Chain {
    steps: Vec<Vec<ExprRef>>,
    low: usize,
    repeat: usize,
}

/// One solver-friendly constraint over `a` and `b`.
fn constraint(rng: &mut mvm_prng::Xoshiro256StarStar, a: SymId, b: SymId) -> ExprRef {
    let c = rng.next_below(40);
    let (a, b) = (Expr::sym(a), Expr::sym(b));
    match rng.next_below(6) {
        0 => Expr::bin(
            BinOp::Eq,
            Expr::bin(BinOp::Add, a, Expr::konst(c)),
            Expr::konst(c + 5),
        ),
        1 => Expr::bin(BinOp::LtU, a, Expr::konst(c + 1)),
        2 => Expr::bin(BinOp::Eq, Expr::bin(BinOp::Mul, a, b), Expr::konst(c)),
        3 => Expr::bin(BinOp::LtU, a, b),
        4 => Expr::bin(BinOp::Ne, a, Expr::konst(c)),
        _ => Expr::bin(BinOp::Eq, a, b),
    }
}

/// Chains whose steps mostly add symbols above every earlier one, as a
/// backward search mints them, and reuse earlier ones. Step `low` adds
/// one below the first step's smallest.
fn chains() -> Gen<Chain> {
    Gen::new(
        |rng| {
            let len = 3 + rng.next_below(6) as usize;
            let low = 1 + rng.next_below(len as u64 - 1) as usize;
            let repeat = rng.next_below(len as u64) as usize;
            let mut syms: Vec<SymId> = Vec::new();
            let mut next: SymId = 1_000;
            let mut pick = |rng: &mut mvm_prng::Xoshiro256StarStar, syms: &mut Vec<SymId>| {
                if !syms.is_empty() && rng.next_below(2) == 0 {
                    return syms[rng.next_below(syms.len() as u64) as usize];
                }
                next += 1 + rng.next_below(3) as SymId;
                syms.push(next);
                next
            };
            let steps = (0..len)
                .map(|i| {
                    (0..1 + rng.next_below(3))
                        .map(|k| {
                            let a = if i == low && k == 0 {
                                let below = rng.next_below(1_000) as SymId;
                                syms.push(below);
                                below
                            } else {
                                pick(rng, &mut syms)
                            };
                            let b = pick(rng, &mut syms);
                            constraint(rng, a, b)
                        })
                        .collect()
                })
                .collect();
            Chain { steps, low, repeat }
        },
        |c: &Chain| {
            if c.steps.len() <= 3 || c.low + 1 >= c.steps.len() || c.repeat + 1 >= c.steps.len() {
                return Vec::new();
            }
            let mut shorter = c.clone();
            shorter.steps.pop();
            vec![shorter]
        },
    )
}

/// Shifts every symbol of `e` by `by`: a monotone renaming, so the
/// shifted list has the same store key.
fn shifted(e: &ExprRef, by: SymId) -> ExprRef {
    e.substitute(&|s| Some(Expr::sym(s + by)))
}

/// The key each `check_after` of a chain's lists returns with its
/// fixpoint equals the reference key of that list, whether the check
/// continued its parent's key, computed it from scratch (the root, and
/// the step that shifts ranks), answered from the exact memo or from an
/// absorbed store entry. The session absorbs a table that no query
/// hits, and in half the cases the export of a session that asked every other list
/// of the chain renamed as well.
#[test]
fn canonical_key_continues_along_check_after_chains() {
    let store_hits = Cell::new(0u64);
    check(
        "canonical_key_continues_along_check_after_chains",
        &Config::with_cases(256),
        &proptest_mini::pair(chains(), proptest_mini::usize_range(0, 2)),
        |(chain, mode)| {
            let config = SolverConfig {
                max_assignments: 64,
                ..SolverConfig::default()
            };
            let session = SolverSession::with_config(config);
            let unused = PortableCache {
                entries: vec![(
                    CanonFp(0),
                    PortableResult {
                        verdict: PortableVerdict::Unsat,
                        assignments: 0,
                    },
                )],
            };
            session.absorb_from(unused.iter());
            let mut list: Vec<ExprRef> = Vec::new();
            if *mode == 1 {
                let origin = SolverSession::with_config(config);
                for (i, step) in chain.steps.iter().enumerate() {
                    list.extend(step.iter().map(|e| shifted(e, 7)));
                    if i % 2 == 0 {
                        origin.check(&list);
                    }
                }
                session.absorb_from(origin.export_portable().iter());
                list.clear();
            }
            let mut parent = Fixpoint::default();
            for (i, step) in chain.steps.iter().enumerate() {
                list.extend(step.iter().cloned());
                let all: Rc<[ExprRef]> = list.clone().into();
                let want = reference::canonical_key(&all);
                let (_, fixpoint) = session.check_after(&all, &parent);
                let got = fixpoint.store_key().map(|(fp, s)| (fp, s.to_vec()));
                prop_assert_eq!(got, Some(want.clone()));
                parent = if i == chain.repeat {
                    let hits = session.stats().cache_hits;
                    let (_, again) = session.check_after(&all, &parent);
                    prop_assert_eq!(session.stats().cache_hits, hits + 1);
                    let got = again.store_key().map(|(fp, s)| (fp, s.to_vec()));
                    prop_assert_eq!(got, Some(want));
                    again
                } else {
                    fixpoint
                };
            }
            store_hits.set(store_hits.get() + session.stats().store_hits);
            Ok(())
        },
    );
    assert!(
        store_hits.get() > 0,
        "the property must cover keys carried by store hits"
    );
}
