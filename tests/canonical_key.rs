//! `canonical_key` against the implementation it replaced.
//!
//! Every store file holds the [`CanonFp`] values `canonical_key`
//! computes, so a cheaper implementation must return exactly the
//! fingerprint and the sorted symbol list of the one below: the key as
//! it was before symbols were collected into one sorted `Vec`, kept
//! here verbatim as the reference. Reproduce a failure with
//! `RES_PROP_SEED=<seed> cargo test --test canonical_key`.

use std::rc::Rc;

use proptest_mini::{check, prop_assert_eq, Config, Gen};
use res_debugger::isa::{BinOp, UnOp};
use res_debugger::symbolic::{canonical_key, Expr, ExprRef};

mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use res_debugger::symbolic::{CanonFp, Expr, ExprRef, SymId};

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
