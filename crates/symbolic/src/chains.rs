//! Generated parent→child constraint chains: the shapes the solver's
//! fixpoint and propagation properties run on. The solver's unit tests
//! use this module, and `tests/properties.rs` includes the same file,
//! so both properties draw the same chains.

use mvm_isa::BinOp;
use proptest_mini::{pair, triple, u64_range, usize_range, vec_of, Gen};

use super::{Expr, ExprRef};

/// Symbols the fixpoint properties' plain constraints draw from.
const FIXPOINT_SYMS: usize = 6;

/// Constants the fixpoint properties draw from: the interval edges 0
/// and `u64::MAX`, and mid-range values small enough to collide.
const FIXPOINT_CONSTS: [u64; 8] = [0, 1, 2, 3, 5, 7, u64::MAX - 1, u64::MAX];

/// Links in each half of the equality chain: from scratch the whole
/// chain needs more than the solver's 32 propagation rounds, each half
/// alone fewer.
const CHAIN_HALF: u32 = 20;

/// A parent→child chain: each step's constraint specs, then which
/// special case it carries (0 none, 1 the example, 2 the equality
/// chain, 3 a folded `!=`) and at which step.
pub(crate) type ChainSpec = (Vec<Vec<StepConstraint>>, (usize, usize));

/// One generated constraint of a step: `(template, (σa, σb), constant
/// index)`.
type StepConstraint = (usize, (usize, usize), u64);

/// Chains of 3–8 steps, each adding 1–4 constraints.
pub(crate) fn fixpoint_chains() -> Gen<ChainSpec> {
    let sym = usize_range(0, FIXPOINT_SYMS);
    let spec = triple(
        usize_range(0, 22),
        pair(sym.clone(), sym),
        u64_range(0, FIXPOINT_CONSTS.len() as u64),
    );
    pair(
        vec_of(vec_of(spec, 1, 5), 3, 9),
        pair(usize_range(0, 4), usize_range(0, 3)),
    )
}

/// The two parts of a special case, over symbols no generated
/// constraint uses. The example (DESIGN §4) is `[σ11 != σ12,
/// σ13 <=u σ11, σ12 == σ14, σ14 == 5, σ13 == 5]`, where the `!=`
/// cuts σ11's interval endpoint, then `σ12 == 5`, after which it
/// arrives while 5 is interior. The chain is a 40-link equality chain
/// `σ101 == σ100, …, σ140 == σ139` from `σ100 == 7`, newest link first
/// so propagation binds one link per round, in two halves. The folded
/// `!=` binds `σ23 = 7`, then adds `σ21 != σ20, σ23 != 7`: from the
/// parent's bindings the second folds to false, while from scratch it
/// arrives before σ23 is bound, as a hole, and the first is enumerated.
fn special_parts(kind: usize) -> [Vec<ExprRef>; 2] {
    let bin = Expr::bin;
    let (sym, konst) = (Expr::sym, Expr::konst);
    let link = |i: u32| bin(BinOp::Eq, sym(100 + i + 1), sym(100 + i));
    match kind {
        1 => [
            vec![
                bin(BinOp::Ne, sym(11), sym(12)),
                bin(BinOp::LeU, sym(13), sym(11)),
                bin(BinOp::Eq, sym(12), sym(14)),
                bin(BinOp::Eq, sym(14), konst(5)),
                bin(BinOp::Eq, sym(13), konst(5)),
            ],
            vec![bin(BinOp::Eq, sym(12), konst(5))],
        ],
        2 => [
            (0..CHAIN_HALF)
                .rev()
                .map(link)
                .chain([bin(BinOp::Eq, sym(100), konst(7))])
                .collect(),
            (CHAIN_HALF..2 * CHAIN_HALF).rev().map(link).collect(),
        ],
        3 => [
            vec![bin(
                BinOp::Eq,
                bin(BinOp::Add, sym(23), konst(u64::MAX - 1)),
                konst(5),
            )],
            vec![
                bin(BinOp::Ne, sym(21), sym(20)),
                bin(BinOp::Ne, sym(23), konst(7)),
            ],
        ],
        _ => [Vec::new(), Vec::new()],
    }
}

/// Builds a chain's constraint lists, one per step, each extending the
/// last. A special case's first part opens its step, and its second
/// part is a step of its own right after.
pub(crate) fn chain_lists((steps, (kind, at)): &ChainSpec) -> Vec<Vec<ExprRef>> {
    let bin = Expr::bin;
    let konst = Expr::konst;
    let not = |e| bin(BinOp::Eq, e, konst(0));
    let [first, second] = special_parts(*kind);
    let mut all = Vec::new();
    let mut lists = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        if i == *at {
            all.extend(first.iter().cloned());
        }
        for &(template, (a, b), c) in step {
            let (a, b) = (Expr::sym(a as u32), Expr::sym(b as u32));
            let k = konst(FIXPOINT_CONSTS[c as usize]);
            all.push(match template {
                0 => bin(BinOp::Eq, a, k),
                1 => bin(BinOp::Eq, bin(BinOp::Add, a, k), konst(5)),
                2 => bin(BinOp::Eq, bin(BinOp::Xor, a, k), konst(3)),
                3 => bin(BinOp::Eq, bin(BinOp::Mul, a, konst(2 * c + 1)), k),
                4 => bin(BinOp::Eq, bin(BinOp::Mul, a, konst(2 * c + 2)), k),
                5 => bin(BinOp::Eq, bin(BinOp::And, a, k), konst(c & 3)),
                6 => bin(BinOp::LtU, a, k),
                7 => bin(BinOp::LtU, k, a),
                8 => bin(BinOp::LeU, a, k),
                9 => bin(BinOp::LeU, k, a),
                10 => bin(BinOp::LtU, a, b),
                11 => bin(BinOp::LeU, a, b),
                12 => bin(BinOp::Ne, a, k),
                13 => bin(BinOp::Ne, a, b),
                14 => not(bin(BinOp::LtU, a, b)),
                15 => not(bin(BinOp::Eq, a, b)),
                16 => not(bin(BinOp::LtU, a, k)),
                17 => not(bin(BinOp::LeU, a, k)),
                18 => bin(BinOp::Eq, a, b),
                19 => bin(BinOp::Eq, bin(BinOp::Add, a, k), b),
                // A contradiction on its own.
                _ => bin(BinOp::LtU, a, konst(0)),
            });
        }
        lists.push(all.clone());
        if i == *at && !second.is_empty() {
            all.extend(second.iter().cloned());
            lists.push(all.clone());
        }
    }
    lists
}
