//! Symbolic expressions over 64-bit words.
//!
//! Expressions are immutable trees behind [`Rc`]; the smart constructors
//! ([`Expr::bin`], [`Expr::un`]) fold constants and apply algebraic
//! identities eagerly, so trees stay small as a block's instructions are
//! executed symbolically. A fully concrete expression is always a single
//! [`Expr::Const`] node.

use std::collections::BTreeSet;
use std::rc::Rc;

use mvm_isa::{BinOp, UnOp};

/// Identifies a symbolic value (an "unknown" introduced by havocking an
/// overwritten location or by an external input — paper §2.4).
pub type SymId = u32;

/// Shared reference to an expression node.
pub type ExprRef = Rc<Expr>;

/// A symbolic 64-bit expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A concrete constant.
    Const(u64),
    /// A symbolic value.
    Sym(SymId),
    /// A binary operation.
    Bin(BinOp, ExprRef, ExprRef),
    /// A unary operation.
    Un(UnOp, ExprRef),
}

/// Constants below this are shared nodes: [`Expr::konst`] hands out a
/// clone of one per-thread node instead of allocating.
const SHARED_CONSTS: u64 = 256;

thread_local! {
    static SMALL_CONSTS: Vec<ExprRef> =
        (0..SHARED_CONSTS).map(|v| Rc::new(Expr::Const(v))).collect();
}

impl Expr {
    /// A constant expression. Small constants are shared, so two of
    /// them may be the same node; nothing reads that but
    /// [`substitute`](Expr::substitute)'s unchanged-subtree shortcut and
    /// `Rc`'s pointer-first equality, which both fall back to structure.
    pub fn konst(v: u64) -> ExprRef {
        if v < SHARED_CONSTS {
            return SMALL_CONSTS.with(|small| small[v as usize].clone());
        }
        Rc::new(Expr::Const(v))
    }

    /// A symbolic-value expression.
    pub fn sym(id: SymId) -> ExprRef {
        Rc::new(Expr::Sym(id))
    }

    /// Returns the constant value if the expression is concrete.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            Expr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the symbol id if the expression is a bare symbol.
    pub fn as_sym(&self) -> Option<SymId> {
        match self {
            Expr::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// Builds `op(a, b)` with constant folding and identity
    /// simplification.
    ///
    /// Division/remainder by a constant zero is *not* folded (it has no
    /// value); it is left symbolic so the solver treats the constraint
    /// as unsatisfiable.
    pub fn bin(op: BinOp, a: ExprRef, b: ExprRef) -> ExprRef {
        // Constant folding.
        if let (Some(x), Some(y)) = (a.as_const(), b.as_const()) {
            if let Some(v) = op.eval(x, y) {
                return Expr::konst(v);
            }
        }
        // Identities. Commutative ops are normalized const-right first.
        let (a, b) = match op {
            BinOp::Add
            | BinOp::Mul
            | BinOp::And
            | BinOp::Or
            | BinOp::Xor
            | BinOp::Eq
            | BinOp::Ne
                if a.as_const().is_some() && b.as_const().is_none() =>
            {
                (b, a)
            }
            _ => (a, b),
        };
        match (op, a.as_const(), b.as_const()) {
            (
                BinOp::Add
                | BinOp::Sub
                | BinOp::Xor
                | BinOp::Or
                | BinOp::Shl
                | BinOp::Shr
                | BinOp::Sar,
                _,
                Some(0),
            ) => return a,
            (BinOp::Mul, _, Some(1))
            | (BinOp::DivU, _, Some(1))
            | (BinOp::And, _, Some(u64::MAX)) => return a,
            (BinOp::Mul | BinOp::And, _, Some(0)) => return Expr::konst(0),
            (BinOp::Or, _, Some(u64::MAX)) => return Expr::konst(u64::MAX),
            (BinOp::RemU, _, Some(1)) => return Expr::konst(0),
            _ => {}
        }
        if a == b {
            match op {
                BinOp::Sub | BinOp::Xor => return Expr::konst(0),
                BinOp::Eq | BinOp::LeU | BinOp::LeS => return Expr::konst(1),
                BinOp::Ne | BinOp::LtU | BinOp::LtS => return Expr::konst(0),
                BinOp::And | BinOp::Or => return a,
                _ => {}
            }
        }
        // Comparison-of-comparison simplifications: `(a cmp b) != 0` is
        // `(a cmp b)`, and `(a == b) == 0` etc. are handled by the
        // solver's negation handling; keep construction simple here.
        if op == BinOp::Ne {
            if let Expr::Bin(inner, _, _) = &*a {
                if inner.is_comparison() && b.as_const() == Some(0) {
                    return a;
                }
            }
        }
        // Re-associate `(x + c1) + c2` → `x + (c1+c2)` (also for Sub via
        // negation) so chains of address arithmetic stay flat.
        if op == BinOp::Add {
            if let (Expr::Bin(BinOp::Add, x, c1), Some(c2)) = (&*a, b.as_const()) {
                if let Some(c1v) = c1.as_const() {
                    return Expr::bin(BinOp::Add, x.clone(), Expr::konst(c1v.wrapping_add(c2)));
                }
            }
        }
        Rc::new(Expr::Bin(op, a, b))
    }

    /// Builds `op(a)` with constant folding and double-negation
    /// elimination.
    pub fn un(op: UnOp, a: ExprRef) -> ExprRef {
        if let Some(x) = a.as_const() {
            return Expr::konst(op.eval(x));
        }
        if let Expr::Un(inner, e) = &*a {
            if *inner == op {
                // not(not(x)) = x, neg(neg(x)) = x.
                return e.clone();
            }
        }
        Rc::new(Expr::Un(op, a))
    }

    /// `true` if the expression contains no symbols.
    pub fn is_concrete(&self) -> bool {
        match self {
            Expr::Const(_) => true,
            Expr::Sym(_) => false,
            Expr::Bin(_, a, b) => a.is_concrete() && b.is_concrete(),
            Expr::Un(_, a) => a.is_concrete(),
        }
    }

    /// Collects the symbols appearing in the expression.
    pub fn symbols(&self) -> BTreeSet<SymId> {
        let mut out = BTreeSet::new();
        self.collect_symbols(&mut out);
        out
    }

    /// Adds every symbol occurrence in the expression to `out`.
    pub(crate) fn collect_symbols(&self, out: &mut impl Extend<SymId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Sym(s) => out.extend([*s]),
            Expr::Bin(_, a, b) => {
                a.collect_symbols(out);
                b.collect_symbols(out);
            }
            Expr::Un(_, a) => a.collect_symbols(out),
        }
    }

    /// Constants appearing anywhere in the expression (enumeration
    /// seeds for the solver).
    pub fn constants(&self) -> BTreeSet<u64> {
        let mut out = BTreeSet::new();
        self.collect_constants(&mut out);
        out
    }

    fn collect_constants(&self, out: &mut BTreeSet<u64>) {
        match self {
            Expr::Const(v) => {
                out.insert(*v);
            }
            Expr::Sym(_) => {}
            Expr::Bin(_, a, b) => {
                a.collect_constants(out);
                b.collect_constants(out);
            }
            Expr::Un(_, a) => a.collect_constants(out),
        }
    }

    /// Evaluates under a (total or partial) assignment; `None` when a
    /// needed symbol is unassigned or an operation has no value
    /// (division by zero).
    pub fn eval(&self, lookup: &dyn Fn(SymId) -> Option<u64>) -> Option<u64> {
        match self {
            Expr::Const(v) => Some(*v),
            Expr::Sym(s) => lookup(*s),
            Expr::Bin(op, a, b) => op.eval(a.eval(lookup)?, b.eval(lookup)?),
            Expr::Un(op, a) => Some(op.eval(a.eval(lookup)?)),
        }
    }

    /// Rebuilds the expression with symbols replaced per `subst`
    /// (unmapped symbols stay symbolic). Simplification re-applies.
    pub fn substitute(self: &ExprRef, subst: &dyn Fn(SymId) -> Option<ExprRef>) -> ExprRef {
        match &**self {
            Expr::Const(_) => self.clone(),
            Expr::Sym(s) => subst(*s).unwrap_or_else(|| self.clone()),
            Expr::Bin(op, a, b) => {
                let na = a.substitute(subst);
                let nb = b.substitute(subst);
                if Rc::ptr_eq(&na, a) && Rc::ptr_eq(&nb, b) {
                    self.clone()
                } else {
                    Expr::bin(*op, na, nb)
                }
            }
            Expr::Un(op, a) => {
                let na = a.substitute(subst);
                if Rc::ptr_eq(&na, a) {
                    self.clone()
                } else {
                    Expr::un(*op, na)
                }
            }
        }
    }

    /// Node count — a complexity metric for budgeting.
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Sym(_) => 1,
            Expr::Bin(_, a, b) => 1 + a.size() + b.size(),
            Expr::Un(_, a) => 1 + a.size(),
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v:#x}"),
            Expr::Sym(s) => write!(f, "σ{s}"),
            Expr::Bin(op, a, b) => write!(f, "({} {a} {b})", op.mnemonic()),
            Expr::Un(op, a) => write!(f, "({} {a})", op.mnemonic()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_constants_are_shared_nodes() {
        assert!(Rc::ptr_eq(&Expr::konst(0), &Expr::konst(0)));
        assert!(Rc::ptr_eq(&Expr::konst(255), &Expr::konst(255)));
        assert!(!Rc::ptr_eq(&Expr::konst(256), &Expr::konst(256)));
        for v in [0, 1, 255, 256, u64::MAX] {
            assert_eq!(Expr::konst(v).as_const(), Some(v));
        }
        // A shared constant is a leaf like any other to substitution.
        let e = Expr::bin(BinOp::Add, Expr::sym(0), Expr::konst(3));
        let bound = e.substitute(&|_| Some(Expr::konst(4)));
        assert_eq!(bound.as_const(), Some(7));
        assert!(Rc::ptr_eq(&e.substitute(&|_| None), &e));
    }

    #[test]
    fn constant_folding() {
        let e = Expr::bin(BinOp::Add, Expr::konst(2), Expr::konst(40));
        assert_eq!(e.as_const(), Some(42));
        let e = Expr::un(UnOp::Not, Expr::konst(0));
        assert_eq!(e.as_const(), Some(u64::MAX));
    }

    #[test]
    fn div_by_zero_not_folded() {
        let e = Expr::bin(BinOp::DivU, Expr::konst(5), Expr::konst(0));
        assert!(e.as_const().is_none());
    }

    #[test]
    fn identities() {
        let x = Expr::sym(0);
        assert_eq!(Expr::bin(BinOp::Add, x.clone(), Expr::konst(0)), x);
        assert_eq!(Expr::bin(BinOp::Mul, x.clone(), Expr::konst(1)), x);
        assert_eq!(
            Expr::bin(BinOp::Mul, x.clone(), Expr::konst(0)).as_const(),
            Some(0)
        );
        assert_eq!(
            Expr::bin(BinOp::Xor, x.clone(), x.clone()).as_const(),
            Some(0)
        );
        assert_eq!(
            Expr::bin(BinOp::Eq, x.clone(), x.clone()).as_const(),
            Some(1)
        );
        assert_eq!(
            Expr::bin(BinOp::LtU, x.clone(), x.clone()).as_const(),
            Some(0)
        );
    }

    #[test]
    fn commutative_normalization() {
        // `5 + x` normalizes to `x + 5`.
        let e = Expr::bin(BinOp::Add, Expr::konst(5), Expr::sym(1));
        let Expr::Bin(BinOp::Add, a, b) = &*e else {
            panic!("not a bin")
        };
        assert_eq!(a.as_sym(), Some(1));
        assert_eq!(b.as_const(), Some(5));
    }

    #[test]
    fn reassociation_flattens_address_chains() {
        let x = Expr::sym(0);
        let e = Expr::bin(BinOp::Add, x.clone(), Expr::konst(8));
        let e = Expr::bin(BinOp::Add, e, Expr::konst(16));
        let Expr::Bin(BinOp::Add, a, b) = &*e else {
            panic!("not a bin")
        };
        assert_eq!(a.as_sym(), Some(0));
        assert_eq!(b.as_const(), Some(24));
    }

    #[test]
    fn double_negation() {
        let x = Expr::sym(3);
        let e = Expr::un(UnOp::Neg, Expr::un(UnOp::Neg, x.clone()));
        assert_eq!(e, x);
    }

    #[test]
    fn ne_zero_of_comparison_collapses() {
        let cmp = Expr::bin(BinOp::LtU, Expr::sym(0), Expr::konst(10));
        let e = Expr::bin(BinOp::Ne, cmp.clone(), Expr::konst(0));
        assert_eq!(e, cmp);
    }

    #[test]
    fn symbols_and_constants_collected() {
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::sym(1), Expr::konst(3)),
            Expr::sym(7),
        );
        assert_eq!(e.symbols().into_iter().collect::<Vec<_>>(), vec![1, 7]);
        assert!(e.constants().contains(&3));
        assert!(!e.is_concrete());
        assert!(e.size() >= 5);
    }

    #[test]
    fn eval_with_assignment() {
        let e = Expr::bin(BinOp::Add, Expr::sym(0), Expr::konst(5));
        assert_eq!(e.eval(&|s| (s == 0).then_some(37)), Some(42));
        assert_eq!(e.eval(&|_| None), None);
    }

    #[test]
    fn substitute_binds_and_simplifies() {
        let e = Expr::bin(BinOp::Add, Expr::sym(0), Expr::sym(1));
        let out = e.substitute(&|s| (s == 0).then(|| Expr::konst(2)));
        let out2 = out.substitute(&|s| (s == 1).then(|| Expr::konst(40)));
        assert_eq!(out2.as_const(), Some(42));
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::bin(BinOp::Add, Expr::sym(0), Expr::konst(1));
        assert_eq!(e.to_string(), "(add σ0 0x1)");
    }
}
