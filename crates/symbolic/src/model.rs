//! Satisfying assignments.

use std::collections::BTreeMap;
use std::rc::Rc;

use mvm_json::json_struct;

use crate::expr::{ExprRef, SymId};

/// A (possibly partial) assignment of symbols to concrete values.
///
/// The RES engine turns a model into the concrete inputs and the
/// concrete partial memory image `Mi` of a synthesized suffix
/// (paper §2.1).
///
/// Clones share one map, and [`set`](Model::set) copies it only while
/// it is shared, so a solver session hands out the model of a memoized
/// answer without copying it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: Rc<BTreeMap<SymId, u64>>,
}

json_struct!(Model { values });

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a symbol.
    pub fn set(&mut self, sym: SymId, value: u64) {
        Rc::make_mut(&mut self.values).insert(sym, value);
    }

    /// Looks up a symbol.
    pub fn get(&self, sym: SymId) -> Option<u64> {
        self.values.get(&sym).copied()
    }

    /// Looks up a symbol, defaulting unbound symbols to zero (a model
    /// produced by the solver may leave don't-care symbols unbound).
    pub fn get_or_zero(&self, sym: SymId) -> u64 {
        self.get(sym).unwrap_or(0)
    }

    /// Evaluates an expression under this model, treating unbound
    /// symbols as zero.
    pub fn eval_total(&self, e: &ExprRef) -> Option<u64> {
        e.eval(&|s| Some(self.get_or_zero(s)))
    }

    /// Evaluates an expression strictly (`None` if an unbound symbol is
    /// reached).
    pub fn eval_partial(&self, e: &ExprRef) -> Option<u64> {
        e.eval(&|s| self.get(s))
    }

    /// Number of bound symbols.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no symbol is bound.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(sym, value)` pairs in symbol order.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, u64)> + '_ {
        self.values.iter().map(|(&s, &v)| (s, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use mvm_isa::BinOp;

    #[test]
    fn set_get_and_defaults() {
        let mut m = Model::new();
        assert!(m.is_empty());
        m.set(3, 77);
        assert_eq!(m.get(3), Some(77));
        assert_eq!(m.get(4), None);
        assert_eq!(m.get_or_zero(4), 0);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn eval_total_vs_partial() {
        let mut m = Model::new();
        m.set(0, 40);
        let e = Expr::bin(BinOp::Add, Expr::sym(0), Expr::sym(1));
        assert_eq!(m.eval_total(&e), Some(40));
        assert_eq!(m.eval_partial(&e), None);
        m.set(1, 2);
        assert_eq!(m.eval_partial(&e), Some(42));
    }

    #[test]
    fn setting_a_clone_leaves_the_original() {
        let mut original = Model::new();
        original.set(1, 10);
        let mut copy = original.clone();
        copy.set(1, 11);
        copy.set(2, 20);
        assert_eq!((original.get(1), original.get(2)), (Some(10), None));
        assert_eq!((copy.get(1), copy.get(2)), (Some(11), Some(20)));
        assert_ne!(original, copy);
    }

    /// The text and JSON forms as they were when the map was unshared.
    #[test]
    fn debug_and_json_forms_are_pinned() {
        let mut m = Model::new();
        m.set(5, 1);
        m.set(2, u64::MAX);
        m.set(40, 0);
        assert_eq!(
            format!("{m:?}"),
            "Model { values: {2: 18446744073709551615, 5: 1, 40: 0} }"
        );
        let json = r#"{"values":{"2":18446744073709551615,"5":1,"40":0}}"#;
        assert_eq!(mvm_json::to_string(&m), json);
        assert_eq!(mvm_json::from_str::<Model>(json), Ok(m));
        assert_eq!(format!("{:?}", Model::new()), "Model { values: {} }");
        assert_eq!(mvm_json::to_string(&Model::new()), r#"{"values":{}}"#);
    }

    #[test]
    fn iteration_is_ordered() {
        let mut m = Model::new();
        m.set(5, 1);
        m.set(2, 2);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(2, 2), (5, 1)]);
    }
}
