//! Symbol registry: every symbolic value the engine introduces is
//! recorded here with its provenance, so that a solver model can be
//! turned back into concrete suffix ingredients (initial image bytes,
//! input values) and so diagnostics can say *what* an unknown stands
//! for.

use mvm_isa::{InputKind, Loc, Reg, Width};
use mvm_machine::ThreadId;

use mvm_symbolic::{Expr, ExprRef, SymId};

/// Why a symbol exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymOrigin {
    /// Stands for the pre-block value of a register the block
    /// overwrites (paper §2.4).
    HavocReg {
        /// Owning thread.
        tid: ThreadId,
        /// The register.
        reg: Reg,
        /// Backward depth at which it was introduced.
        depth: usize,
    },
    /// Stands for the pre-block value of a memory cell the block
    /// overwrites.
    HavocMem {
        /// Cell address.
        addr: u64,
        /// Cell width.
        width: Width,
        /// Backward depth at which it was introduced.
        depth: usize,
    },
    /// Stands for an external input consumed inside the suffix
    /// ("program inputs are handed to the program as unconstrained
    /// symbolic values", §2.4).
    Input {
        /// Consuming thread.
        tid: ThreadId,
        /// Input kind (network, file, ...), for taint analysis.
        kind: InputKind,
        /// Location of the `input` instruction.
        site: Loc,
    },
}

/// The registry of live symbols.
#[derive(Debug, Clone, Default)]
pub struct SymCtx {
    origins: Vec<SymOrigin>,
}

impl SymCtx {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh symbol with the given provenance.
    pub fn fresh(&mut self, origin: SymOrigin) -> ExprRef {
        let id = self.origins.len() as SymId;
        self.origins.push(origin);
        Expr::sym(id)
    }

    /// The provenance of a symbol.
    pub fn origin(&self, id: SymId) -> Option<&SymOrigin> {
        self.origins.get(id as usize)
    }

    /// Number of symbols minted.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// `true` if no symbols were minted.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// Iterates over `(SymId, &SymOrigin)`.
    pub fn iter(&self) -> impl Iterator<Item = (SymId, &SymOrigin)> {
        self.origins
            .iter()
            .enumerate()
            .map(|(i, o)| (i as SymId, o))
    }

    /// All input-origin symbols in minting order (minting order equals
    /// backward-discovery order; callers re-sort by execution order).
    pub fn input_syms(&self) -> Vec<(SymId, ThreadId, InputKind, Loc)> {
        self.iter()
            .filter_map(|(id, o)| match o {
                SymOrigin::Input { tid, kind, site } => Some((id, *tid, *kind, *site)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::{BlockId, FuncId};

    #[test]
    fn fresh_symbols_are_sequential_and_tracked() {
        let mut ctx = SymCtx::new();
        let a = ctx.fresh(SymOrigin::HavocReg {
            tid: 0,
            reg: Reg(1),
            depth: 0,
        });
        let b = ctx.fresh(SymOrigin::HavocMem {
            addr: 0x100,
            width: Width::W8,
            depth: 1,
        });
        assert_eq!(a.as_sym(), Some(0));
        assert_eq!(b.as_sym(), Some(1));
        assert_eq!(ctx.len(), 2);
        assert!(matches!(
            ctx.origin(1),
            Some(SymOrigin::HavocMem { addr: 0x100, .. })
        ));
        assert!(ctx.origin(7).is_none());
    }

    #[test]
    fn input_symbols_are_listed() {
        let mut ctx = SymCtx::new();
        let site = Loc::block_start(FuncId(0), BlockId(2));
        ctx.fresh(SymOrigin::HavocReg {
            tid: 0,
            reg: Reg(0),
            depth: 0,
        });
        ctx.fresh(SymOrigin::Input {
            tid: 3,
            kind: InputKind::Network,
            site,
        });
        let inputs = ctx.input_syms();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].0, 1);
        assert_eq!(inputs[0].1, 3);
    }
}
