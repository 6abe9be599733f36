//! # Symbolic bitvector expressions and a from-scratch constraint solver
//!
//! `mvm-symbolic` is the reasoning substrate of the RES engine: 64-bit
//! bitvector expressions over *symbolic values* (paper §2.3: "stand-ins
//! for any possible value"), constraint sets, and a purpose-built solver.
//!
//! The original prototype sat on the Cloud9/KLEE stack and an SMT
//! solver. Neither is available offline, so this crate implements the
//! subset RES actually exercises (see `DESIGN.md` §1):
//!
//! * [`Expr`] — immutable expression trees with aggressive
//!   simplification in the smart constructors,
//! * [`Interval`] — an unsigned-interval abstract domain used for
//!   propagation,
//! * [`Solver`] — equality isolation + interval propagation +
//!   bounded backtracking enumeration, answering
//!   [`SolveResult::Sat`] (with a [`Model`]), [`SolveResult::Unsat`],
//!   or an honest [`SolveResult::Unknown`] when its budget runs out.
//!
//! Block-level RES constraints are short (a handful of havoc symbols, a
//! few arithmetic steps), which is what makes this practical: the solver
//! is complete for the invertible-arithmetic core and falls back to
//! value enumeration seeded with the constants that appear in the
//! constraints themselves.

#[cfg(test)]
mod chains;
pub mod expr;
pub mod fingerprint;
pub mod interval;
pub mod model;
pub mod session;
pub mod solver;

pub use expr::{Expr, ExprRef, SymId};
pub use fingerprint::{
    canonical_key, CanonFp, CanonKey, FpHasher, PortableCache, PortableResult, PortableTable,
    PortableVerdict,
};
pub use interval::Interval;
pub use model::Model;
pub use session::{SessionStats, SolverSession};
pub use solver::{Fixpoint, SolveResult, Solver, SolverConfig, UnknownReason};
