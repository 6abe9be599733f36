//! # Experiment implementations
//!
//! One function per experiment of `DESIGN.md` §3. Each returns a
//! human-readable table (what the `harness` binary prints and
//! `EXPERIMENTS.md` records) plus the key metrics the tests assert on.
//! The micro-benches in `benches/` (run on the in-repo [`micro`] runner)
//! measure the latency of the same operations.

pub mod alloc_count;
pub mod experiments;
pub mod micro;

pub use experiments::*;
