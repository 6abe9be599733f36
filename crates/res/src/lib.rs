//! # Reverse execution synthesis (RES)
//!
//! `res-core` implements the central contribution of *"Automated
//! Debugging for Arbitrarily Long Executions"* (HotOS'13): given a
//! program `P` and a coredump `C` — and **nothing recorded at runtime** —
//! synthesize the *suffix* of a feasible execution that drives `P` into
//! the state captured by `C`, deterministically replayable in a
//! debugger.
//!
//! The pipeline mirrors the paper's §2:
//!
//! 1. **Symbolic snapshots** ([`snapshot`]) — a hypothesis of program
//!    state prior to a candidate predecessor block: a mix of concrete
//!    values (backed by the coredump) and unconstrained symbolic values
//!    for everything the candidate block overwrites (§2.3).
//! 2. **Backward block stepping** ([`blockexec`], [`search`]) — navigate
//!    the CFG backward from the failure PC; for each candidate
//!    predecessor, build `Spre` by havocking the block's write set,
//!    execute the block *forward* symbolically, and keep the candidate
//!    only if the result is compatible with the post-state
//!    (`S' ⊇ Spost`, §2.4). Thread interleavings are reconstructed at
//!    basic-block granularity, assuming sequential consistency (the
//!    paper's §4 prototype makes the same assumption).
//! 3. **Suffix artifacts and replay** ([`suffix`], [`replay`]) — a
//!    satisfying model concretizes the earliest snapshot into a partial
//!    memory image `Mi`, the inferred inputs, and the thread schedule;
//!    the replayer "slips an environment underneath the debugger"
//!    (§2.1), instantiates `Mi`, pins the schedule, and reproduces the
//!    exact fault.
//! 4. **Analyses on top** ([`rootcause`], [`hwerr`], [`debugaid`]) — the
//!    paper's three use cases: root-cause extraction for triaging
//!    (§3.1), hardware-error verdicts for dumps no feasible execution
//!    explains (§3.2), and debugging aids (read/write sets, state
//!    queries, §3.3).

pub mod blockexec;
pub mod debugaid;
pub mod hwerr;
pub mod kernel;
pub mod replay;
pub mod rootcause;
pub mod search;
pub mod snapshot;
pub mod suffix;
pub mod symctx;

pub use hwerr::{hardware_verdict, hardware_verdict_in_store, HwKind, HwVerdict, Relax};
pub use kernel::{
    auto_workers, parallel_map, AbandonedSpace, Budget, CutReason, KernelStats, NodeScore,
    ParallelReport,
};
pub use replay::{
    replay_observed, replay_suffix, Divergence, DivergenceKind, ObservedEvent, ReplayReport,
};
pub use rootcause::{analyze_root_cause, replay_and_diagnose, RootCause};
pub use search::{
    ResConfig, ResConfigBuilder, ResEngine, StoreReport, SynthOptions, SynthesisResult, Verdict,
};
pub use snapshot::Snapshot;
pub use suffix::{ExecutionSuffix, SuffixStep};
pub use symctx::{SymCtx, SymOrigin};
