//! # res-debugger — Reverse Execution Synthesis
//!
//! A complete Rust implementation of *"Automated Debugging for
//! Arbitrarily Long Executions"* (Zamfir, Kasikci, Kinder, Bugnion,
//! Candea — HotOS XIV, 2013): given a program and a coredump — and
//! nothing recorded at runtime — synthesize the suffix of a feasible
//! execution that deterministically reproduces the failure, then use it
//! to triage bug reports, identify hardware errors, and debug.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `mvm-isa` | the MicroVM instruction set, assembler, CFG |
//! | [`machine`] | `mvm-machine` | deterministic multi-threaded interpreter |
//! | [`coredump`] | `mvm-core` | coredump format, minidumps, fault injection |
//! | [`symbolic`] | `mvm-symbolic` | expression DAG + constraint solver |
//! | [`res`] | `res-core` | **the paper's contribution**: suffix search, replay, analyses |
//! | [`obs`] | `res-obs` | hermetic tracing/metrics: spans, counters, JSONL journal |
//! | [`store`] | `res-store` | persistent cross-run solver-result store |
//! | [`trace`] | `res-trace` | portable on-disk replay traces: record / replay / verify |
//! | [`serve`] | `res-serve` | triage daemon: typed requests over checksummed framing |
//! | [`baselines`] | `res-baselines` | forward ES, static slicing, record-replay, WER, !exploitable |
//! | [`triage`] | `res-triage` | bucketing, exploitability, hardware filtering |
//! | [`workloads`] | `res-workloads` | synthetic bug programs and corpora |
//!
//! # Quickstart
//!
//! ```
//! use res_debugger::prelude::*;
//!
//! // 1. A buggy program (normally: your application).
//! let program = mvm_isa::asm::assemble(
//!     r#"
//!     global divisor 8 = 3
//!     func main() {
//!     entry:
//!         addr r0, divisor
//!         load r1, [r0]
//!         sub r1, r1, 3
//!         store r1, [r0]
//!         jmp use_it
//!     use_it:
//!         load r2, [r0]
//!         divu r3, 100, r2
//!         halt
//!     }
//!     "#,
//! )
//! .unwrap();
//!
//! // 2. It crashes in production; the system captures a coredump. The
//! //    machine borrows the program it runs.
//! let mut m = Machine::new(&program, MachineConfig::default());
//! m.run();
//! let dump = Coredump::capture(&m);
//!
//! // 3. RES synthesizes an execution suffix from the dump alone...
//! let engine = ResEngine::new(&program, ResConfig::default());
//! let result = engine.synthesize(&dump);
//! let suffix = &result.suffixes[0];
//!
//! // 4. ...which replays deterministically into the same failure.
//! let report = replay_suffix(&program, &dump, suffix);
//! assert!(report.reproduced);
//! ```

pub use mvm_core as coredump;
pub use mvm_isa as isa;
pub use mvm_machine as machine;
pub use mvm_symbolic as symbolic;
pub use res_baselines as baselines;
pub use res_core as res;
pub use res_obs as obs;
pub use res_serve as serve;
pub use res_store as store;
pub use res_trace as trace;
pub use res_triage as triage;
pub use res_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use mvm_core::{Coredump, Minidump};
    pub use mvm_isa::{asm::assemble, Program, ProgramBuilder};
    pub use mvm_machine::{Machine, MachineConfig, Outcome, SchedPolicy};
    pub use res_core::{
        analyze_root_cause,
        hardware_verdict,
        replay_and_diagnose,
        replay_suffix,
        ExecutionSuffix,
        HwVerdict,
        ParallelReport,
        ResConfig,
        ResConfigBuilder,
        ResEngine,
        RootCause,
        StoreReport,
        SynthOptions,
        Verdict, //
    };
    pub use res_obs::{read_journal, Recorder};
    pub use res_store::SolverStore;
    pub use res_trace::{record_trace, replay_trace, verify_trace, TraceFile};
    pub use res_workloads::{build as build_workload, BugKind, WorkloadParams};
}
