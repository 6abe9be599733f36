//! # Coredumps for the MicroVM
//!
//! `mvm-core` defines the coredump format that reverse execution
//! synthesis consumes: a post-failure snapshot of memory, thread
//! contexts, allocator metadata, the fault descriptor, and the free
//! "breadcrumbs" (LBR ring, error log) of paper §2.4.
//!
//! The crate also provides:
//!
//! * [`Minidump`] — the stack-and-registers-only subset that forward
//!   execution synthesis used (paper §1: "RES interprets the entire
//!   coredump, not just a minidump, which makes RES strictly more
//!   powerful"),
//! * [`inject`] — post-hoc hardware-fault injectors (memory bit flips,
//!   register corruption) that manufacture the inconsistent dumps of the
//!   paper's §3.2 hardware-error use case, and
//! * [`diff`] — dump comparison, used to verify that replaying a
//!   synthesized suffix reproduces the original failure state (a
//!   replay compares its machine with the dump in place).

pub mod diff;
pub mod dump;
pub mod inject;
pub mod minidump;

pub use diff::{diff_dumps, diff_machine, DumpDiff};
pub use dump::{Coredump, ProgramMismatch, StackSignature};
pub use inject::{
    consequential_sites, corrupt_consequential, corrupt_register, corrupt_register_at,
    flip_memory_bit_at, HwFlavor, InjectionReport,
};
pub use minidump::Minidump;
