//! Coredump comparison.
//!
//! Replay verification (paper §2.1 requirement 5: "execution E
//! deterministically leads to C") needs a precise notion of "the replay
//! reached a state compatible with the coredump". [`diff_dumps`]
//! reports every observable divergence between two dumps, and
//! [`diff_machine`] the same between a machine and a dump, without
//! capturing the machine first.

use mvm_json::json_struct;

use mvm_isa::Loc;
use mvm_machine::{Fault, Machine, Memory, ThreadId, ThreadState};

use crate::dump::Coredump;

/// Differences between two coredumps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DumpDiff {
    /// Byte addresses whose contents differ (capped).
    pub memory_bytes: Vec<u64>,
    /// Threads present in one dump but not the other.
    pub thread_set: Vec<ThreadId>,
    /// Threads whose program counters differ: `(tid, pc_a, pc_b)`.
    pub pcs: Vec<(ThreadId, Loc, Loc)>,
    /// Threads whose innermost-frame registers differ: `(tid, reg)`.
    pub registers: Vec<(ThreadId, u8)>,
    /// `true` if the fault descriptors differ.
    pub fault_differs: bool,
}

json_struct!(DumpDiff {
    memory_bytes,
    thread_set,
    pcs,
    registers,
    fault_differs,
});

impl DumpDiff {
    /// Returns `true` when the dumps are observably identical.
    pub fn is_empty(&self) -> bool {
        self.memory_bytes.is_empty()
            && self.thread_set.is_empty()
            && self.pcs.is_empty()
            && self.registers.is_empty()
            && !self.fault_differs
    }
}

/// Compares two dumps, reporting up to `mem_limit` differing memory
/// bytes.
pub fn diff_dumps(a: &Coredump, b: &Coredump, mem_limit: usize) -> DumpDiff {
    diff_state(&a.memory, &a.fault, a.threads.iter(), b, mem_limit)
}

/// Compares a machine's state with a dump: exactly
/// `diff_dumps(&Coredump::capture_anyway(machine), b, mem_limit)`,
/// reading the machine in place instead of copying its memory and
/// threads into a dump first. A machine that has not faulted compares
/// as `capture_anyway` records it, with an empty deadlock.
pub fn diff_machine(machine: &Machine<'_>, b: &Coredump, mem_limit: usize) -> DumpDiff {
    let no_fault = Fault::Deadlock { threads: vec![] };
    let fault = machine.fault().map_or(&no_fault, |(_, f)| f);
    diff_state(
        machine.memory(),
        fault,
        machine.threads().values(),
        b,
        mem_limit,
    )
}

/// The comparison both entry points share: side `a` is given by its
/// memory, fault and threads (in their capture order).
fn diff_state<'t>(
    memory: &Memory,
    fault: &Fault,
    threads: impl Iterator<Item = &'t ThreadState> + Clone,
    b: &Coredump,
    mem_limit: usize,
) -> DumpDiff {
    let mut d = DumpDiff {
        memory_bytes: memory.diff(&b.memory, mem_limit),
        fault_differs: *fault != b.fault,
        ..DumpDiff::default()
    };
    for ta in threads.clone() {
        if b.thread(ta.tid).is_none() {
            d.thread_set.push(ta.tid);
        }
    }
    for tb in &b.threads {
        if !threads.clone().any(|ta| ta.tid == tb.tid) {
            d.thread_set.push(tb.tid);
        }
    }
    for ta in threads {
        let Some(tb) = b.thread(ta.tid) else { continue };
        if ta.pc() != tb.pc() {
            d.pcs.push((ta.tid, ta.pc(), tb.pc()));
        }
        let ra = &ta.top().regs;
        let rb = &tb.top().regs;
        for i in 0..ra.len().min(rb.len()) {
            if ra[i] != rb[i] {
                d.registers.push((ta.tid, i as u8));
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject;
    use mvm_isa::asm::assemble;
    use mvm_machine::{Machine, MachineConfig};

    fn dump() -> Coredump {
        let p = assemble(
            "global g 8 = 5\nfunc main() {\nentry:\n  addr r0, g\n  assert 0, \"x\"\n  halt\n}",
        )
        .unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        m.run();
        Coredump::capture(&m)
    }

    #[test]
    fn identical_dumps_have_empty_diff() {
        let d = dump();
        assert!(diff_dumps(&d, &d.clone(), 100).is_empty());
    }

    #[test]
    fn memory_corruption_detected() {
        let a = dump();
        let mut b = a.clone();
        inject::flip_memory_bit_at(&mut b, mvm_isa::layout::GLOBAL_BASE, 1);
        let d = diff_dumps(&a, &b, 100);
        assert_eq!(d.memory_bytes, vec![mvm_isa::layout::GLOBAL_BASE]);
        assert!(!d.is_empty());
    }

    #[test]
    fn register_corruption_detected() {
        let a = dump();
        let mut b = a.clone();
        inject::corrupt_register(&mut b, 3);
        let d = diff_dumps(&a, &b, 100);
        assert_eq!(d.registers.len(), 1);
    }

    #[test]
    fn missing_thread_detected() {
        let a = dump();
        let mut b = a.clone();
        let mut extra = a.threads[0].clone();
        extra.tid = 42;
        b.threads.push(extra);
        let d = diff_dumps(&a, &b, 100);
        assert_eq!(d.thread_set, vec![42]);
    }
}
