//! Minidumps: the impoverished snapshot format of WER-era tooling.
//!
//! A minidump carries only the faulting thread's stack (frame locations
//! and registers) and the fault descriptor — no memory image, no other
//! threads, no allocator metadata. The paper positions RES against
//! forward execution synthesis partly on this axis: "RES interprets the
//! entire coredump, not just a minidump, which makes RES strictly more
//! powerful" (§1). Experiment A2 quantifies that claim by running the
//! engine with each.

use mvm_json::json_struct;

use mvm_isa::Loc;
use mvm_machine::{Fault, Frame, ThreadId};

use crate::dump::Coredump;

/// A stack-and-registers-only crash report.
#[derive(Debug, Clone, PartialEq)]
pub struct Minidump {
    /// Program name.
    pub program_name: String,
    /// The fault.
    pub fault: Fault,
    /// Faulting thread id.
    pub faulting_tid: ThreadId,
    /// The faulting thread's frames (outermost first), registers
    /// included.
    pub frames: Vec<Frame>,
}

json_struct!(Minidump {
    program_name,
    fault,
    faulting_tid,
    frames
});

impl Minidump {
    /// Extracts the minidump subset of a full coredump.
    pub fn from_coredump(dump: &Coredump) -> Self {
        Minidump {
            program_name: dump.program_name.clone(),
            fault: dump.fault.clone(),
            faulting_tid: dump.faulting_tid,
            frames: dump.faulting_thread().frames.clone(),
        }
    }

    /// The failure program counter.
    ///
    /// # Panics
    ///
    /// Panics on a malformed, frameless minidump.
    pub fn fault_pc(&self) -> Loc {
        self.frames.last().expect("minidump has no frames").loc()
    }

    /// The call stack as code locations, outermost first.
    pub fn call_stack(&self) -> Vec<Loc> {
        self.frames.iter().map(|f| f.loc()).collect()
    }

    /// Byte-size estimate; minidumps are why WER could afford to collect
    /// reports from millions of machines.
    pub fn size_bytes(&self) -> u64 {
        64 + (self.frames.len() as u64) * 512
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::asm::assemble;
    use mvm_machine::{Machine, MachineConfig};

    fn dump() -> Coredump {
        let p = assemble(
            r#"
            global g 64
            func inner(1) {
            entry:
                store 1, [r0+200]
                ret
            }
            func main() {
            entry:
                addr r0, g
                store 7, [r0]
                call inner(r0), cont
            cont:
                halt
            }
            "#,
        )
        .unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        m.run();
        Coredump::capture(&m)
    }

    #[test]
    fn minidump_preserves_stack_and_fault() {
        let d = dump();
        let md = Minidump::from_coredump(&d);
        assert_eq!(md.fault, d.fault);
        assert_eq!(md.fault_pc(), d.fault_pc());
        assert_eq!(md.call_stack(), d.call_stack());
        assert_eq!(md.frames.len(), 2);
    }

    #[test]
    fn minidump_is_much_smaller() {
        let d = dump();
        let md = Minidump::from_coredump(&d);
        assert!(md.size_bytes() < d.size_bytes());
    }

    #[test]
    fn json_round_trip() {
        let md = Minidump::from_coredump(&dump());
        let s = mvm_json::to_string(&md);
        let back: Minidump = mvm_json::from_str(&s).unwrap();
        assert_eq!(md, back);
    }
}
