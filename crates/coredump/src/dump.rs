//! The coredump format.

use mvm_json::{json_struct, JsonError};

use mvm_isa::validate::{validate, ValidateError};
use mvm_isa::{Loc, Program, Reg};
use mvm_machine::{
    AllocMeta,
    Fault,
    LbrEntry,
    LogRecord,
    Machine,
    Memory,
    ThreadId,
    ThreadState, //
};

/// A complete post-failure snapshot — the sole input RES needs besides
/// the program itself (paper §2.1: the input is `<C, PS>`).
///
/// Everything here is information a production system collects "for
/// free" after a crash: the memory image, per-thread contexts (the
/// MicroVM convention stores each frame's registers, so the stack walk
/// is exact), heap allocator metadata (parsed from the dump in real
/// tools), the fault descriptor, and the cheap breadcrumbs of §2.4.
#[derive(Debug, Clone, PartialEq)]
pub struct Coredump {
    /// Name of the program that crashed (matches `Program` identity).
    pub program_name: String,
    /// Full memory image at the fault.
    pub memory: Memory,
    /// Every thread's context.
    pub threads: Vec<ThreadState>,
    /// The fault that killed the execution.
    pub fault: Fault,
    /// Which thread faulted.
    pub faulting_tid: ThreadId,
    /// Global step count at the fault (diagnostic only; RES never reads
    /// it).
    pub steps: u64,
    /// Last-branch-record ring contents, oldest first (may be empty).
    pub lbr: Vec<LbrEntry>,
    /// Retained error-log records, oldest first (may be empty).
    pub error_log: Vec<LogRecord>,
    /// Heap allocator metadata recovered from the dump.
    pub heap_allocs: Vec<AllocMeta>,
    /// End of the globals segment (for address classification).
    pub globals_end: u64,
}

impl Coredump {
    /// Captures a coredump from a faulted machine.
    ///
    /// # Panics
    ///
    /// Panics if the machine has not faulted — production systems only
    /// dump core on failure. Use [`Coredump::capture_anyway`] in tests
    /// that need a snapshot of a healthy machine.
    pub fn capture(machine: &Machine) -> Self {
        assert!(
            machine.fault().is_some(),
            "capture requires a faulted machine"
        );
        Self::capture_anyway(machine)
    }

    /// Captures a snapshot regardless of fault state (the fault defaults
    /// to a deadlock descriptor when none is recorded — tests only).
    pub fn capture_anyway(machine: &Machine) -> Self {
        let (faulting_tid, fault) = machine
            .fault()
            .cloned()
            .unwrap_or((0, Fault::Deadlock { threads: vec![] }));
        let globals_end = machine
            .program()
            .globals
            .iter()
            .map(|g| g.addr + ((g.size.max(1) + 7) & !7))
            .max()
            .unwrap_or(mvm_isa::layout::GLOBAL_BASE);
        Coredump {
            program_name: machine.program().func(machine.program().entry).name.clone(),
            memory: machine.memory().clone(),
            threads: machine.threads().values().cloned().collect(),
            fault,
            faulting_tid,
            steps: machine.steps(),
            lbr: machine.lbr().entries().copied().collect(),
            error_log: machine.error_log().copied().collect(),
            heap_allocs: machine.heap().iter_allocs().copied().collect(),
            globals_end,
        }
    }

    /// The faulting thread's context.
    ///
    /// # Panics
    ///
    /// Panics if the dump is malformed and lacks the faulting thread.
    pub fn faulting_thread(&self) -> &ThreadState {
        self.thread(self.faulting_tid)
            .expect("dump lacks faulting thread")
    }

    /// Looks up a thread context by id.
    pub fn thread(&self, tid: ThreadId) -> Option<&ThreadState> {
        self.threads.iter().find(|t| t.tid == tid)
    }

    /// The program counter at the failure (paper §2.1: traces "end with
    /// the program counter found in the coredump").
    pub fn fault_pc(&self) -> Loc {
        self.faulting_thread().pc()
    }

    /// The faulting thread's call stack, outermost first, as code
    /// locations.
    pub fn call_stack(&self) -> Vec<Loc> {
        self.faulting_thread()
            .frames
            .iter()
            .map(|f| f.loc())
            .collect()
    }

    /// The WER-style stack signature: the top `depth` frames of the
    /// faulting thread plus the fault's coarse signal. This is exactly
    /// the information naive call-stack bucketing uses (paper §3.1).
    pub fn stack_signature(&self, depth: usize) -> StackSignature {
        let mut frames: Vec<Loc> = self
            .faulting_thread()
            .frames
            .iter()
            .rev()
            .take(depth)
            .map(|f| f.loc())
            .collect();
        // Innermost first.
        frames.dedup();
        StackSignature {
            signal: self.fault.as_signal().to_string(),
            frames,
        }
    }

    /// Whole-dump byte size estimate (memory pages + fixed overhead per
    /// thread), used by the experiments when reporting artifact sizes.
    pub fn size_bytes(&self) -> u64 {
        let mem: u64 = self.memory.iter_pages().map(|(_, p)| p.len() as u64).sum();
        mem + (self.threads.len() as u64) * 512
    }

    /// Checks that this dump can come from `program`: the program is
    /// well formed ([`validate`]), and every frame of every thread names
    /// a function, block and instruction the program has (an index one
    /// past the last instruction addresses the terminator). The engines
    /// index the program by these locations, so an entry point that
    /// pairs a program and a dump read from outside checks them first.
    pub fn check_program(&self, program: &Program) -> Result<(), ProgramMismatch> {
        validate(program).map_err(ProgramMismatch::Invalid)?;
        for t in &self.threads {
            for (frame, f) in t.frames.iter().enumerate() {
                let exists = program
                    .funcs
                    .get(f.func.0 as usize)
                    .and_then(|func| func.blocks.get(f.block.0 as usize))
                    .is_some_and(|block| f.inst as usize <= block.insts.len());
                if !exists {
                    return Err(ProgramMismatch::MissingCode {
                        tid: t.tid,
                        frame,
                        loc: f.loc(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Why a dump cannot come from a program ([`Coredump::check_program`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramMismatch {
    /// The program itself is malformed.
    Invalid(ValidateError),
    /// A frame names a function, block or instruction the program lacks.
    MissingCode {
        /// The frame's thread.
        tid: ThreadId,
        /// The frame's index in the thread's stack, outermost first.
        frame: usize,
        /// The location the program lacks.
        loc: Loc,
    },
}

impl std::fmt::Display for ProgramMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramMismatch::Invalid(e) => write!(f, "invalid program: {e}"),
            ProgramMismatch::MissingCode { tid, frame, loc } => write!(
                f,
                "thread {tid} frame {frame} is at {loc}, which the program lacks"
            ),
        }
    }
}

impl std::error::Error for ProgramMismatch {}

/// The naive triaging key: coarse signal + top-of-stack locations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StackSignature {
    /// Coarse kernel-visible signal (`SIGSEGV`, ...).
    pub signal: String,
    /// Top stack frames, innermost first.
    pub frames: Vec<Loc>,
}

json_struct!(Coredump {
    program_name,
    memory,
    threads,
    fault,
    faulting_tid,
    steps,
    lbr,
    error_log,
    heap_allocs,
    globals_end,
} check check_threads);

/// Refuses a dump no execution ends in: every thread must have a frame
/// (a halted thread keeps its bottom frame, so every capture does),
/// every frame a full register file, and `faulting_tid` must name one
/// of the threads.
fn check_threads(dump: &Coredump) -> Result<(), JsonError> {
    for (i, t) in dump.threads.iter().enumerate() {
        if t.frames.is_empty() {
            return Err(JsonError::msg(format!(
                "Coredump.threads[{i}].frames: thread {} has no frames",
                t.tid
            )));
        }
        if let Some((j, f)) = t
            .frames
            .iter()
            .enumerate()
            .find(|(_, f)| f.regs.len() != Reg::COUNT)
        {
            return Err(JsonError::msg(format!(
                "Coredump.threads[{i}].frames[{j}].regs: {} registers, not {}",
                f.regs.len(),
                Reg::COUNT
            )));
        }
    }
    if dump.thread(dump.faulting_tid).is_none() {
        return Err(JsonError::msg(format!(
            "Coredump.faulting_tid: thread {} is not in `threads`",
            dump.faulting_tid
        )));
    }
    Ok(())
}
json_struct!(StackSignature { signal, frames });

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::asm::assemble;
    use mvm_machine::{MachineConfig, Outcome};

    fn crash_dump(src: &str) -> Coredump {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p, MachineConfig::default());
        let o = m.run();
        assert!(matches!(o, Outcome::Faulted { .. }), "{o:?}");
        Coredump::capture(&m)
    }

    #[test]
    fn capture_records_fault_and_pc() {
        let d = crash_dump("func main() {\nentry:\n  mov r0, 0\n  divu r1, 1, r0\n  halt\n}");
        assert_eq!(d.fault, Fault::DivByZero);
        assert_eq!(d.faulting_tid, 0);
        assert_eq!(d.fault_pc().inst, 1);
        assert_eq!(d.call_stack().len(), 1);
    }

    #[test]
    fn capture_includes_memory_and_heap() {
        let d = crash_dump(
            "func main() {\nentry:\n  alloc r0, 16\n  store 9, [r0]\n  load r1, [r0+24]\n  halt\n}",
        );
        assert_eq!(d.heap_allocs.len(), 1);
        let base = d.heap_allocs[0].base;
        assert_eq!(d.memory.read(base, mvm_isa::Width::W8), 9);
    }

    #[test]
    #[should_panic(expected = "faulted machine")]
    fn capture_of_healthy_machine_panics() {
        let p = assemble("func main() {\nentry:\n  halt\n}").unwrap();
        let mut m = Machine::new(p, MachineConfig::default());
        m.run();
        let _ = Coredump::capture(&m);
    }

    #[test]
    fn stack_signature_distinguishes_call_paths() {
        let src_a = r#"
            func boom(1) {
            entry:
                divu r1, 1, r0
                ret r1
            }
            func main() {
            entry:
                call r0 = boom(0), cont
            cont:
                halt
            }
        "#;
        let src_b = r#"
            func main() {
            entry:
                mov r0, 0
                divu r1, 1, r0
                halt
            }
        "#;
        let da = crash_dump(src_a);
        let db = crash_dump(src_b);
        assert_ne!(da.stack_signature(2), db.stack_signature(2));
        assert_eq!(da.stack_signature(2).signal, "SIGFPE");
        assert_eq!(da.call_stack().len(), 2);
    }

    #[test]
    fn json_round_trip() {
        let d =
            crash_dump("global g 8 = 3\nfunc main() {\nentry:\n  assert 0, \"boom\"\n  halt\n}");
        let s = mvm_json::to_string(&d);
        let back: Coredump = mvm_json::from_str(&s).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn breadcrumbs_present_in_dump() {
        let d = crash_dump(
            "func main() {\nentry:\n  output 42, log\n  jmp next\nnext:\n  assert 0, \"x\"\n  halt\n}",
        );
        assert_eq!(d.error_log.len(), 1);
        assert_eq!(d.error_log[0].value, 42);
        assert_eq!(d.lbr.len(), 1);
    }

    #[test]
    fn size_estimate_counts_pages() {
        let d = crash_dump("global g 8 = 1\nfunc main() {\nentry:\n  assert 0, \"x\"\n  halt\n}");
        assert!(d.size_bytes() >= 4096);
    }
}
