//! The MicroVM interpreter.
//!
//! [`Machine`] owns all execution state (memory, heap, threads, locks)
//! and advances it one instruction at a time; it borrows the program it
//! runs and executes each instruction where the program holds it. The
//! public
//! [`Machine::step_thread`] lets a caller drive a *specific* thread — the
//! hook the RES replayer uses to pin a reconstructed schedule — while
//! [`Machine::run`] drives execution under a [`SchedPolicy`].

use std::collections::{BTreeMap, HashMap, VecDeque};

use mvm_isa::{layout, Channel, Inst, Loc, Operand, Program, Reg, Terminator, Width};

use crate::breadcrumbs::{LbrEntry, LbrRing, LogRecord};
use crate::faults::{AccessKind, Fault};
use crate::heap::Heap;
use crate::mem::Memory;
use crate::sched::{SchedPolicy, Scheduler};
use crate::thread::{Frame, ThreadId, ThreadState, ThreadStatus};
use crate::trace::{TraceEvent, TraceLevel, Tracer};

/// Where `input` instructions get their values.
#[derive(Debug, Clone)]
pub enum InputSource {
    /// Every input returns this value.
    Fixed(u64),
    /// Deterministic pseudo-random stream from a seed.
    Seeded {
        /// PRNG seed.
        seed: u64,
    },
    /// Per-thread scripted queues (used for replay); when a thread's
    /// queue is exhausted, `fallback` is returned.
    Scripted {
        /// Values per thread, consumed front to back.
        per_thread: HashMap<ThreadId, VecDeque<u64>>,
        /// Value delivered once a queue runs dry.
        fallback: u64,
    },
}

impl InputSource {
    fn next(&mut self, tid: ThreadId) -> u64 {
        match self {
            InputSource::Fixed(v) => *v,
            InputSource::Seeded { seed } => mvm_prng::XorShift64Star::step(seed),
            InputSource::Scripted {
                per_thread,
                fallback,
            } => per_thread
                .get_mut(&tid)
                .and_then(VecDeque::pop_front)
                .unwrap_or(*fallback),
        }
    }
}

/// Machine construction parameters.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Input source.
    pub input: InputSource,
    /// LBR ring capacity (0 disables; 16 models Intel LBR).
    pub lbr_capacity: usize,
    /// Enable the paper's §2.4 LBR extension: don't spend ring slots on
    /// branches whose outcome is re-derivable offline from the CFG.
    pub lbr_filter_inferrable: bool,
    /// Tracing level (Off in "production").
    pub trace: TraceLevel,
    /// Fault the run with a step-limit outcome after this many steps.
    pub max_steps: u64,
    /// Retained error-log records (oldest evicted).
    pub log_capacity: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            sched: SchedPolicy::round_robin(),
            input: InputSource::Fixed(0),
            lbr_capacity: 16,
            lbr_filter_inferrable: false,
            trace: TraceLevel::Off,
            max_steps: 100_000_000,
            log_capacity: 64,
        }
    }
}

/// A value the program emitted on an output channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputRecord {
    /// Emitting thread.
    pub tid: ThreadId,
    /// Location of the `output` instruction.
    pub at: Loc,
    /// Emitted value.
    pub value: u64,
    /// Output channel.
    pub channel: Channel,
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// All threads halted normally.
    Halted {
        /// Total steps executed.
        steps: u64,
    },
    /// A thread faulted; the machine state is frozen at the fault.
    Faulted {
        /// The fault.
        fault: Fault,
        /// Faulting thread.
        tid: ThreadId,
        /// Total steps executed.
        steps: u64,
    },
    /// The configured step budget ran out.
    StepLimit {
        /// Total steps executed.
        steps: u64,
    },
}

impl Outcome {
    /// Returns the fault if the run faulted.
    pub fn fault(&self) -> Option<&Fault> {
        match self {
            Outcome::Faulted { fault, .. } => Some(fault),
            _ => None,
        }
    }
}

/// The MicroVM, running a program it borrows.
#[derive(Debug, Clone)]
pub struct Machine<'p> {
    program: &'p Program,
    globals_end: u64,
    memory: Memory,
    heap: Heap,
    threads: BTreeMap<ThreadId, ThreadState>,
    next_tid: ThreadId,
    steps: u64,
    lbr: LbrRing,
    logs: VecDeque<LogRecord>,
    outputs: Vec<OutputRecord>,
    tracer: Tracer,
    scheduler: Scheduler,
    input: InputSource,
    config_max_steps: u64,
    config_log_capacity: usize,
    fault: Option<(ThreadId, Fault)>,
}

impl<'p> Machine<'p> {
    /// Boots a machine: loads globals, creates the main thread at the
    /// program entry.
    pub fn new(program: &'p Program, config: MachineConfig) -> Self {
        let mut memory = Memory::new();
        for g in &program.globals {
            if !g.init.is_empty() {
                memory.write_bytes(g.addr, &g.init);
            }
        }
        let mut m = Self::over_image(program, memory, config);
        let main = ThreadState::spawned(0, program.entry, 0);
        m.tracer.block_enter(0, main.pc(), 0);
        m.threads.insert(0, main);
        m
    }

    /// Boots a machine over a memory image (a coredump's, say) instead
    /// of the program's initialized globals, with no threads: the caller
    /// installs them ([`Machine::install_thread`]). As in
    /// [`Machine::new`], thread ids start past the main thread's 0.
    pub fn over_image(program: &'p Program, memory: Memory, config: MachineConfig) -> Self {
        let globals_end = program
            .globals
            .iter()
            .map(|g| g.addr + ((g.size.max(1) + 7) & !7))
            .fold(layout::GLOBAL_BASE, u64::max);
        Machine {
            program,
            globals_end,
            memory,
            heap: Heap::new(),
            threads: BTreeMap::new(),
            next_tid: 1,
            steps: 0,
            lbr: LbrRing::new(config.lbr_capacity).with_filtering(config.lbr_filter_inferrable),
            logs: VecDeque::new(),
            outputs: Vec::new(),
            tracer: Tracer::new(config.trace),
            scheduler: Scheduler::new(config.sched),
            input: config.input,
            config_max_steps: config.max_steps,
            config_log_capacity: config.log_capacity,
            fault: None,
        }
    }

    /// The program the machine runs.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current memory contents.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Heap allocator state.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Mutable heap state — used by the replayer to reconstruct
    /// allocator metadata from a coredump.
    pub fn heap_mut(&mut self) -> &mut Heap {
        &mut self.heap
    }

    /// All threads by id.
    pub fn threads(&self) -> &BTreeMap<ThreadId, ThreadState> {
        &self.threads
    }

    /// The LBR breadcrumb ring.
    pub fn lbr(&self) -> &LbrRing {
        &self.lbr
    }

    /// Retained error-log records, oldest first.
    pub fn error_log(&self) -> impl Iterator<Item = &LogRecord> {
        self.logs.iter()
    }

    /// All program outputs in emission order.
    pub fn outputs(&self) -> &[OutputRecord] {
        &self.outputs
    }

    /// The tracer (empty unless tracing was enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The recorded fault, if execution faulted.
    pub fn fault(&self) -> Option<&(ThreadId, Fault)> {
        self.fault.as_ref()
    }

    /// Ids of currently runnable threads, ascending.
    pub fn runnable(&self) -> Vec<ThreadId> {
        self.threads
            .values()
            .filter(|t| t.status.is_runnable())
            .map(|t| t.tid)
            .collect()
    }

    /// Registers an already-constructed thread (replay bootstrap). The
    /// thread id must not collide with an existing one.
    ///
    /// # Panics
    ///
    /// Panics on thread-id collision.
    pub fn install_thread(&mut self, t: ThreadState) {
        assert!(
            !self.threads.contains_key(&t.tid),
            "thread {} already exists",
            t.tid
        );
        self.next_tid = self.next_tid.max(t.tid + 1);
        self.threads.insert(t.tid, t);
    }

    /// Runs until halt, fault, or the step limit.
    pub fn run(&mut self) -> Outcome {
        loop {
            if let Some((tid, fault)) = &self.fault {
                return Outcome::Faulted {
                    fault: fault.clone(),
                    tid: *tid,
                    steps: self.steps,
                };
            }
            if self.steps >= self.config_max_steps {
                return Outcome::StepLimit { steps: self.steps };
            }
            let runnable = self.runnable();
            if runnable.is_empty() {
                let blocked: Vec<ThreadId> = self
                    .threads
                    .values()
                    .filter(|t| t.status.is_blocked())
                    .map(|t| t.tid)
                    .collect();
                if blocked.is_empty() {
                    return Outcome::Halted { steps: self.steps };
                }
                let tid = blocked[0];
                let fault = Fault::Deadlock { threads: blocked };
                self.fault = Some((tid, fault.clone()));
                return Outcome::Faulted {
                    fault,
                    tid,
                    steps: self.steps,
                };
            }
            let tid = self.scheduler.pick(&runnable);
            // `step_thread` records any fault internally; the loop exits
            // on the next iteration.
            let _ = self.step_thread(tid);
        }
    }

    /// Executes one instruction (or terminator) of thread `tid`.
    ///
    /// Returns `Ok(true)` if the thread remains runnable, `Ok(false)` if
    /// it halted or blocked.
    ///
    /// # Errors
    ///
    /// Returns the fault if the step faulted; the machine also records
    /// it and freezes (the program counter stays at the faulting
    /// instruction, as a coredump expects).
    pub fn step_thread(&mut self, tid: ThreadId) -> Result<bool, Fault> {
        debug_assert!(self.fault.is_none(), "stepping a faulted machine");
        self.steps += 1;
        let result = self.step_inner(tid);
        if let Err(fault) = &result {
            self.fault = Some((tid, fault.clone()));
        }
        result
    }

    fn thread(&self, tid: ThreadId) -> &ThreadState {
        self.threads.get(&tid).expect("unknown thread")
    }

    fn step_inner(&mut self, tid: ThreadId) -> Result<bool, Fault> {
        let loc = self.thread(tid).pc();
        let program = self.program;
        let block = program.block_at(loc);
        match block.insts.get(loc.inst as usize) {
            Some(inst) => self.exec_inst(tid, loc, inst),
            None => self.exec_terminator(tid, loc, &block.terminator),
        }
    }

    fn eval(&self, tid: ThreadId, op: Operand) -> u64 {
        match op {
            Operand::Reg(r) => self.thread(tid).top().reg(r),
            Operand::Imm(v) => v,
        }
    }

    /// Validates that `[addr, addr+len)` is legal to touch.
    fn check_access(&self, addr: u64, len: u64, kind: AccessKind) -> Result<(), Fault> {
        match layout::region_of(addr) {
            layout::Region::Global => {
                if addr.wrapping_add(len) <= self.globals_end {
                    Ok(())
                } else {
                    Err(Fault::InvalidAccess { addr, kind })
                }
            }
            layout::Region::Heap => self.heap.check_access(addr, len, kind),
            layout::Region::Stack { tid } => {
                if tid < self.next_tid {
                    Ok(())
                } else {
                    Err(Fault::InvalidAccess { addr, kind })
                }
            }
            layout::Region::Unmapped => Err(Fault::InvalidAccess { addr, kind }),
        }
    }

    fn exec_inst(&mut self, tid: ThreadId, loc: Loc, inst: &Inst) -> Result<bool, Fault> {
        let mut advance = true;
        let mut runnable = true;
        match inst {
            Inst::Mov { dst, src } => {
                let v = self.eval(tid, *src);
                self.threads
                    .get_mut(&tid)
                    .unwrap()
                    .top_mut()
                    .set_reg(*dst, v);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let a = self.eval(tid, *lhs);
                let b = self.eval(tid, *rhs);
                let v = op.eval(a, b).ok_or(Fault::DivByZero)?;
                self.threads
                    .get_mut(&tid)
                    .unwrap()
                    .top_mut()
                    .set_reg(*dst, v);
            }
            Inst::Un { op, dst, src } => {
                let v = op.eval(self.eval(tid, *src));
                self.threads
                    .get_mut(&tid)
                    .unwrap()
                    .top_mut()
                    .set_reg(*dst, v);
            }
            Inst::Load {
                dst,
                addr,
                offset,
                width,
            } => {
                let base = self.eval(tid, *addr).wrapping_add(*offset as u64);
                self.check_access(base, width.bytes(), AccessKind::Read)?;
                let v = self.memory.read(base, *width);
                self.threads
                    .get_mut(&tid)
                    .unwrap()
                    .top_mut()
                    .set_reg(*dst, v);
                self.tracer.fine(TraceEvent::Mem {
                    tid,
                    loc,
                    kind: AccessKind::Read,
                    addr: base,
                    value: v,
                    width: *width,
                });
            }
            Inst::Store {
                src,
                addr,
                offset,
                width,
            } => {
                let base = self.eval(tid, *addr).wrapping_add(*offset as u64);
                self.check_access(base, width.bytes(), AccessKind::Write)?;
                let v = self.eval(tid, *src);
                self.memory.write(base, v, *width);
                self.tracer.fine(TraceEvent::Mem {
                    tid,
                    loc,
                    kind: AccessKind::Write,
                    addr: base,
                    value: v,
                    width: *width,
                });
            }
            Inst::AddrOf { dst, global } => {
                let a = self.program.global(*global).addr;
                self.threads
                    .get_mut(&tid)
                    .unwrap()
                    .top_mut()
                    .set_reg(*dst, a);
            }
            Inst::Input { dst, kind: _ } => {
                let v = self.input.next(tid);
                let t = self.threads.get_mut(&tid).unwrap();
                t.inputs_consumed += 1;
                t.top_mut().set_reg(*dst, v);
                self.tracer.fine(TraceEvent::Input { tid, loc, value: v });
            }
            Inst::Output { src, channel } => {
                let v = self.eval(tid, *src);
                self.outputs.push(OutputRecord {
                    tid,
                    at: loc,
                    value: v,
                    channel: *channel,
                });
                if *channel == Channel::Log {
                    if self.logs.len() == self.config_log_capacity {
                        self.logs.pop_front();
                    }
                    self.logs.push_back(LogRecord {
                        tid,
                        at: loc,
                        value: v,
                        step: self.steps,
                    });
                }
            }
            Inst::Alloc { dst, size } => {
                let sz = self.eval(tid, *size);
                let base = self.heap.alloc(sz)?;
                // Materialize the payload so it appears in coredumps.
                self.memory.map_zeroed(base, sz.max(1));
                self.tracer.fine(TraceEvent::Alloc {
                    tid,
                    loc,
                    base,
                    size: sz,
                });
                self.threads
                    .get_mut(&tid)
                    .unwrap()
                    .top_mut()
                    .set_reg(*dst, base);
            }
            Inst::Free { addr } => {
                let a = self.eval(tid, *addr);
                self.heap.free(a)?;
                self.tracer.fine(TraceEvent::Free { tid, loc, base: a });
            }
            Inst::Lock { addr } => {
                let mutex = self.eval(tid, *addr);
                self.check_access(mutex, 8, AccessKind::Write)?;
                // Ownership lives in the mutex word itself: 0 is free,
                // `tid + 1` is held — so coredumps and replays see lock
                // state without a side table.
                let word = self.memory.read(mutex, Width::W8);
                if word == 0 {
                    self.memory.write(mutex, tid + 1, Width::W8);
                    self.tracer.fine(TraceEvent::Sync {
                        tid,
                        loc,
                        mutex,
                        acquire: true,
                    });
                } else {
                    // Contended (including self-deadlock): block and
                    // retry this same instruction when woken.
                    self.threads.get_mut(&tid).unwrap().status = ThreadStatus::BlockedOnLock(mutex);
                    advance = false;
                    runnable = false;
                }
            }
            Inst::Unlock { addr } => {
                let mutex = self.eval(tid, *addr);
                self.check_access(mutex, 8, AccessKind::Write)?;
                let word = self.memory.read(mutex, Width::W8);
                if word != tid + 1 {
                    return Err(Fault::UnlockNotOwned { mutex });
                }
                self.memory.write(mutex, 0, Width::W8);
                self.tracer.fine(TraceEvent::Sync {
                    tid,
                    loc,
                    mutex,
                    acquire: false,
                });
                // Wake every waiter; they re-execute their Lock.
                for t in self.threads.values_mut() {
                    if t.status == ThreadStatus::BlockedOnLock(mutex) {
                        t.status = ThreadStatus::Runnable;
                    }
                }
            }
            Inst::Spawn { dst, func, arg } => {
                let a = self.eval(tid, *arg);
                let new_tid = self.next_tid;
                self.next_tid += 1;
                let t = ThreadState::spawned(new_tid, *func, a);
                self.tracer.block_enter(new_tid, t.pc(), self.steps);
                self.threads.insert(new_tid, t);
                self.threads
                    .get_mut(&tid)
                    .unwrap()
                    .top_mut()
                    .set_reg(*dst, new_tid);
            }
            Inst::Join { tid: target_op } => {
                let target = self.eval(tid, *target_op);
                if target >= self.next_tid {
                    return Err(Fault::JoinUnknownThread { tid: target });
                }
                let halted = self
                    .threads
                    .get(&target)
                    .is_none_or(|t| t.status == ThreadStatus::Halted);
                if !halted {
                    self.threads.get_mut(&tid).unwrap().status =
                        ThreadStatus::BlockedOnJoin(target);
                    advance = false;
                    runnable = false;
                }
            }
            Inst::Assert { cond, msg } => {
                if self.eval(tid, *cond) == 0 {
                    return Err(Fault::AssertFailed { msg: msg.clone() });
                }
            }
            Inst::Nop => {}
        }
        if advance {
            self.threads.get_mut(&tid).unwrap().top_mut().inst += 1;
        }
        Ok(runnable)
    }

    fn exec_terminator(
        &mut self,
        tid: ThreadId,
        loc: Loc,
        term: &Terminator,
    ) -> Result<bool, Fault> {
        match term {
            Terminator::Jump(target) => {
                self.goto(tid, loc, *target, true);
                Ok(true)
            }
            Terminator::Branch {
                cond,
                then_b,
                else_b,
            } => {
                let taken = if self.eval(tid, *cond) != 0 {
                    *then_b
                } else {
                    *else_b
                };
                self.goto(tid, loc, taken, false);
                Ok(true)
            }
            Terminator::Call {
                func,
                args,
                ret,
                cont,
            } => {
                let arg_vals: Vec<u64> = args.iter().map(|a| self.eval(tid, *a)).collect();
                let sp = self.thread(tid).top().reg(Reg(31));
                {
                    let t = self.threads.get_mut(&tid).unwrap();
                    // Park the caller at the continuation.
                    let caller = t.top_mut();
                    caller.block = *cont;
                    caller.inst = 0;
                    let mut frame = Frame::at_entry(*func);
                    for (i, v) in arg_vals.iter().enumerate() {
                        frame.set_reg(Reg(i as u8), *v);
                    }
                    // The callee inherits the caller's stack pointer.
                    frame.set_reg(Reg(31), sp);
                    frame.ret_reg = *ret;
                    t.frames.push(frame);
                }
                let entry = self.thread(tid).pc();
                self.lbr.record(LbrEntry {
                    tid,
                    from: loc,
                    to: entry,
                    inferrable: true,
                });
                self.tracer.block_enter(tid, entry, self.steps);
                Ok(true)
            }
            Terminator::Return(val) => {
                let v = val.map(|op| self.eval(tid, op));
                let t = self.threads.get_mut(&tid).unwrap();
                let frame = t.frames.pop().expect("return without frame");
                if t.frames.is_empty() {
                    // Returning from the bottom frame halts the thread.
                    t.frames.push(frame);
                    t.status = ThreadStatus::Halted;
                    self.wake_joiners(tid);
                    return Ok(false);
                }
                if let (Some(r), Some(v)) = (frame.ret_reg, v) {
                    t.top_mut().set_reg(r, v);
                }
                let cont = self.thread(tid).pc();
                self.lbr.record(LbrEntry {
                    tid,
                    from: loc,
                    to: cont,
                    inferrable: true,
                });
                self.tracer.block_enter(tid, cont, self.steps);
                Ok(true)
            }
            Terminator::Halt => {
                self.threads.get_mut(&tid).unwrap().status = ThreadStatus::Halted;
                self.wake_joiners(tid);
                Ok(false)
            }
        }
    }

    fn goto(&mut self, tid: ThreadId, from: Loc, target: mvm_isa::BlockId, inferrable: bool) {
        {
            let t = self.threads.get_mut(&tid).unwrap();
            let f = t.top_mut();
            f.block = target;
            f.inst = 0;
        }
        let to = self.thread(tid).pc();
        self.lbr.record(LbrEntry {
            tid,
            from,
            to,
            inferrable,
        });
        self.tracer.block_enter(tid, to, self.steps);
    }

    fn wake_joiners(&mut self, halted: ThreadId) {
        for t in self.threads.values_mut() {
            if t.status == ThreadStatus::BlockedOnJoin(halted) {
                t.status = ThreadStatus::Runnable;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_isa::asm::assemble;

    /// Runs `src` to its end; the program lives as long as the test
    /// binary, so the machine can outlive this call.
    fn run_src(src: &str) -> (Machine<'static>, Outcome) {
        let p = Box::leak(Box::new(assemble(src).unwrap()));
        let mut m = Machine::new(p, MachineConfig::default());
        let o = m.run();
        (m, o)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (m, o) = run_src("func main() {\nentry:\n  mov r0, 6\n  mul r1, r0, 7\n  halt\n}");
        assert!(matches!(o, Outcome::Halted { .. }));
        assert_eq!(m.threads()[&0].top().reg(Reg(1)), 42);
    }

    #[test]
    fn globals_load_store() {
        let (m, o) = run_src(
            "global g 8 = 10\nfunc main() {\nentry:\n  addr r0, g\n  load r1, [r0]\n  add r1, r1, 1\n  store r1, [r0]\n  halt\n}",
        );
        assert!(matches!(o, Outcome::Halted { .. }));
        let g = m.program().global_by_name("g").unwrap();
        let addr = m.program().global(g).addr;
        assert_eq!(m.memory().read(addr, Width::W8), 11);
    }

    #[test]
    fn div_by_zero_faults_at_pc() {
        let (m, o) = run_src("func main() {\nentry:\n  mov r0, 0\n  divu r1, 5, r0\n  halt\n}");
        let Outcome::Faulted { fault, tid, .. } = o else {
            panic!("expected fault")
        };
        assert_eq!(fault, Fault::DivByZero);
        assert_eq!(tid, 0);
        // PC frozen at the faulting instruction (index 1).
        assert_eq!(m.threads()[&0].pc().inst, 1);
    }

    #[test]
    fn invalid_access_faults() {
        let (_, o) = run_src("func main() {\nentry:\n  mov r0, 64\n  load r1, [r0]\n  halt\n}");
        assert!(matches!(
            o.fault(),
            Some(Fault::InvalidAccess {
                addr: 64,
                kind: AccessKind::Read
            })
        ));
    }

    #[test]
    fn assert_failure_reports_message() {
        let (_, o) = run_src("func main() {\nentry:\n  assert 0, \"invariant broken\"\n  halt\n}");
        assert!(matches!(
            o.fault(),
            Some(Fault::AssertFailed { msg }) if msg == "invariant broken"
        ));
    }

    #[test]
    fn heap_alloc_use_free() {
        let (m, o) = run_src(
            "func main() {\nentry:\n  alloc r0, 16\n  store 7, [r0+8]\n  load r1, [r0+8]\n  assert r1, \"roundtrip\"\n  free r0\n  halt\n}",
        );
        assert!(matches!(o, Outcome::Halted { .. }), "{o:?}");
        assert_eq!(m.heap().alloc_count(), 1);
    }

    #[test]
    fn heap_overflow_faults() {
        let (_, o) =
            run_src("func main() {\nentry:\n  alloc r0, 16\n  store 1, [r0+16]\n  halt\n}");
        assert!(matches!(o.fault(), Some(Fault::HeapOverflow { .. })));
    }

    #[test]
    fn use_after_free_faults() {
        let (_, o) =
            run_src("func main() {\nentry:\n  alloc r0, 16\n  free r0\n  load r1, [r0]\n  halt\n}");
        assert!(matches!(o.fault(), Some(Fault::UseAfterFree { .. })));
    }

    #[test]
    fn double_free_faults() {
        let (_, o) =
            run_src("func main() {\nentry:\n  alloc r0, 16\n  free r0\n  free r0\n  halt\n}");
        assert!(matches!(o.fault(), Some(Fault::DoubleFree { .. })));
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let (m, o) = run_src(
            r#"
            func add3(2) {
            entry:
                add r2, r0, r1
                add r2, r2, 1
                ret r2
            }
            func main() {
            entry:
                call r5 = add3(20, 21), cont
            cont:
                halt
            }
            "#,
        );
        assert!(matches!(o, Outcome::Halted { .. }));
        assert_eq!(m.threads()[&0].top().reg(Reg(5)), 42);
        // Caller registers other than r5 are untouched by the callee.
        assert_eq!(m.threads()[&0].top().reg(Reg(2)), 0);
    }

    #[test]
    fn main_return_halts_thread() {
        let (_, o) = run_src("func main() {\nentry:\n  ret\n}");
        assert!(matches!(o, Outcome::Halted { .. }));
    }

    #[test]
    fn spawn_join_and_shared_memory() {
        let (m, o) = run_src(
            r#"
            global counter 8
            func worker(1) {
            entry:
                load r1, [r0]
                add r1, r1, 5
                store r1, [r0]
                halt
            }
            func main() {
            entry:
                addr r0, counter
                spawn r1, worker, r0
                join r1
                load r2, [r0]
                assert r2, "worker ran"
                halt
            }
            "#,
        );
        assert!(matches!(o, Outcome::Halted { .. }), "{o:?}");
        let g = m.program().global_by_name("counter").unwrap();
        assert_eq!(m.memory().read(m.program().global(g).addr, Width::W8), 5);
    }

    #[test]
    fn locks_provide_mutual_exclusion() {
        // Two threads increment a counter 100 times each under a lock;
        // with quantum-1 round-robin the result must still be 200.
        let src = r#"
            global counter 8
            global mtx 8
            func worker(1) {
            entry:
                mov r2, 0
                jmp loop
            loop:
                ltu r3, r2, 100
                br r3, body, done
            body:
                addr r4, mtx
                lock r4
                addr r5, counter
                load r6, [r5]
                add r6, r6, 1
                store r6, [r5]
                unlock r4
                add r2, r2, 1
                jmp loop
            done:
                halt
            }
            func main() {
            entry:
                spawn r0, worker, 0
                spawn r1, worker, 0
                join r0
                join r1
                halt
            }
        "#;
        let (m, o) = run_src(src);
        assert!(matches!(o, Outcome::Halted { .. }), "{o:?}");
        let g = m.program().global_by_name("counter").unwrap();
        assert_eq!(m.memory().read(m.program().global(g).addr, Width::W8), 200);
    }

    #[test]
    fn unsynchronized_increments_can_be_lost() {
        // The classic data race: without the lock, quantum-interleaved
        // read-modify-write loses updates.
        let src = r#"
            global counter 8
            func worker(1) {
            entry:
                mov r2, 0
                jmp loop
            loop:
                ltu r3, r2, 100
                br r3, body, done
            body:
                addr r5, counter
                load r6, [r5]
                add r6, r6, 1
                store r6, [r5]
                add r2, r2, 1
                jmp loop
            done:
                halt
            }
            func main() {
            entry:
                spawn r0, worker, 0
                spawn r1, worker, 0
                join r0
                join r1
                halt
            }
        "#;
        let p = assemble(src).unwrap();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                sched: SchedPolicy::RoundRobin { quantum: 1 },
                ..MachineConfig::default()
            },
        );
        let o = m.run();
        assert!(matches!(o, Outcome::Halted { .. }));
        let g = m.program().global_by_name("counter").unwrap();
        let v = m.memory().read(m.program().global(g).addr, Width::W8);
        assert!(v < 200, "expected lost updates, got {v}");
    }

    #[test]
    fn deadlock_detected() {
        let src = r#"
            global m1 8
            global m2 8
            func worker(1) {
            entry:
                addr r1, m2
                lock r1
                addr r2, m1
                lock r2
                halt
            }
            func main() {
            entry:
                addr r1, m1
                lock r1
                spawn r3, worker, 0
                addr r2, m2
                lock r2
                halt
            }
        "#;
        let (_, o) = run_src(src);
        assert!(matches!(o.fault(), Some(Fault::Deadlock { threads }) if threads.len() == 2));
    }

    #[test]
    fn self_deadlock_detected() {
        let (_, o) = run_src(
            "global m 8\nfunc main() {\nentry:\n  addr r0, m\n  lock r0\n  lock r0\n  halt\n}",
        );
        assert!(matches!(o.fault(), Some(Fault::Deadlock { .. })));
    }

    #[test]
    fn unlock_not_owned_faults() {
        let (_, o) =
            run_src("global m 8\nfunc main() {\nentry:\n  addr r0, m\n  unlock r0\n  halt\n}");
        assert!(matches!(o.fault(), Some(Fault::UnlockNotOwned { .. })));
    }

    #[test]
    fn join_unknown_thread_faults() {
        let (_, o) = run_src("func main() {\nentry:\n  join 17\n  halt\n}");
        assert!(matches!(
            o.fault(),
            Some(Fault::JoinUnknownThread { tid: 17 })
        ));
    }

    #[test]
    fn inputs_scripted_and_recorded() {
        let p = assemble(
            "func main() {\nentry:\n  input r0, net\n  input r1, net\n  output r0, out\n  output r1, log\n  halt\n}",
        )
        .unwrap();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                input: InputSource::Scripted {
                    per_thread: HashMap::from([(0, VecDeque::from([7, 9]))]),
                    fallback: 0,
                },
                trace: TraceLevel::Full,
                ..MachineConfig::default()
            },
        );
        let o = m.run();
        assert!(matches!(o, Outcome::Halted { .. }));
        assert_eq!(m.outputs()[0].value, 7);
        assert_eq!(m.outputs()[1].value, 9);
        assert_eq!(m.error_log().count(), 1);
        assert_eq!(m.threads()[&0].inputs_consumed, 2);
        assert!(m
            .tracer()
            .events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Input { value: 7, .. })));
    }

    #[test]
    fn lbr_records_branches() {
        let (m, _) = run_src(
            "func main() {\nentry:\n  mov r0, 1\n  br r0, a, b\na:\n  jmp c\nb:\n  jmp c\nc:\n  halt\n}",
        );
        let entries: Vec<_> = m.lbr().entries().collect();
        assert_eq!(entries.len(), 2);
        assert!(!entries[0].inferrable, "conditional branch");
        assert!(entries[1].inferrable, "unconditional jump");
    }

    #[test]
    fn determinism_same_config_same_state() {
        let src = r#"
            global c 8
            func w(1) {
            entry:
                addr r1, c
                load r2, [r1]
                add r2, r2, r0
                store r2, [r1]
                halt
            }
            func main() {
            entry:
                spawn r0, w, 3
                spawn r1, w, 4
                join r0
                join r1
                halt
            }
        "#;
        let run = || {
            let p = assemble(src).unwrap();
            let mut m = Machine::new(
                &p,
                MachineConfig {
                    sched: SchedPolicy::Random {
                        seed: 42,
                        switch_per_mille: 300,
                    },
                    ..MachineConfig::default()
                },
            );
            let o = m.run();
            let g = m.program().global_by_name("c").unwrap();
            (
                format!("{o:?}"),
                m.memory().read(m.program().global(g).addr, Width::W8),
                m.steps(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn step_limit_reported() {
        let p = assemble("func main() {\nentry:\n  jmp entry\n}").unwrap();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                max_steps: 100,
                ..MachineConfig::default()
            },
        );
        assert!(matches!(m.run(), Outcome::StepLimit { steps: 100 }));
    }

    #[test]
    fn step_thread_drives_specific_thread() {
        let p = assemble("func main() {\nentry:\n  mov r0, 1\n  mov r1, 2\n  halt\n}").unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        assert!(m.step_thread(0).unwrap());
        assert_eq!(m.threads()[&0].top().reg(Reg(0)), 1);
        assert_eq!(m.threads()[&0].top().reg(Reg(1)), 0);
        assert!(m.step_thread(0).unwrap());
        assert!(
            !m.step_thread(0).unwrap(),
            "halt leaves thread not runnable"
        );
    }

    #[test]
    fn lock_state_mirrored_in_memory() {
        let (m, o) =
            run_src("global m 8\nfunc main() {\nentry:\n  addr r0, m\n  lock r0\n  halt\n}");
        assert!(matches!(o, Outcome::Halted { .. }));
        let g = m.program().global_by_name("m").unwrap();
        // Owner tid 0 is encoded as 1.
        assert_eq!(m.memory().read(m.program().global(g).addr, Width::W8), 1);
    }

    #[test]
    fn block_trace_schedule_captured() {
        let p = assemble("func main() {\nentry:\n  jmp a\na:\n  jmp b\nb:\n  halt\n}").unwrap();
        let mut m = Machine::new(
            &p,
            MachineConfig {
                trace: TraceLevel::Blocks,
                ..MachineConfig::default()
            },
        );
        m.run();
        let sched = m.tracer().block_schedule();
        assert_eq!(sched.len(), 3);
        assert_eq!(sched[0].1.block.0, 0);
        assert_eq!(sched[2].1.block.0, 2);
    }
}
