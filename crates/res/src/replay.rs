//! Deterministic replay of a synthesized suffix (paper §2.1).
//!
//! "To replay a suffix in a debugger like gdb, a special environment is
//! slipped underneath the debugger to instantiate Mi and replay Ti; to
//! the developer it looks as if the program deterministically runs into
//! the same failure."
//!
//! The replayer here is that environment: it boots a fresh machine
//! over the coredump's memory image with the partial image `Mi` laid
//! on it, reconstructs thread contexts and allocator metadata at the
//! suffix start, pins the block-granular schedule and the inferred
//! inputs, runs forward, and finally verifies that the machine faults
//! identically and that its memory and thread state match the original
//! dump byte for byte. The machine borrows the program and compares
//! itself with the dump in place; it copies only the dump's memory
//! image, which it runs on.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use mvm_core::{diff_machine, Coredump, DumpDiff};
use mvm_isa::{Loc, Program, Width};
use mvm_json::{json_enum, json_struct};
use mvm_machine::{
    AccessKind,
    AllocState,
    Fault,
    Frame,
    InputSource,
    Machine,
    MachineConfig,
    ThreadId,
    ThreadState,
    ThreadStatus,
    TraceEvent,
    TraceLevel, //
};

use crate::suffix::ExecutionSuffix;

/// The outcome of replaying a suffix.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// `true` when the replay reproduced the fault *and* the final state
    /// matches the coredump.
    pub reproduced: bool,
    /// `true` when the fault class and location matched.
    pub fault_matches: bool,
    /// Differences between the replayed state and the coredump.
    pub diff: DumpDiff,
    /// The fault the replay hit, if any.
    pub replay_fault: Option<Fault>,
    /// Instructions executed during the replay.
    pub steps_executed: u64,
}

/// How many differing memory bytes a replay's [`DumpDiff`] lists.
const DIFF_LIMIT: usize = 64;

/// Builds a machine positioned at the suffix start ("the environment
/// slipped underneath the debugger"), ready to be stepped.
///
/// Exposed separately from [`replay_suffix`] so debugging aids (§3.3)
/// can stop at intermediate points.
pub fn instantiate<'p>(
    program: &'p Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
    trace: TraceLevel,
) -> Machine<'p> {
    let mut per_thread: HashMap<ThreadId, VecDeque<u64>> = HashMap::new();
    for (tid, vals) in &suffix.inputs {
        per_thread.insert(*tid, vals.iter().copied().collect());
    }
    // Memory: the dump image (locations the suffix never touches are
    // unchanged by it) overlaid with the concretized `Mi` cells.
    let mut memory = dump.memory.clone();
    for (addr, width, value) in &suffix.initial_cells {
        memory.write(*addr, *value, *width);
    }
    let mut m = Machine::over_image(
        program,
        memory,
        MachineConfig {
            input: InputSource::Scripted {
                per_thread,
                fallback: 0,
            },
            trace,
            ..MachineConfig::default()
        },
    );
    // Heap: the dump's allocation table minus the allocations the
    // suffix itself performs (address order is allocation order for the
    // bump allocator), with suffix-freed blocks resurrected.
    let suffix_allocs: usize = suffix.steps.iter().map(|s| s.allocs).sum();
    let keep = dump.heap_allocs.len().saturating_sub(suffix_allocs);
    m.heap_mut()
        .install(dump.heap_allocs.iter().take(keep).copied());
    for s in &suffix.steps {
        for base in &s.frees {
            m.heap_mut().set_state(*base, AllocState::Live);
        }
    }
    // Threads: dump frames below the start depth, a concretized frame at
    // the start position.
    for (&tid, &(depth, loc)) in &suffix.start_positions {
        let dump_thread = dump.thread(tid).expect("dump thread");
        let mut frames: Vec<Frame> = dump_thread.frames[..depth].to_vec();
        let (reg_depth, regs) = &suffix.initial_regs[&tid];
        debug_assert_eq!(*reg_depth, depth);
        let template = &dump_thread.frames[depth.min(dump_thread.frames.len() - 1)];
        frames.push(Frame {
            func: loc.func,
            block: loc.block,
            inst: loc.inst,
            regs: regs.clone(),
            ret_reg: template.ret_reg,
        });
        m.install_thread(ThreadState {
            tid,
            frames,
            status: ThreadStatus::Runnable,
            inputs_consumed: 0,
        });
    }
    // Make sure thread-id space covers every dump thread (stack region
    // validity).
    for t in &dump.threads {
        if m.threads().contains_key(&t.tid) {
            continue;
        }
        m.install_thread(ThreadState {
            tid: t.tid,
            frames: t.frames.clone(),
            status: t.status,
            inputs_consumed: 0,
        });
    }
    m
}

/// Replays a suffix against its coredump and verifies reproduction.
pub fn replay_suffix(program: &Program, dump: &Coredump, suffix: &ExecutionSuffix) -> ReplayReport {
    replay_with_trace(program, dump, suffix, TraceLevel::Off).0
}

/// Replays and also returns the machine (with any requested trace) for
/// root-cause analysis.
pub fn replay_with_trace<'p>(
    program: &'p Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
    trace: TraceLevel,
) -> (ReplayReport, Machine<'p>) {
    drive(program, dump, suffix, trace, None, diff_machine)
}

/// How a replay compares its end state with the dump, listing up to a
/// given number of differing memory bytes: every replay reads the
/// machine in place ([`diff_machine`]).
type EndDiff = fn(&Machine<'_>, &Coredump, usize) -> DumpDiff;

/// The one replay loop: runs the schedule, settles each thread whose
/// suffix work is done, takes the final faulting step and compares the
/// end state with the dump by `end_diff`. An `observer` (which needs a
/// [`TraceLevel::Full`] machine to see writes) also collects every event
/// and stops the replay at the first [`Divergence`].
fn drive<'p>(
    program: &'p Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
    trace: TraceLevel,
    mut observer: Option<&mut Observer<'_>>,
    end_diff: EndDiff,
) -> (ReplayReport, Machine<'p>) {
    let mut m = instantiate(program, dump, suffix, trace);
    let mut steps_executed = 0u64;
    let schedule = suffix.schedule();
    // Remaining scheduled steps per thread, to detect when a thread's
    // suffix work is done and its dump-final status (halted/blocked)
    // should be settled.
    let mut remaining: HashMap<ThreadId, u64> = HashMap::new();
    for &(tid, n) in &schedule {
        *remaining.entry(tid).or_default() += n;
    }
    let fail = |m: Machine<'p>, fault: Option<Fault>, steps: u64| {
        let diff = end_diff(&m, dump, DIFF_LIMIT);
        let report = ReplayReport {
            reproduced: false,
            fault_matches: false,
            diff,
            replay_fault: fault,
            steps_executed: steps,
        };
        (report, m)
    };

    for (i, &(tid, n)) in schedule.iter().enumerate() {
        if observer
            .as_deref_mut()
            .is_some_and(|obs| !obs.begin(i, tid, &m))
        {
            return fail(m, None, steps_executed);
        }
        let mut executed = 0u64;
        let mut premature = None;
        while executed < n && premature.is_none() {
            match m.step_thread(tid) {
                Ok(_) => executed += 1,
                Err(fault) => premature = Some(fault),
            }
        }
        steps_executed += executed;
        let diverged = observer
            .as_deref_mut()
            .is_some_and(|obs| !obs.end(i, tid, n, executed, premature.as_ref(), &m));
        // A premature fault means the suffix is wrong.
        if diverged || premature.is_some() {
            return fail(m, premature, steps_executed);
        }
        let rem = remaining.get_mut(&tid).expect("scheduled thread");
        *rem -= n;
        // Settle the thread's dump-final status so joins and deadlock
        // detection behave (its halt/block step is not part of the
        // synthesized range).
        let settles = *rem == 0
            && tid != dump.faulting_tid
            && dump.thread(tid).is_some_and(|dt| {
                matches!(
                    dt.status,
                    ThreadStatus::Halted | ThreadStatus::BlockedOnLock(_)
                )
            })
            && m.threads()[&tid].status == ThreadStatus::Runnable;
        if settles {
            if let Err(fault) = m.step_thread(tid) {
                if let Some(obs) = observer {
                    let kind = DivergenceKind::PrematureFault {
                        expected_steps: n,
                        executed: n,
                        fault: fault.clone(),
                    };
                    obs.diverge(i, tid, kind);
                }
                return fail(m, Some(fault), steps_executed);
            }
            steps_executed += 1;
        }
    }

    // The final faulting step.
    let replay_fault = if matches!(dump.fault, Fault::Deadlock { .. }) {
        // Drive the faulting thread into its blocking lock, then let the
        // machine detect the global deadlock.
        let _ = m.step_thread(dump.faulting_tid);
        match m.run() {
            mvm_machine::Outcome::Faulted { fault, .. } => Some(fault),
            _ => None,
        }
    } else {
        m.step_thread(dump.faulting_tid).err()
    };
    steps_executed += 1;

    let fault_matches = match &replay_fault {
        // Deadlock participant sets may be enumerated in any order.
        Some(Fault::Deadlock { .. }) => matches!(dump.fault, Fault::Deadlock { .. }),
        Some(fault) => *fault == dump.fault,
        None => false,
    };
    let diff = end_diff(&m, dump, DIFF_LIMIT);
    let state_matches = diff.memory_bytes.is_empty()
        && diff.pcs.is_empty()
        && diff.registers.is_empty()
        && diff.thread_set.is_empty();
    if let Some(obs) = observer.filter(|obs| obs.expected.is_some()) {
        if !fault_matches {
            let kind = DivergenceKind::Fault {
                expected: dump.fault.clone(),
                got: replay_fault.clone(),
            };
            obs.diverge(schedule.len(), dump.faulting_tid, kind);
        } else if !state_matches {
            let kind = DivergenceKind::FinalState {
                memory_bytes: diff.memory_bytes.len(),
                registers: diff.registers.len(),
                pcs: diff.pcs.len(),
                threads: diff.thread_set.len(),
            };
            obs.diverge(schedule.len(), dump.faulting_tid, kind);
        }
    }
    let report = ReplayReport {
        reproduced: fault_matches && state_matches,
        fault_matches,
        diff,
        replay_fault,
        steps_executed,
    };
    (report, m)
}

/// One block-granular schedule event as concretely executed: where the
/// range started and ended, how many instructions ran, and every memory
/// write it performed `(addr, width, value)`, in program order.
///
/// A recorded trace stores one of these per schedule event; `verify`
/// replays against a (possibly modified) program and compares the
/// re-observed events against the recorded ones, reporting the point of
/// first difference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedEvent {
    /// Executing thread.
    pub tid: ThreadId,
    /// Pc at range start.
    pub start: Loc,
    /// Pc after the range.
    pub end: Loc,
    /// Instructions executed in the range.
    pub steps: u64,
    /// Memory writes performed, in order.
    pub writes: Vec<(u64, Width, u64)>,
}

json_struct!(ObservedEvent {
    tid,
    start,
    end,
    steps,
    writes
});

/// The point of first difference between a recorded execution and a
/// replay of it (typically against a modified program — the "did the
/// fix work?" verdict).
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index of the diverging schedule event. The final faulting step
    /// and the end-state comparison report as index `schedule.len()`.
    pub event: usize,
    /// The thread executing the diverging event.
    pub tid: ThreadId,
    /// What differed.
    pub kind: DivergenceKind,
}

json_struct!(Divergence { event, tid, kind });

/// What the replay did differently from the recording.
#[derive(Debug, Clone, PartialEq)]
pub enum DivergenceKind {
    /// The thread was at a different pc when the event began.
    StartLoc {
        /// Recorded start pc.
        expected: Loc,
        /// Replayed start pc.
        got: Loc,
    },
    /// The thread faulted before completing its scheduled instructions.
    PrematureFault {
        /// Instructions the recording executed in this event.
        expected_steps: u64,
        /// Instructions the replay completed before faulting.
        executed: u64,
        /// The fault hit.
        fault: Fault,
    },
    /// The event's nth memory write differed (or one side stopped
    /// writing). `None` means "no write at this index".
    Write {
        /// Index into the event's write sequence.
        index: usize,
        /// Recorded write, if any.
        expected: Option<(u64, Width, u64)>,
        /// Replayed write, if any.
        got: Option<(u64, Width, u64)>,
    },
    /// The thread ended the range at a different pc (control flow
    /// diverged without a differing write).
    EndLoc {
        /// Recorded end pc.
        expected: Loc,
        /// Replayed end pc.
        got: Loc,
    },
    /// The final step did not reproduce the recorded fault. `got:
    /// None` means the replay ran past the failure point — the
    /// recorded failure no longer happens (the fix worked).
    Fault {
        /// The recorded fault.
        expected: Fault,
        /// The fault the replay hit, if any.
        got: Option<Fault>,
    },
    /// The fault reproduced but the end state differs from the dump
    /// (counts from [`DumpDiff`]).
    FinalState {
        /// Differing memory bytes.
        memory_bytes: usize,
        /// Differing registers.
        registers: usize,
        /// Differing thread pcs.
        pcs: usize,
        /// Thread-set differences.
        threads: usize,
    },
}

json_enum!(DivergenceKind {
    StartLoc { expected: Loc, got: Loc },
    PrematureFault { expected_steps: u64, executed: u64, fault: Fault },
    Write {
        index: usize,
        expected: Option<(u64, Width, u64)>,
        got: Option<(u64, Width, u64)>
    },
    EndLoc { expected: Loc, got: Loc },
    Fault { expected: Fault, got: Option<Fault> },
    FinalState {
        memory_bytes: usize,
        registers: usize,
        pcs: usize,
        threads: usize
    },
});

fn write_str(w: &Option<(u64, Width, u64)>) -> String {
    match w {
        Some((addr, width, value)) => format!("[{addr:#x}] <- {value} ({width:?})"),
        None => "no write".to_string(),
    }
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceKind::StartLoc { expected, got } => {
                write!(f, "start pc mismatch: expected {expected}, got {got}")
            }
            DivergenceKind::PrematureFault {
                expected_steps,
                executed,
                fault,
            } => write!(
                f,
                "faulted after {executed}/{expected_steps} instructions: {fault:?}"
            ),
            DivergenceKind::Write {
                index,
                expected,
                got,
            } => write!(
                f,
                "write #{index}: expected {}, got {}",
                write_str(expected),
                write_str(got)
            ),
            DivergenceKind::EndLoc { expected, got } => {
                write!(f, "end pc mismatch: expected {expected}, got {got}")
            }
            DivergenceKind::Fault { expected, got } => match got {
                Some(g) => write!(f, "fault mismatch: expected {expected:?}, got {g:?}"),
                None => write!(
                    f,
                    "expected fault {expected:?} did not occur (execution continues)"
                ),
            },
            DivergenceKind::FinalState {
                memory_bytes,
                registers,
                pcs,
                threads,
            } => write!(
                f,
                "end state differs from dump: {memory_bytes} memory bytes, \
                 {registers} registers, {pcs} pcs, {threads} thread-set entries"
            ),
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event {} (thread {}): {}",
            self.event, self.tid, self.kind
        )
    }
}

/// Replays a suffix while observing each schedule event ([`ObservedEvent`]
/// per event, with the concrete writes it performed).
///
/// Without `expected` this is plain recording: the returned events are
/// what a byte-identical replay executes. With `expected` (the events a
/// previous recording captured) the replay stops at the first event
/// that deviates — different start pc, premature fault, differing
/// write, different end pc, missing or different final fault, or a
/// final-state mismatch — and reports it as a [`Divergence`]. A
/// premature fault is reported as a divergence either way.
///
/// It runs the same loop as [`replay_suffix`], so its report is the
/// one a plain replay gives, and an unmodified program re-observes
/// exactly what it recorded.
pub fn replay_observed(
    program: &Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
    expected: Option<&[ObservedEvent]>,
) -> (ReplayReport, Vec<ObservedEvent>, Option<Divergence>) {
    let mut observer = Observer {
        expected,
        events: Vec::new(),
        divergence: None,
        at: None,
    };
    let (report, _) = drive(
        program,
        dump,
        suffix,
        TraceLevel::Full,
        Some(&mut observer),
        diff_machine,
    );
    (report, observer.events, observer.divergence)
}

/// What `record` and `verify` watch a replay with: the events seen so
/// far, compared against `expected` when there is one.
struct Observer<'a> {
    expected: Option<&'a [ObservedEvent]>,
    events: Vec<ObservedEvent>,
    divergence: Option<Divergence>,
    /// The running event's start pc and the length of the machine's
    /// trace when it started.
    at: Option<(Loc, usize)>,
}

impl Observer<'_> {
    /// Event `i` of thread `tid` is about to run: returns `false` when
    /// the recording started it elsewhere.
    fn begin(&mut self, i: usize, tid: ThreadId, m: &Machine<'_>) -> bool {
        let start = m.threads()[&tid].pc();
        self.at = Some((start, m.tracer().events().len()));
        match self.expected.and_then(|e| e.get(i)) {
            Some(e) if e.start != start => {
                let kind = DivergenceKind::StartLoc {
                    expected: e.start,
                    got: start,
                };
                self.diverge(i, tid, kind);
                false
            }
            _ => true,
        }
    }

    /// Event `i` ran `executed` of its `n` instructions, stopping early
    /// at `fault` if one hit: records it and returns `false` when it
    /// diverged.
    fn end(
        &mut self,
        i: usize,
        tid: ThreadId,
        n: u64,
        executed: u64,
        fault: Option<&Fault>,
        m: &Machine<'_>,
    ) -> bool {
        let (start, mark) = self.at.take().expect("a begun event");
        let writes: Vec<(u64, Width, u64)> = m.tracer().events()[mark..]
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Mem {
                    kind: AccessKind::Write,
                    addr,
                    value,
                    width,
                    ..
                } => Some((*addr, *width, *value)),
                _ => None,
            })
            .collect();
        let end = m.threads()[&tid].pc();
        let expected = self.expected.and_then(|e| e.get(i));
        let kind = match (fault, expected) {
            (Some(fault), _) => Some(DivergenceKind::PrematureFault {
                expected_steps: n,
                executed,
                fault: fault.clone(),
            }),
            (None, Some(e)) if writes != e.writes => {
                let index = writes
                    .iter()
                    .zip(&e.writes)
                    .position(|(a, b)| a != b)
                    .unwrap_or(writes.len().min(e.writes.len()));
                Some(DivergenceKind::Write {
                    index,
                    expected: e.writes.get(index).copied(),
                    got: writes.get(index).copied(),
                })
            }
            (None, Some(e)) if end != e.end => Some(DivergenceKind::EndLoc {
                expected: e.end,
                got: end,
            }),
            _ => None,
        };
        self.events.push(ObservedEvent {
            tid,
            start,
            end,
            steps: executed,
            writes,
        });
        match kind {
            Some(kind) => {
                self.diverge(i, tid, kind);
                false
            }
            None => true,
        }
    }

    fn diverge(&mut self, event: usize, tid: ThreadId, kind: DivergenceKind) {
        self.divergence = Some(Divergence { event, tid, kind });
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use mvm_core::diff_dumps;
    use mvm_isa::Inst;
    use proptest_mini::{any_u64, check, prop_assert_eq, Config};
    use res_workloads::gen::{collect_failures, corpus_specs, generate, GenClass};

    use super::*;
    use crate::search::{ResConfig, ResEngine};

    /// The end-state comparison through a captured dump: capture the
    /// machine, then diff the two dumps. The property below holds every
    /// replay to it.
    fn captured_diff(m: &Machine<'_>, dump: &Coredump, mem_limit: usize) -> DumpDiff {
        diff_dumps(&Coredump::capture_anyway(m), dump, mem_limit)
    }

    /// Copies of `suffix` that a replay should not reproduce, each
    /// named, seeded by `pick`: one initial cell with a bit flipped,
    /// ten words at the dump's first page written (more differing
    /// bytes than a report lists), one initial register changed, one
    /// input dropped, the schedule one step short, and a thread that
    /// starts right after a `spawn` started at it (the replay spawns a
    /// thread the dump lacks).
    fn mutants(
        program: &Program,
        suffix: &ExecutionSuffix,
        dump: &Coredump,
        pick: u64,
    ) -> Vec<(&'static str, ExecutionSuffix)> {
        let mut out = Vec::new();
        let at = |len: usize| (pick % len.max(1) as u64) as usize;
        if !suffix.initial_cells.is_empty() {
            let mut s = suffix.clone();
            let cell = &mut s.initial_cells[at(suffix.initial_cells.len())];
            cell.2 ^= 1 << (pick % (8 * cell.1.bytes()));
            out.push(("flipped cell", s));
        }
        let mut s = suffix.clone();
        let base = dump.memory.iter_pages().next().map_or(0, |(b, _)| b);
        for i in 0..10 {
            s.initial_cells.push((base + 8 * i, Width::W8, !pick));
        }
        out.push(("flooded cells", s));
        let mut s = suffix.clone();
        let n = s.initial_regs.len();
        if let Some((_, regs)) = s.initial_regs.values_mut().nth(at(n)) {
            let r = at(regs.len());
            regs[r] = regs[r].wrapping_add(1 + pick % 1024);
            out.push(("changed register", s));
        }
        let mut s = suffix.clone();
        let n = s.inputs.len();
        if let Some(vals) = s.inputs.values_mut().nth(at(n)).filter(|v| !v.is_empty()) {
            vals.remove(at(vals.len()));
            out.push(("dropped input", s));
        }
        let mut s = suffix.clone();
        if let Some(last) = s.steps.last_mut().filter(|step| step.steps > 0) {
            last.steps -= 1;
            out.push(("short schedule", s));
        }
        let mut s = suffix.clone();
        let after_spawn = |loc: Loc| {
            let before = (loc.inst as usize).checked_sub(1);
            let insts = &program.block_at(loc).insts;
            before
                .and_then(|i| insts.get(i))
                .is_some_and(|i| matches!(i, Inst::Spawn { .. }))
        };
        let respawn = s
            .start_positions
            .iter()
            .find_map(|(&tid, &(_, loc))| after_spawn(loc).then_some(tid));
        if let Some(tid) = respawn {
            if let Some(step) = s.steps.iter_mut().find(|step| step.tid == tid) {
                step.steps += 1;
                s.start_positions.get_mut(&tid).expect("started").1.inst -= 1;
                out.push(("respawned", s));
            }
        }
        out
    }

    /// Which parts of a [`DumpDiff`] the compared replays exercised.
    #[derive(Debug, Default)]
    struct Seen {
        reports: usize,
        memory_bytes: usize,
        memory_capped: usize,
        registers: usize,
        pcs: usize,
        thread_set: usize,
        fault_differs: usize,
    }

    impl Seen {
        fn note(&mut self, d: &DumpDiff) {
            self.reports += 1;
            self.memory_bytes += usize::from(!d.memory_bytes.is_empty());
            self.memory_capped += usize::from(d.memory_bytes.len() == DIFF_LIMIT);
            self.registers += usize::from(!d.registers.is_empty());
            self.pcs += usize::from(!d.pcs.is_empty());
            self.thread_set += usize::from(!d.thread_set.is_empty());
            self.fault_differs += usize::from(d.fault_differs);
        }
    }

    /// A replay that compares its end state in place reports exactly
    /// what the capture-then-diff reference reports, field by field, on
    /// every suffix of generated populations (every class, two dumps
    /// per program) and on mutants of each. Reproduce a failure with
    /// `RES_PROP_SEED=<seed>`.
    #[test]
    fn in_place_end_state_matches_the_reference() {
        let seen = RefCell::new(Seen::default());
        let cfg = Config {
            cases: 8,
            max_shrink_steps: 0,
            ..Config::new()
        };
        check(
            "in_place_end_state_matches_the_reference",
            &cfg,
            &any_u64(),
            |&seed| {
                for spec in corpus_specs(&GenClass::ALL, GenClass::ALL.len(), seed, 1) {
                    let gp = generate(spec);
                    let program = &gp.program;
                    let engine = ResEngine::new(program, ResConfig::default());
                    for failure in collect_failures(&gp, 2) {
                        let dump = &failure.dump;
                        for suffix in engine.synthesize(dump).suffixes {
                            let mut cases = mutants(program, &suffix, dump, seed);
                            cases.push(("synthesized", suffix));
                            for (name, suffix) in &cases {
                                let got = replay_suffix(program, dump, suffix);
                                let want = drive(
                                    program,
                                    dump,
                                    suffix,
                                    TraceLevel::Off,
                                    None,
                                    captured_diff,
                                )
                                .0;
                                let at = format!("{name} suffix, {:?} #{}", spec.class, spec.seed);
                                prop_assert_eq!((&got.diff, &at), (&want.diff, &at));
                                prop_assert_eq!(
                                    (got.reproduced, got.fault_matches, &at),
                                    (want.reproduced, want.fault_matches, &at)
                                );
                                prop_assert_eq!(
                                    (&got.replay_fault, got.steps_executed, &at),
                                    (&want.replay_fault, want.steps_executed, &at)
                                );
                                seen.borrow_mut().note(&want.diff);
                            }
                        }
                    }
                }
                Ok(())
            },
        );
        let seen = seen.into_inner();
        println!("{seen:?}");
        assert!(
            seen.memory_bytes > 0
                && seen.memory_capped > 0
                && seen.registers > 0
                && seen.pcs > 0
                && seen.thread_set > 0
                && seen.fault_differs > 0,
            "the replays left a part of the end-state diff unexercised: {seen:?}"
        );
    }
}
