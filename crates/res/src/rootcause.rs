//! Root-cause extraction from a synthesized suffix (paper §3.1).
//!
//! The suffix is replayed with full tracing; the trace — which covers
//! exactly the window the paper argues contains the root cause — is
//! scanned by per-bug-class analyzers: lockset-based data-race
//! detection, read/intruder-write/use atomicity-violation patterns,
//! free-then-touch use-after-free chains, overflow attribution, and
//! semantic-assertion diagnosis. The resulting [`RootCause`] carries a
//! *bucket key* that is stable across failure sites — the property that
//! lets RES triage reports by cause rather than by call stack.

use std::collections::{HashMap, HashSet};

use mvm_core::Coredump;
use mvm_isa::{Loc, Program};
use mvm_machine::{AccessKind, Fault, Machine, ThreadId, TraceEvent, TraceLevel};

use crate::replay::{replay_with_trace, ReplayReport};
use crate::suffix::ExecutionSuffix;

/// The diagnosed root cause of a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootCause {
    /// Two threads accessed `addr` without a common lock, at least one
    /// writing.
    DataRace {
        /// The contended address.
        addr: u64,
        /// The racing writer.
        writer_tid: ThreadId,
        /// The racing write site.
        write_loc: Loc,
        /// The other access's thread.
        other_tid: ThreadId,
        /// The other access site.
        other_loc: Loc,
    },
    /// A read/use pair of one thread was split by another thread's
    /// write.
    AtomicityViolation {
        /// The shared address.
        addr: u64,
        /// The interrupted thread.
        victim_tid: ThreadId,
        /// The victim's first access site.
        read_loc: Loc,
        /// The intruding thread.
        intruder_tid: ThreadId,
        /// The intruding write site.
        write_loc: Loc,
    },
    /// An out-of-bounds access.
    BufferOverflow {
        /// Faulting address.
        addr: u64,
        /// The overflowing access site.
        access_loc: Loc,
        /// `true` if the suffix consumed attacker-controlled input
        /// (exploitability signal, §3.1).
        attacker_tainted: bool,
    },
    /// A touch of freed memory; the free is inside the suffix.
    UseAfterFree {
        /// Faulting address.
        addr: u64,
        /// The freeing site (if the free is inside the window).
        free_loc: Option<Loc>,
        /// The faulting access site.
        access_loc: Loc,
    },
    /// A block freed twice.
    DoubleFree {
        /// The first free's site, if in the window.
        first_free_loc: Option<Loc>,
        /// The faulting (second) free site.
        second_free_loc: Loc,
    },
    /// An assertion failed for a non-concurrency reason.
    SemanticBug {
        /// The assertion message.
        msg: String,
        /// The assertion site.
        assert_loc: Loc,
    },
    /// Threads blocked on each other's mutexes.
    Deadlock {
        /// The mutexes in the cycle, ascending.
        mutexes: Vec<u64>,
    },
    /// Division by zero.
    DivByZero {
        /// The division site.
        loc: Loc,
    },
    /// A consumer used a shared location before its producer (another
    /// thread whose pending code writes it) initialized it.
    OrderViolation {
        /// The shared address read too early.
        addr: u64,
        /// The consuming (faulting) thread.
        victim_tid: ThreadId,
        /// The thread whose pending write never arrived.
        pending_tid: ThreadId,
        /// The premature use site.
        use_loc: Loc,
    },
    /// No analyzer matched.
    Unknown,
}

impl RootCause {
    /// A stable triaging key: identical for failures with the same root
    /// cause, regardless of where the failure manifested (the paper's
    /// answer to WER's call-stack buckets, §3.1).
    pub fn bucket_key(&self) -> String {
        match self {
            RootCause::DataRace {
                write_loc,
                other_loc,
                ..
            } => {
                // Order-normalize the two sites so either manifestation
                // buckets identically.
                let (a, b) = if write_loc <= other_loc {
                    (write_loc, other_loc)
                } else {
                    (other_loc, write_loc)
                };
                format!("race:{a}:{b}")
            }
            RootCause::AtomicityViolation {
                read_loc,
                write_loc,
                ..
            } => {
                format!("av:{read_loc}:{write_loc}")
            }
            RootCause::BufferOverflow { access_loc, .. } => format!("overflow:{access_loc}"),
            RootCause::UseAfterFree {
                free_loc,
                access_loc,
                ..
            } => match free_loc {
                Some(f) => format!("uaf:{f}"),
                None => format!("uaf:?:{access_loc}"),
            },
            RootCause::DoubleFree {
                first_free_loc,
                second_free_loc,
            } => match first_free_loc {
                Some(f) => format!("dfree:{f}:{second_free_loc}"),
                None => format!("dfree:?:{second_free_loc}"),
            },
            RootCause::SemanticBug { msg, assert_loc } => format!("assert:{assert_loc}:{msg}"),
            RootCause::Deadlock { mutexes } => {
                let parts: Vec<String> = mutexes.iter().map(|m| format!("{m:#x}")).collect();
                format!("deadlock:{}", parts.join(","))
            }
            RootCause::DivByZero { loc } => format!("divzero:{loc}"),
            RootCause::OrderViolation { addr, use_loc, .. } => {
                format!("order:{use_loc}:{addr:#x}")
            }
            RootCause::Unknown => "unknown".to_string(),
        }
    }

    /// `true` for concurrency root causes.
    pub fn is_concurrency(&self) -> bool {
        matches!(
            self,
            RootCause::DataRace { .. }
                | RootCause::AtomicityViolation { .. }
                | RootCause::Deadlock { .. }
                | RootCause::OrderViolation { .. }
        )
    }
}

/// Replays a suffix once, with full tracing, and runs the per-class
/// analyzers against the observed window: the report says whether the
/// suffix reproduced the failure, the root cause is read off the same
/// replay. Callers that need both pay for one replay.
pub fn replay_and_diagnose(
    program: &Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
) -> (ReplayReport, RootCause) {
    let (report, machine) = replay_with_trace(program, dump, suffix, TraceLevel::Full);
    let rc = diagnose(program, dump, suffix, &machine);
    (report, rc)
}

/// Analyzes a synthesized suffix: the root cause half of
/// [`replay_and_diagnose`].
pub fn analyze_root_cause(
    program: &Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
) -> RootCause {
    replay_and_diagnose(program, dump, suffix).1
}

/// The per-class analyzers over a traced replay's machine.
fn diagnose(
    program: &Program,
    dump: &Coredump,
    suffix: &ExecutionSuffix,
    machine: &Machine,
) -> RootCause {
    let events = machine.tracer().events();
    let fault_pc = dump.fault_pc();

    match &dump.fault {
        Fault::Deadlock { threads } => {
            let mut mutexes: Vec<u64> = threads
                .iter()
                .filter_map(|t| match dump.thread(*t).map(|x| x.status) {
                    Some(mvm_machine::ThreadStatus::BlockedOnLock(m)) => Some(m),
                    _ => None,
                })
                .collect();
            // The faulting thread blocks at replay time; its mutex comes
            // from the machine.
            if let Some(mvm_machine::ThreadStatus::BlockedOnLock(m)) =
                machine.threads().get(&dump.faulting_tid).map(|t| t.status)
            {
                mutexes.push(m);
            }
            mutexes.sort_unstable();
            mutexes.dedup();
            return RootCause::Deadlock { mutexes };
        }
        Fault::AssertFailed { msg } => {
            // A failed assertion over shared state is usually a
            // concurrency symptom: look for a race on the asserted data.
            if let Some(rc) = find_race(events, dump) {
                return rc;
            }
            return RootCause::SemanticBug {
                msg: msg.clone(),
                assert_loc: fault_pc,
            };
        }
        Fault::UseAfterFree { addr, base, .. } => {
            let free_loc = events.iter().find_map(|e| match e {
                TraceEvent::Free { loc, base: b, .. } if b == base => Some(*loc),
                _ => None,
            });
            return RootCause::UseAfterFree {
                addr: *addr,
                free_loc,
                access_loc: fault_pc,
            };
        }
        Fault::DoubleFree { base } => {
            let first_free_loc = events.iter().find_map(|e| match e {
                TraceEvent::Free { loc, base: b, .. } if b == base => Some(*loc),
                _ => None,
            });
            return RootCause::DoubleFree {
                first_free_loc,
                second_free_loc: fault_pc,
            };
        }
        Fault::HeapOverflow { addr, .. } | Fault::InvalidAccess { addr, .. } => {
            // Concurrency can also produce wild accesses (e.g. a racing
            // null/pointer overwrite); prefer the race explanation when
            // present.
            if let Some(rc) = find_race(events, dump) {
                return rc;
            }
            return RootCause::BufferOverflow {
                addr: *addr,
                access_loc: fault_pc,
                attacker_tainted: suffix.consumes_attacker_input(),
            };
        }
        Fault::DivByZero => {
            if let Some(rc) = find_race(events, dump) {
                return rc;
            }
            if let Some(rc) = find_order_violation(program, dump, events) {
                return rc;
            }
            return RootCause::DivByZero { loc: fault_pc };
        }
        _ => {}
    }
    RootCause::Unknown
}

/// Order-violation detection: the faulting thread's last read hit a
/// shared location that another live thread's *pending* code (from its
/// dump position onward, statically) writes — the producer had not run
/// yet.
fn find_order_violation(
    program: &Program,
    dump: &Coredump,
    events: &[TraceEvent],
) -> Option<RootCause> {
    let victim = dump.faulting_tid;
    // Last read by the faulting thread.
    let (use_loc, addr) = events.iter().rev().find_map(|e| match e {
        TraceEvent::Mem {
            tid,
            loc,
            kind: AccessKind::Read,
            addr,
            ..
        } if *tid == victim => Some((*loc, *addr)),
        _ => None,
    })?;
    // Does some other, non-halted thread still have a store to the
    // containing global ahead of it? (Static scan of its current
    // function: AddrOf-of-the-global plus any store.)
    let (_, global) = program.global_at(addr)?;
    for t in &dump.threads {
        if t.tid == victim || t.status == mvm_machine::ThreadStatus::Halted {
            continue;
        }
        let func = program.func(t.pc().func);
        let mut names_global = false;
        let mut stores = false;
        for b in &func.blocks {
            for i in &b.insts {
                match i {
                    mvm_isa::Inst::AddrOf { global: g, .. }
                        if program.global(*g).addr == global.addr =>
                    {
                        names_global = true;
                    }
                    mvm_isa::Inst::Store { .. } => stores = true,
                    _ => {}
                }
            }
        }
        // The spawn argument may also carry the address.
        let arg_is_global = t
            .frames
            .first()
            .is_some_and(|f| f.regs.first().is_some_and(|&r| r == global.addr));
        if stores && (names_global || arg_is_global) {
            return Some(RootCause::OrderViolation {
                addr,
                victim_tid: victim,
                pending_tid: t.tid,
                use_loc,
            });
        }
    }
    None
}

/// Lockset + interleaving analysis over the replay trace.
///
/// Finds (a) write/access pairs on the same address from different
/// threads with no common lock held — a data race — preferring the pair
/// nearest the failure, and (b) read ... intruder-write ... use patterns
/// — an atomicity violation. An AV is reported when the victim re-
/// accesses the address after the intruder's write; otherwise the bare
/// race is reported.
fn find_race(events: &[TraceEvent], dump: &Coredump) -> Option<RootCause> {
    let mut locks_held: HashMap<ThreadId, HashSet<u64>> = HashMap::new();
    // (tid, loc, kind, locks) per access, in order.
    let mut accesses: Vec<(ThreadId, Loc, AccessKind, u64, HashSet<u64>)> = Vec::new();
    for e in events {
        match e {
            TraceEvent::Sync {
                tid,
                mutex,
                acquire,
                ..
            } => {
                let set = locks_held.entry(*tid).or_default();
                if *acquire {
                    set.insert(*mutex);
                } else {
                    set.remove(mutex);
                }
            }
            TraceEvent::Mem {
                tid,
                loc,
                kind,
                addr,
                ..
            } => {
                let held = locks_held.get(tid).cloned().unwrap_or_default();
                accesses.push((*tid, *loc, *kind, *addr, held));
            }
            _ => {}
        }
    }
    // Atomicity violation: victim access A1(addr), intruder write W(addr),
    // victim access A2(addr), no common lock between victim and intruder.
    let mut best_av: Option<RootCause> = None;
    let mut best_race: Option<RootCause> = None;
    for (i, (t1, l1, _, addr, held1)) in accesses.iter().enumerate() {
        for (t2, l2, k2, addr2, held2) in accesses.iter().skip(i + 1) {
            if addr != addr2 || t1 == t2 {
                continue;
            }
            if held1.intersection(held2).next().is_some() {
                continue;
            }
            let one_writes = *k2 == AccessKind::Write || accesses[i].2 == AccessKind::Write;
            if !one_writes {
                continue;
            }
            // Race candidate; check for the victim re-access (AV).
            let intruder_writes = *k2 == AccessKind::Write;
            if intruder_writes {
                let reuse = accesses
                    .iter()
                    .skip(i + 1)
                    .find(|(t3, _, _, a3, _)| t3 == t1 && a3 == addr);
                if let Some((_, l3, _, _, _)) = reuse {
                    let _ = l3;
                    best_av = Some(RootCause::AtomicityViolation {
                        addr: *addr,
                        victim_tid: *t1,
                        read_loc: *l1,
                        intruder_tid: *t2,
                        write_loc: *l2,
                    });
                }
            }
            let (writer_tid, write_loc, other_tid, other_loc) = if intruder_writes {
                (*t2, *l2, *t1, *l1)
            } else {
                (*t1, *l1, *t2, *l2)
            };
            best_race = Some(RootCause::DataRace {
                addr: *addr,
                writer_tid,
                write_loc,
                other_tid,
                other_loc,
            });
        }
    }
    let _ = dump;
    best_av.or(best_race)
}
