//! Post-mortem debugging of a concurrency bug (paper §4 + §3.3).
//!
//! A worker thread races with the main thread on a shared flag; the
//! failure only manifests under some schedules. RES reconstructs the
//! interleaving from the coredump alone, identifies the racing write,
//! and answers the §3.3 debugging queries.
//!
//! ```text
//! cargo run --release --example race_detective
//! ```

use res_debugger::prelude::*;
use res_debugger::res::debugaid;

fn main() {
    let program = build_workload(BugKind::DataRace, WorkloadParams::default());

    // Hunt for a schedule under which the race manifests (in production
    // this is the one-in-a-thousand failing run).
    let machine = (0..500)
        .find_map(|seed| res_debugger::workloads::run_to_failure(&program, seed))
        .expect("the race manifests under some schedule");
    let dump = Coredump::capture(&machine);
    println!(
        "production failure: `{}` in thread {} after {} steps",
        dump.fault, dump.faulting_tid, dump.steps
    );

    // Synthesize and pick a replay-verified suffix that explains it.
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize(&dump);
    println!(
        "synthesis: {} suffixes from {} hypotheses",
        result.suffixes.len(),
        result.stats.hypotheses
    );
    let mut diagnosis = None;
    for suffix in &result.suffixes {
        let (report, rc) = replay_and_diagnose(&program, &dump, suffix);
        if !report.reproduced {
            continue;
        }
        if rc.is_concurrency() {
            diagnosis = Some((suffix, rc));
            break;
        }
    }
    let (suffix, rc) = diagnosis.expect("a reproducing suffix exposes the race");
    println!("root cause: {rc:?}");

    // §3.3 debugging aids: what did the failing window actually touch?
    let (reads, writes) = debugaid::focus_report(suffix);
    println!("\nfocus report (the window's working set):");
    for e in &reads {
        println!("  read  {:#x} ({})", e.addr, e.region);
    }
    for e in &writes {
        println!("  write {:#x} ({})", e.addr, e.region);
    }

    // "Was the main thread preempted between its accesses to the
    // counter?" — the paper's example hypothesis query.
    if let RootCause::DataRace {
        addr, other_tid, ..
    } = &rc
    {
        let preempted = debugaid::was_preempted_between_accesses(suffix, *other_tid, *addr);
        println!(
            "\nwas thread {} preempted between accesses to {:#x}? {}",
            other_tid, addr, preempted
        );
    }

    // The schedule that reproduces the bug, for the debugger session.
    println!("\nreplayable schedule (tid, instructions):");
    for (tid, n) in suffix.schedule() {
        println!("  thread {tid}: {n} steps");
    }
}
