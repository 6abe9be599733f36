//! Quickstart: crash a program, synthesize the suffix, replay it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use res_debugger::prelude::*;

fn main() {
    // A program with a latent division-by-zero: a quota counter is
    // drained to zero and then used as a divisor.
    let program = assemble(
        r#"
        global quota 8 = 3
        func main() {
        entry:
            addr r0, quota
            load r1, [r0]
            sub r1, r1, 3
            store r1, [r0]
            jmp serve
        serve:
            load r2, [r0]
            divu r3, 1000, r2
            halt
        }
        "#,
    )
    .expect("program assembles");

    // Production: the program runs and dies. The only artifact is the
    // coredump — no recording, no logs, no instrumentation.
    let mut machine = Machine::new(&program, MachineConfig::default());
    let outcome = machine.run();
    println!("production outcome: {outcome:?}");
    let dump = Coredump::capture(&machine);
    println!(
        "coredump: fault `{}` at {}, {} page(s) of memory",
        dump.fault,
        dump.fault_pc(),
        dump.memory.page_count()
    );

    // Post-mortem: reverse execution synthesis.
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize(&dump);
    println!(
        "synthesis: {:?}, {} suffix(es), {} hypotheses tested",
        result.verdict,
        result.suffixes.len(),
        result.stats.hypotheses
    );
    let suffix = &result.suffixes[0];
    println!(
        "suffix: {} block-steps, {} instructions, inferred inputs: {:?}",
        suffix.len(),
        suffix.total_steps(),
        suffix.inputs
    );

    // The developer replays the suffix — deterministically — as many
    // times as they like.
    for i in 0..3 {
        let replay = replay_suffix(&program, &dump, suffix);
        println!(
            "replay #{i}: reproduced={} fault={:?}",
            replay.reproduced, replay.replay_fault
        );
        assert!(replay.reproduced);
    }

    // And asks for the root cause.
    let rc = analyze_root_cause(&program, &dump, suffix);
    println!("root cause: {rc:?}");
    println!("bucket key: {}", rc.bucket_key());
}
