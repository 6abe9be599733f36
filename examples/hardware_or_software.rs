//! Is this crash a software bug or a flipped DRAM bit? (paper §3.2)
//!
//! Captures a genuine software-bug coredump, then manufactures a
//! hardware-corrupted variant of it (one flipped memory bit, one
//! corrupted register) and shows RES telling the three apart — and
//! localizing the corruption.
//!
//! ```text
//! cargo run --release --example hardware_or_software
//! ```

use res_debugger::coredump::{corrupt_register_at, flip_memory_bit_at};
use res_debugger::prelude::*;

fn main() {
    let program = assemble(
        r#"
        global sensor 8
        func main() {
        entry:
            addr r0, sensor
            store 4, [r0]
            jmp check
        check:
            load r1, [r0]
            eq r2, r1, 0
            assert r2, "sensor reading must be zero"
            halt
        }
        "#,
    )
    .expect("program assembles");

    let mut machine = Machine::new(&program, MachineConfig::default());
    machine.run();
    let genuine = Coredump::capture(&machine);
    let config = ResConfig::default();

    // 1. The genuine dump: a software bug (the program really does
    //    store 4 and then assert it is 0).
    let verdict = hardware_verdict(&program, &genuine, &config);
    println!("genuine dump        → {verdict:?}");
    assert_eq!(verdict, HwVerdict::SoftwareBug);

    // 2. A DRAM bit flip: the dump says `sensor == 5`, but every
    //    feasible execution writes 4 — the paper's memory-error example.
    let mut flipped = genuine.clone();
    let g = res_debugger::isa::layout::GLOBAL_BASE;
    flip_memory_bit_at(&mut flipped, g, 0);
    let verdict = hardware_verdict(&program, &flipped, &config);
    println!("bit-flipped dump    → {verdict:?}");
    assert!(matches!(
        verdict,
        HwVerdict::HardwareSuspected {
            kind: res_debugger::res::hwerr::HwKind::MemoryError { .. },
            ..
        }
    ));

    // 3. A CPU datapath error: the register holding the comparison
    //    result disagrees with every feasible computation — the paper's
    //    miscomputed-addition example.
    let mut miscomputed = genuine.clone();
    corrupt_register_at(&mut miscomputed, 0, res_debugger::isa::Reg(1), 0xbad0);
    let verdict = hardware_verdict(&program, &miscomputed, &config);
    println!("corrupted-reg dump  → {verdict:?}");
    assert!(matches!(
        verdict,
        HwVerdict::HardwareSuspected {
            kind: res_debugger::res::hwerr::HwKind::CpuError { .. },
            ..
        }
    ));

    println!("\nall three dumps classified correctly");
}
