//! Seeded input populations, built with `res-workloads::gen`. The
//! engine only ever sees the generated programs and dumps; the seed
//! stays here.

use mvm_core::Coredump;
use mvm_isa::Program;
use mvm_prng::SplitMix64;
use res_workloads::gen::{
    collect_failures, corpus_specs, generate, GenClass, GenFailure, GeneratedProgram,
};

/// `programs` generated programs over `classes` (round-robin), each
/// with its first `dumps(class)` labeled failures.
pub fn generate_population(
    classes: &[GenClass],
    programs: usize,
    dumps: impl Fn(GenClass) -> usize,
    seed: u64,
) -> Vec<(GeneratedProgram, Vec<GenFailure>)> {
    corpus_specs(classes, programs, seed, 1)
        .into_iter()
        .map(|spec| {
            let gp = generate(spec);
            let failures = collect_failures(&gp, dumps(spec.class));
            (gp, failures)
        })
        .collect()
}

/// Classes whose dumps record a hang: triage answers them from the
/// blocked-site set without any search.
pub fn hangs(class: GenClass) -> bool {
    matches!(class, GenClass::Deadlock | GenClass::LockInversion)
}

/// Programs in the `triage` population: six per class, so the latency
/// distribution has enough distinct levels for a steady median (at
/// three per class the median moved by a fifth between seeds).
pub const TRIAGE_PROGRAMS: usize = 6 * GenClass::ALL.len();

/// The E5c-shaped population the `triage` and `deep` workloads share:
/// every class round-robin, three dumps per program. A hang program
/// contributes one dump: hangs are answered without a search, so one
/// per program is enough for the deadlock-key check.
pub fn triage_population(seed: u64) -> Vec<(Program, Coredump)> {
    let dumps = |c| if hangs(c) { 1 } else { 3 };
    generate_population(&GenClass::ALL, TRIAGE_PROGRAMS, dumps, seed)
        .into_iter()
        .flat_map(|(gp, failures)| {
            let program = gp.program;
            failures.into_iter().map(move |f| (program.clone(), f.dump))
        })
        .collect()
}

/// A deterministic shuffle of `0..n` (Fisher–Yates over SplitMix64).
pub fn seeded_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (SplitMix64::mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
