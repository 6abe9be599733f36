//! The backward search's and a replay's heap allocations per call,
//! gated.
//!
//! Timings cannot be gated on a shared host, but allocation counts can:
//! the search and the replay are deterministic, so a call makes the
//! same allocations every run. A search step should copy only what it
//! changes (DESIGN §4, "What a child shares"), and a replay only the
//! dump's memory image it runs on (DESIGN, "Suffix artifact &
//! replay"); a change that brings back a per-step copy shows here as a
//! count over its budget.
//!
//! The cases are the `search` and `replay` bench groups'
//! (`benches/experiments.rs` in `res-bench`, which prints the same
//! counts): one seed-23 program per generator class, its first genuine
//! dump, `synthesize` on a fresh engine at the default config and at
//! `max_depth(48)`, and the replays of the default search's first
//! suffix. Each budget is the mean count per call in this test's
//! profile (`cargo test`'s debug profile) plus 5%, taken when the
//! change named at the budget landed.
//!
//! Absorbing a store into a session shares the store's decoded entries
//! instead of copying them, so its count is gated against the store's
//! size: it must not grow with the entries.

#[path = "../crates/bench/src/alloc_count.rs"]
mod alloc_count;

use alloc_count::{count_allocations, CountingAlloc};
use res_debugger::prelude::*;
use res_debugger::workloads::gen::{collect_failures, corpus_specs, generate, GenClass};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Mean allocations per default-config call: 574 since `finalize`
/// moves a leaf's steps and a hypothesis borrows its callee registers
/// and instructions, 600 before that; 600 since shared models,
/// copy-free propagation rounds and hypothesis attempts, copy-on-write
/// thread stacks, one constraint list per child and shared small
/// constants, 1,001 before them.
const DEFAULT_BUDGET: u64 = 603;

/// Mean allocations per `max_depth(48)` call: 3,064 since the moving
/// `finalize` and the borrowed callee registers and instructions, 3,152
/// before that; 3,152 since the step-copy cuts, 5,820 before them.
const DEPTH48_BUDGET: u64 = 3217;

/// Mean allocations per `replay_suffix` call: 12 since the machine
/// borrows its program, steps in place and compares its end state with
/// the dump in place, 137 before that.
const REPLAY_BUDGET: u64 = 13;

/// Mean allocations per `replay_and_diagnose` call (a traced replay and
/// the root-cause analyzers): 18 since the same change, 143 before it.
const DIAGNOSE_BUDGET: u64 = 19;

/// The `search` bench group's cases.
fn cases() -> Vec<(Program, Coredump)> {
    GenClass::ALL
        .into_iter()
        .map(|class| {
            let gp = generate(corpus_specs(&[class], 1, 23, 1)[0]);
            let dump = collect_failures(&gp, 1).remove(0).dump;
            (gp.program, dump)
        })
        .collect()
}

/// Allocations of one `synthesize` call per case, on a fresh engine,
/// counted after an uncounted pass (the first call on a thread builds
/// per-thread state, such as the shared small constants).
fn allocations_per_case(config: &ResConfig) -> Vec<u64> {
    let cases = cases();
    let call = |(program, dump): &(Program, Coredump)| {
        ResEngine::new(program, config.clone()).synthesize(dump)
    };
    cases.iter().for_each(|case| drop(call(case)));
    cases
        .iter()
        .map(|case| count_allocations(|| call(case)).1)
        .collect()
}

/// Allocations of one replay of each case's first default-config
/// suffix (cases without one are skipped), counted after an uncounted
/// pass.
fn replay_allocations_per_case<R>(
    replay: fn(&Program, &Coredump, &ExecutionSuffix) -> R,
) -> Vec<u64> {
    let cases: Vec<(Program, Coredump, ExecutionSuffix)> = cases()
        .into_iter()
        .filter_map(|(program, dump)| {
            let result = ResEngine::new(&program, ResConfig::default()).synthesize(&dump);
            let suffix = result.suffixes.into_iter().next()?;
            Some((program, dump, suffix))
        })
        .collect();
    cases.iter().for_each(|(p, d, s)| drop(replay(p, d, s)));
    cases
        .iter()
        .map(|(p, d, s)| count_allocations(|| replay(p, d, s)).1)
        .collect()
}

fn assert_mean_within(shape: &str, counts: Vec<u64>, budget: u64) {
    let mean = counts.iter().sum::<u64>() / counts.len() as u64;
    println!("{shape}: {mean} allocations per call, per case {counts:?}");
    assert!(
        mean <= budget,
        "{shape}: {mean} allocations per call, over the budget of {budget} (per case {counts:?})"
    );
}

#[test]
fn default_searches_stay_within_their_allocation_budget() {
    let counts = allocations_per_case(&ResConfig::default());
    assert_mean_within("default", counts, DEFAULT_BUDGET);
}

#[test]
fn depth48_searches_stay_within_their_allocation_budget() {
    let counts = allocations_per_case(&ResConfig::builder().max_depth(48).build());
    assert_mean_within("depth48", counts, DEPTH48_BUDGET);
}

#[test]
fn replays_stay_within_their_allocation_budget() {
    let counts = replay_allocations_per_case(replay_suffix);
    assert_mean_within("replay_suffix", counts, REPLAY_BUDGET);
}

#[test]
fn diagnosing_replays_stay_within_their_allocation_budget() {
    let counts = replay_allocations_per_case(replay_and_diagnose);
    assert_mean_within("replay_and_diagnose", counts, DIAGNOSE_BUDGET);
}

/// Allocations of absorbing a store of `n` entries, reopened from its
/// file, into a fresh session. Absorbing the file reopened once more
/// into that session adds no entry and allocates nothing.
fn absorb_allocations(n: u64) -> u64 {
    use res_debugger::symbolic::{
        CanonFp, PortableCache, PortableResult, PortableVerdict, SolverSession,
    };

    let dir = std::env::temp_dir().join(format!("res-alloc-absorb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the store directory");
    let path = dir.join(format!("{n}.resstore"));
    let _ = std::fs::remove_file(&path);
    let entries = (0..n)
        .map(|i| {
            let fp =
                CanonFp(u128::from(i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835));
            let verdict = PortableVerdict::Sat(vec![(0, i), (1, i + 1)]);
            (
                fp,
                PortableResult {
                    verdict,
                    assignments: i,
                },
            )
        })
        .collect();
    let mut store = SolverStore::open(&path, 7);
    store.merge(&PortableCache { entries });
    store.commit().expect("commit the store");
    let store = SolverStore::open(&path, 7);
    assert_eq!(store.len() as u64, n, "the store reopens with every entry");
    let session = SolverSession::new();
    let (new, allocations) = count_allocations(|| store.absorb_into(&session));
    assert_eq!(new as u64, n, "every entry is new to a fresh session");
    let reopened = SolverStore::open(&path, 7);
    let (again, reabsorb) = count_allocations(|| reopened.absorb_into(&session));
    assert_eq!((again, reabsorb), (0, 0), "a reopened store adds nothing");
    let _ = std::fs::remove_dir_all(&dir);
    println!("absorb of {n} entries: {allocations} allocations");
    allocations
}

#[test]
fn absorbing_a_store_allocates_alike_for_10_and_1000_entries() {
    assert_eq!(absorb_allocations(10), absorb_allocations(1000));
}
