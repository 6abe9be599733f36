//! The backward search's heap allocations per call, gated.
//!
//! Timings cannot be gated on a shared host, but allocation counts can:
//! the search is deterministic, so a `synthesize` call makes the same
//! allocations every run. A search step should copy only what it
//! changes (DESIGN §4, "What a child shares"), and a change that brings
//! back a per-step copy shows here as a count over its budget.
//!
//! The cases are the `search` bench group's (`benches/experiments.rs`
//! in `res-bench`, which prints the same counts): one seed-23 program
//! per generator class, its first genuine dump, `synthesize` on a fresh
//! engine at the default config and at `max_depth(48)`. Each budget is
//! the mean count per call in this test's profile (`cargo test`'s debug
//! profile) when shared models, copy-free propagation rounds and
//! hypothesis attempts, copy-on-write thread stacks, one constraint
//! list per child and shared small constants landed, plus 5%.

#[path = "../crates/bench/src/alloc_count.rs"]
mod alloc_count;

use alloc_count::{count_allocations, CountingAlloc};
use res_debugger::prelude::*;
use res_debugger::workloads::gen::{collect_failures, corpus_specs, generate, GenClass};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Mean allocations per default-config call: 600 with the cuts, 1,001
/// before them.
const DEFAULT_BUDGET: u64 = 630;

/// Mean allocations per `max_depth(48)` call: 3,152 with the cuts,
/// 5,820 before them.
const DEPTH48_BUDGET: u64 = 3309;

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

fn assert_within(shape: &str, config: ResConfig, budget: u64) {
    let counts = allocations_per_case(&config);
    let mean = counts.iter().sum::<u64>() / counts.len() as u64;
    println!("{shape}: {mean} allocations per call, per case {counts:?}");
    assert!(
        mean <= budget,
        "{shape}: {mean} allocations per call, over the budget of {budget} (per case {counts:?})"
    );
}

#[test]
fn default_searches_stay_within_their_allocation_budget() {
    assert_within("default", ResConfig::default(), DEFAULT_BUDGET);
}

#[test]
fn depth48_searches_stay_within_their_allocation_budget() {
    let config = ResConfig::builder().max_depth(48).build();
    assert_within("depth48", config, DEPTH48_BUDGET);
}
