//! The experiment harness: regenerates every table of the evaluation.
//!
//! ```text
//! cargo run --release -p res-bench --bin harness            # all
//! cargo run --release -p res-bench --bin harness -- e3 e5   # a subset
//! ```
//!
//! Independent experiments are sharded across worker threads
//! (`RES_HARNESS_THREADS`, default `auto_workers()`); output order and
//! every table stay identical at any thread count. Two groups opt out
//! of the fan-out and run sequentially afterwards: the timing-sensitive
//! experiments (E3, E8 — their shapes compare wall-clock measurements
//! that a loaded machine would skew) and the corpus-scale experiments
//! (E5c, E6c, E7c — they parallelize internally over generated programs
//! and share one solver-store directory).
//!
//! With `RES_TRACE=<dir>` set, the harness writes metrics artifacts
//! into `<dir>`: one `<id>.metrics.json` per experiment (id, claim,
//! shape verdict, wall time) plus a `harness.jsonl` span journal —
//! the raw numbers behind the EXPERIMENTS.md tables. The corpus-scale
//! experiments additionally journal per-program counters to their own
//! `<id>.journal.jsonl`. (Note the engine and tests interpret
//! `RES_TRACE` as a journal *file* path; the harness runs many
//! experiments, so here it names a directory.)

use mvm_json::json_struct;
use res_bench::experiments as ex;
use res_bench::Experiment;
use res_core::{auto_workers, parallel_map};
use res_obs::Recorder;

const ALL_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e5c", "e6", "e6c", "e7", "e7c", "e8", "e9", "e10", "e11", "e12",
    "e13", "a1", "a2", "a3",
];

fn run(id: &str) -> Option<Experiment> {
    Some(match id {
        "e1" => ex::e1_hotos_eval(),
        "e2" => ex::e2_figure1(),
        "e3" => ex::e3_length_sweep(),
        "e4" => ex::e4_breadcrumbs(),
        "e5" => ex::e5_triage(),
        "e5c" => ex::e5c_triage_corpus(),
        "e6" => ex::e6_exploitability(),
        "e6c" => ex::e6c_exploitability_corpus(),
        "e7" => ex::e7_hardware(),
        "e7c" => ex::e7c_hardware_corpus(),
        "e8" => ex::e8_recording_overhead(),
        "e9" => ex::e9_suffix_budget(),
        "e10" => ex::e10_hard_constructs(),
        "e11" => ex::e11_replay_determinism(),
        "e12" => ex::e12_deadline(),
        "e13" => ex::e13_store_warm(),
        "a1" => ex::a1_overapprox_ablation(),
        "a2" => ex::a2_dump_vs_minidump(),
        "a3" => ex::a3_solver_budget(),
        _ => return None,
    })
}

/// Experiments that must not share the machine with other experiments
/// while they run: timing-shape experiments and the internally-parallel
/// corpus-scale trio.
fn sequential_only(id: &str) -> bool {
    matches!(id, "e3" | "e8" | "e5c" | "e6c" | "e7c")
}

fn print_experiment(e: &Experiment) {
    println!("================================================================");
    println!("{} — {}", e.id, e.claim);
    println!("================================================================");
    println!("{}", e.table);
    println!(
        "shape check: {}",
        if e.shape_holds {
            "HOLDS"
        } else {
            "DOES NOT HOLD"
        }
    );
    println!();
}

/// The per-experiment metrics artifact (`<id>.metrics.json`).
#[derive(Debug, Clone, PartialEq)]
struct Metrics {
    id: String,
    claim: String,
    shape_holds: bool,
    wall_ms: u64,
}

json_struct!(Metrics {
    id,
    claim,
    shape_holds,
    wall_ms
});

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_dir = std::env::var_os("RES_TRACE").map(std::path::PathBuf::from);
    let recorder = match &trace_dir {
        Some(dir) => Recorder::journal(dir.join("harness.jsonl")),
        None => Recorder::disabled(),
    };
    let threads: usize = std::env::var("RES_HARNESS_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(auto_workers)
        .max(1);
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        args.iter().map(|a| a.to_lowercase()).collect()
    };

    // One closure runs an experiment end to end (span, counters,
    // metrics artifact); it is safe to call from worker threads — the
    // recorder is thread-safe and each artifact file is experiment-own.
    let run_one = |id: &str| -> Option<Experiment> {
        let started = std::time::Instant::now();
        let span = recorder.span(id);
        let e = run(id)?;
        drop(span);
        recorder.counter("experiments", 1);
        if e.shape_holds {
            recorder.counter("shapes_hold", 1);
        }
        if let Some(dir) = &trace_dir {
            let artifact = Metrics {
                id: e.id.to_string(),
                claim: e.claim.to_string(),
                shape_holds: e.shape_holds,
                wall_ms: started.elapsed().as_millis() as u64,
            };
            let path = dir.join(format!("{}.metrics.json", e.id));
            if let Err(err) = std::fs::write(&path, mvm_json::to_string_pretty(&artifact)) {
                eprintln!("cannot write {}: {err}", path.display());
            }
        }
        Some(e)
    };

    // Phase 1: fan the independent experiments out across threads
    // (positional results keep the output order request-stable).
    let mut slots: Vec<Option<Experiment>> = parallel_map(&ids, threads, |_, id| {
        if sequential_only(id) {
            None
        } else {
            run_one(id)
        }
    });
    // Phase 2: the sequential-only experiments, one at a time on an
    // otherwise idle process.
    for (i, id) in ids.iter().enumerate() {
        if sequential_only(id) {
            slots[i] = run_one(id);
        }
    }
    recorder.finish();

    let mut results: Vec<Experiment> = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(e) => results.push(e),
            None => eprintln!(
                "unknown experiment id {:?} (use e1..e13, e5c/e6c/e7c, a1..a3, all)",
                ids[i]
            ),
        }
    }
    for e in &results {
        print_experiment(e);
    }
    let holds = results.iter().filter(|e| e.shape_holds).count();
    println!(
        "summary: {}/{} experiment shapes hold",
        holds,
        results.len()
    );
    if holds != results.len() {
        std::process::exit(1);
    }
}
