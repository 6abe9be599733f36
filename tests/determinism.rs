//! Determinism regression: the full RES pipeline — workload build,
//! production run, coredump capture, suffix synthesis, replay — is a
//! pure function of its seeds. Two runs with identical seeds must agree
//! byte-for-byte on the JSON-serialized dumps and on every synthesized
//! suffix.
//!
//! This is the property the hermetic build exists to protect: with the
//! PRNG, serializer, and scheduler all in-repo, no dependency upgrade
//! can silently change a generated sequence or a serialized byte.

use res_debugger::prelude::*;
use res_debugger::workloads::run_to_failure;

/// One full pipeline pass, reduced to comparable bytes.
struct PipelineFingerprint {
    program_json: String,
    dump_json: String,
    verdict: String,
    suffixes: Vec<String>,
    replays: Vec<bool>,
}

fn run_pipeline(kind: BugKind, prefix_iters: u64) -> PipelineFingerprint {
    let program = build_workload(
        kind,
        WorkloadParams {
            prefix_iters,
            hash_rounds: 2,
        },
    );
    let machine = (0..500)
        .find_map(|s| run_to_failure(&program, s))
        .unwrap_or_else(|| panic!("{} must fault", kind.name()));
    let dump = Coredump::capture(&machine);
    let engine = ResEngine::new(&program, ResConfig::default());
    let result = engine.synthesize(&dump);
    PipelineFingerprint {
        program_json: mvm_json::to_string_pretty(&program),
        dump_json: mvm_json::to_string_pretty(&dump),
        verdict: format!("{:?}", result.verdict),
        suffixes: result.suffixes.iter().map(|s| format!("{s:?}")).collect(),
        replays: result
            .suffixes
            .iter()
            .map(|s| replay_suffix(&program, &dump, s).reproduced)
            .collect(),
    }
}

fn assert_identical(kind: BugKind, prefix_iters: u64) {
    let a = run_pipeline(kind, prefix_iters);
    let b = run_pipeline(kind, prefix_iters);
    assert_eq!(
        a.program_json,
        b.program_json,
        "{}: program JSON differs",
        kind.name()
    );
    assert_eq!(
        a.dump_json,
        b.dump_json,
        "{}: coredump JSON differs",
        kind.name()
    );
    assert_eq!(a.verdict, b.verdict, "{}: verdict differs", kind.name());
    assert_eq!(
        a.suffixes,
        b.suffixes,
        "{}: synthesized suffixes differ",
        kind.name()
    );
    assert_eq!(
        a.replays,
        b.replays,
        "{}: replay outcomes differ",
        kind.name()
    );
    assert!(
        !a.suffixes.is_empty(),
        "{}: expected at least one suffix",
        kind.name()
    );
}

/// Deterministic single-threaded pipeline: byte-identical end to end.
#[test]
fn sequential_pipeline_is_byte_identical() {
    assert_identical(BugKind::DivByZero, 25);
    assert_identical(BugKind::UseAfterFree, 10);
}

/// Concurrent workload under the seeded random scheduler: the schedule
/// is random but seed-derived, so the pipeline is still reproducible.
#[test]
fn concurrent_pipeline_is_byte_identical() {
    assert_identical(BugKind::DataRace, 5);
}

/// Different seeds must be *able* to diverge — guards against the
/// scheduler ignoring its seed (which would make the determinism
/// assertions above vacuous).
#[test]
fn scheduler_seed_actually_matters() {
    let program = build_workload(
        BugKind::DataRace,
        WorkloadParams {
            prefix_iters: 5,
            hash_rounds: 2,
        },
    );
    let trace_for = |seed: u64| {
        let mut m = Machine::new(
            &program,
            MachineConfig {
                sched: SchedPolicy::Random {
                    seed,
                    switch_per_mille: 400,
                },
                max_steps: 500_000,
                ..MachineConfig::default()
            },
        );
        let o = m.run();
        (format!("{o:?}"), m.steps())
    };
    let baseline = trace_for(1);
    assert_eq!(baseline, trace_for(1), "same seed must reproduce");
    let diverged = (2..50u64).any(|s| trace_for(s) != baseline);
    assert!(diverged, "no seed in 2..50 diverged from seed 1");
}
