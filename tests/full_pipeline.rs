//! Cross-crate integration tests: the whole pipeline from workload to
//! verdict, through the facade crate.

use res_debugger::prelude::*;
use res_debugger::triage::bucket::res_bucket_key;
use res_debugger::triage::classify_with_res;
use res_debugger::workloads::run_to_failure;

fn failing_dump(kind: BugKind) -> (Program, Coredump) {
    let p = build_workload(kind, WorkloadParams::default());
    let dump = (0..500)
        .find_map(|s| run_to_failure(&p, s))
        .map(|m| Coredump::capture(&m))
        .expect("workload failure");
    (p, dump)
}

#[test]
fn every_workload_yields_a_reproducing_suffix_or_verdict() {
    // The engine must do something sensible for *every* bug class:
    // either a replay-verified suffix or an honest budget verdict.
    for kind in BugKind::ALL {
        let (p, d) = failing_dump(kind);
        let engine = ResEngine::new(&p, ResConfig::default());
        let result = engine.synthesize(&d);
        match result.verdict {
            Verdict::SuffixFound => {
                let reproduced = result
                    .suffixes
                    .iter()
                    .any(|s| replay_suffix(&p, &d, s).reproduced);
                assert!(reproduced, "{kind:?}: no suffix replayed");
            }
            other => panic!("{kind:?}: unexpected verdict {other:?}"),
        }
    }
}

#[test]
fn hotos_eval_bugs_all_get_concurrency_root_causes() {
    for kind in BugKind::HOTOS_EVAL {
        let (p, d) = failing_dump(kind);
        let engine = ResEngine::new(&p, ResConfig::default());
        let result = engine.synthesize(&d);
        let found = result.suffixes.iter().any(|s| {
            replay_suffix(&p, &d, s).reproduced && analyze_root_cause(&p, &d, s).is_concurrency()
        });
        assert!(found, "{kind:?}: concurrency root cause not identified");
    }
}

#[test]
fn bucket_keys_are_stable_across_manifestations() {
    let p = build_workload(BugKind::UseAfterFree, WorkloadParams::default());
    let config = ResConfig::default();
    let mut keys = std::collections::HashSet::new();
    for seed in [1u64, 7, 23] {
        let m = run_to_failure(&p, seed).expect("deterministic failure");
        let d = Coredump::capture(&m);
        keys.insert(res_bucket_key(&p, &d, &config));
    }
    assert_eq!(keys.len(), 1, "same bug must bucket identically: {keys:?}");
}

#[test]
fn exploitability_requires_taint_evidence() {
    let config = ResConfig::default();
    let (pt, dt) = failing_dump(BugKind::HeapOverflowTainted);
    let (pl, dl) = failing_dump(BugKind::HeapOverflowLocal);
    let tainted = classify_with_res(&pt, &dt, &config);
    let local = classify_with_res(&pl, &dl, &config);
    assert_eq!(tainted.name(), "EXPLOITABLE");
    assert_eq!(local.name(), "NOT_EXPLOITABLE");
}

#[test]
fn hardware_verdict_distinguishes_all_three_cases() {
    let (p, d) = failing_dump(BugKind::SemanticAssert);
    let config = ResConfig::default();
    assert_eq!(hardware_verdict(&p, &d, &config), HwVerdict::SoftwareBug);

    let mut flipped = d.clone();
    // Flip the `config` global the assertion depends on.
    res_debugger::coredump::flip_memory_bit_at(
        &mut flipped,
        res_debugger::isa::layout::GLOBAL_BASE,
        1,
    );
    assert!(matches!(
        hardware_verdict(&p, &flipped, &config),
        HwVerdict::HardwareSuspected { .. }
    ));
}

#[test]
fn suffix_focus_sets_are_tiny_relative_to_dump() {
    let (p, d) = failing_dump(BugKind::DataRace);
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    let sfx = result
        .suffixes
        .iter()
        .find(|s| replay_suffix(&p, &d, s).reproduced)
        .expect("reproducing suffix");
    // §3.3: the read/write sets focus attention on a few locations,
    // not the whole dump.
    assert!(sfx.read_set().len() < 32);
    assert!(sfx.write_set().len() < 32);
    assert!(d.size_bytes() > 4096);
}

#[test]
fn facade_prelude_is_sufficient_for_the_workflow() {
    // Compile-time check that the prelude covers the primary workflow.
    let p = build_workload(BugKind::DivByZero, WorkloadParams::default());
    let mut m = Machine::new(&p, MachineConfig::default());
    let _: Outcome = m.run();
    let d = Coredump::capture(&m);
    let _ = Minidump::from_coredump(&d);
    let engine = ResEngine::new(&p, ResConfig::default());
    let result = engine.synthesize(&d);
    assert!(matches!(result.verdict, Verdict::SuffixFound));
}
