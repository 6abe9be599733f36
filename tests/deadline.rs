//! Bounded-wall-clock runs: an expired deadline must surface as
//! [`CutReason::Deadline`] with a well-formed partial result — never a
//! hang, a panic, or a confident verdict the search did not earn.

use std::time::Duration;

use res_debugger::baselines::{ForwardConfig, ForwardSynthesizer};
use res_debugger::prelude::*;
use res_debugger::res::{Budget, CutReason};
use res_debugger::workloads::run_to_failure;

fn crash() -> (Program, Coredump) {
    let program = build_workload(
        BugKind::DivByZero,
        WorkloadParams {
            prefix_iters: 2,
            hash_rounds: 1,
        },
    );
    let machine = (0..500)
        .find_map(|s| run_to_failure(&program, s))
        .expect("DivByZero workload must fault");
    let dump = Coredump::capture(&machine);
    (program, dump)
}

#[test]
fn expired_deadline_is_a_reported_cut_with_a_well_formed_result() {
    let (program, dump) = crash();
    let engine = ResEngine::new(
        &program,
        ResConfig::builder().deadline(Some(Duration::ZERO)).build(),
    );
    let result = engine.synthesize(&dump);
    assert_eq!(result.verdict, Verdict::BudgetExhausted);
    assert_eq!(result.stats.cut, Some(CutReason::Deadline));
    assert!(
        result.suffixes.is_empty(),
        "a zero deadline leaves no time to complete any suffix"
    );
    assert!(
        result.stats.abandoned.nodes >= 1,
        "the cut must account for the abandoned frontier (at least the root)"
    );
    assert_eq!(result.stats.nodes_expanded, 0);
}

#[test]
fn generous_deadline_does_not_perturb_the_search() {
    let (program, dump) = crash();
    let bounded = ResEngine::new(
        &program,
        ResConfig::builder()
            .deadline(Some(Duration::from_secs(3600)))
            .build(),
    )
    .synthesize(&dump);
    let unbounded = ResEngine::new(&program, ResConfig::default()).synthesize(&dump);
    assert_eq!(bounded.verdict, unbounded.verdict);
    assert_eq!(bounded.stats.cut, None);
    assert_eq!(
        format!("{:?}", bounded.suffixes),
        format!("{:?}", unbounded.suffixes)
    );
}

#[test]
fn forward_es_deadline_is_reported_before_any_candidate_runs() {
    let (program, dump) = crash();
    let goal = Minidump::from_coredump(&dump);
    let r = ForwardSynthesizer::new(ForwardConfig {
        budget: Budget {
            deadline: Some(Duration::ZERO),
            ..ForwardConfig::default().budget
        },
        ..ForwardConfig::default()
    })
    .synthesize(&program, &goal);
    assert!(!r.found);
    assert_eq!(r.stats.cut, Some(CutReason::Deadline));
    assert_eq!(r.candidates_tried, 0);
}
