//! Observability invariants (see DESIGN.md, "Observability").
//!
//! Three claims, each load-bearing for the tracing subsystem:
//!
//! 1. **Passivity** — enabling tracing changes no synthesized byte. The
//!    recorder is written to, never read.
//! 2. **Fidelity** — the JSONL journal round-trips through `mvm-json`,
//!    reconstructs the full phase timeline (absorb/search/commit spans,
//!    solver and store events), and its counter totals reconcile
//!    *exactly* against `KernelStats`, `SessionStats`, and
//!    `StoreReport`.
//! 3. **Zero cost when off** — the disabled recorder allocates nothing
//!    on the hot path (asserted with an allocation counter, not
//!    timing).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use res_debugger::isa::Reg;
use res_debugger::obs::{read_journal, render, EventKind, Recorder, Registry};
use res_debugger::prelude::*;
use res_debugger::res::search::SynthesisResult;
use res_debugger::res::Relax;
use res_debugger::serve::{serve, ServeConfig, StatsRequest, StatsResponse, TriageClient};
use res_debugger::store::program_fingerprint;
use res_debugger::triage::TriageRequest;
use res_debugger::workloads::run_to_failure;

// ---------------------------------------------------------------------
// Allocation counting (claim 3). The counter is thread-local so
// parallel test threads cannot pollute each other's counts.

#[path = "../crates/bench/src/alloc_count.rs"]
mod alloc_count;

use alloc_count::{count_allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Shared scenario: the same deterministic DivByZero crash the golden
// suffix fixture uses.

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

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("res-obs-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    dir
}

fn synth(trace: Option<&Path>, cache: Option<&Path>) -> (String, SynthesisResult) {
    let (program, dump) = crash();
    let mut builder = ResConfig::builder();
    if let Some(t) = trace {
        builder = builder.trace(t);
    }
    if let Some(c) = cache {
        builder = builder.cache_path(c);
    }
    let engine = ResEngine::new(&program, builder.build());
    let result = engine.synthesize(&dump);
    let mut rendered = String::new();
    rendered.push_str(&format!("verdict: {:?}\n", result.verdict));
    for (i, s) in result.suffixes.iter().enumerate() {
        rendered.push_str(&format!("--- suffix {i} ---\n{s:?}\n"));
    }
    (rendered, result)
}

// ---------------------------------------------------------------------
// Claim 1: passivity.

/// The search runs on one thread, so this covers every value a caller
/// can give the ignored `ResConfig::workers`.
#[test]
fn tracing_on_and_off_synthesize_identical_suffixes_at_any_worker_count() {
    let dir = tmp_dir();
    let (plain, _) = synth(None, None);
    let journal = dir.join("passivity.jsonl");
    let (traced, _) = synth(Some(&journal), None);
    assert_eq!(plain, traced, "enabling tracing perturbed the search");
}

// ---------------------------------------------------------------------
// Claim 2: fidelity.

fn find_span<'a>(events: &'a [EventKind], name: &str) -> Option<(u64, Option<u64>)> {
    events.iter().find_map(|k| match k {
        EventKind::Span {
            id,
            parent,
            name: n,
        } if n == name => Some((*id, *parent)),
        _ => None,
    })
}

fn mark_fields<'a>(events: &'a [EventKind], name: &str) -> Option<BTreeMap<&'a str, &'a str>> {
    events.iter().find_map(|k| match k {
        EventKind::Mark { name: n, fields } if n == name => Some(
            fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect(),
        ),
        _ => None,
    })
}

#[test]
fn journal_round_trips_and_reconciles_against_stats() {
    let dir = tmp_dir();
    let journal = dir.join("reconcile.jsonl");
    let (_, result) = synth(Some(&journal), None);

    let events = read_journal(&journal).expect("journal must parse");
    assert!(!events.is_empty());

    // Schema round-trip on every real event, not just synthetic ones.
    for e in &events {
        let line = mvm_json::to_string(e);
        let back: res_debugger::obs::Event = mvm_json::from_str(&line).expect("event reparses");
        assert_eq!(&back, e, "event drifted through serialization");
    }

    // Phase timeline: synthesize ⊃ {search, commit}, and every opened
    // span closed.
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind.clone()).collect();
    let (synth_id, synth_parent) = find_span(&kinds, "synthesize").expect("synthesize span");
    assert_eq!(synth_parent, None, "synthesize is a root span");
    for phase in ["search", "commit"] {
        let (_, parent) = find_span(&kinds, phase).unwrap_or_else(|| panic!("{phase} span"));
        assert_eq!(parent, Some(synth_id), "{phase} must nest under synthesize");
    }
    let opened: Vec<u64> = kinds
        .iter()
        .filter_map(|k| match k {
            EventKind::Span { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    for id in &opened {
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, EventKind::End { id: e, .. } if e == id)),
            "span {id} never closed"
        );
    }

    // Counter totals reconcile exactly against the stat structs.
    let totals = render::counter_totals(&events);
    let get = |name: &str| totals.get(name).copied().unwrap_or(0);
    let stats = &result.stats;
    assert_eq!(get("kernel.nodes_expanded"), stats.nodes_expanded);
    assert_eq!(get("kernel.hypotheses"), stats.hypotheses);
    assert_eq!(get("kernel.artifacts"), result.suffixes.len() as u64);
    let solver = &stats.solver;
    assert_eq!(get("solver.queries"), solver.queries);
    assert_eq!(get("solver.cache_hits"), solver.cache_hits);
    assert_eq!(get("solver.cache_misses"), solver.cache_misses);
    assert_eq!(get("solver.store_hits"), solver.store_hits);
    assert_eq!(get("solver.assignments"), solver.assignments);
    assert_eq!(get("solver.sat"), solver.sat);
    assert_eq!(get("solver.unsat"), solver.unsat);

    // The pretty-printer can explain the run from the journal alone.
    let report = render::render(&events);
    for needle in [
        "synthesize",
        "search",
        "kernel.nodes_expanded",
        "solver.queries",
    ] {
        assert!(report.contains(needle), "render missing {needle:?}");
    }
}

/// The `kernel.*` and `solver.*` totals the stat structs of `results`
/// add up to, by journal name.
fn totals_of(results: &[&SynthesisResult]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for r in results {
        let (k, s) = (&r.stats, &r.stats.solver);
        for (name, n) in [
            ("kernel.nodes_expanded", k.nodes_expanded),
            ("kernel.hypotheses", k.hypotheses),
            ("kernel.artifacts", r.suffixes.len() as u64),
            ("solver.queries", s.queries),
            ("solver.cache_hits", s.cache_hits),
            ("solver.cache_misses", s.cache_misses),
            ("solver.store_hits", s.store_hits),
            ("solver.sat", s.sat),
            ("solver.unsat", s.unsat),
            ("solver.unknown_budget", s.unknown_budget),
            ("solver.unknown_incomplete", s.unknown_incomplete),
            ("solver.assignments", s.assignments),
        ] {
            *totals.entry(name).or_insert(0) += n;
        }
    }
    totals
}

/// A journal's totals reconcile across calls on one engine: the
/// engine's journal holds the sum of the calls it traced, and a call
/// with its own journal lands there alone.
#[test]
fn journals_reconcile_across_calls_on_one_engine() {
    let dir = tmp_dir();
    let (program, dump) = crash();
    let engine_journal = dir.join("calls-engine.jsonl");
    let call_journal = dir.join("calls-own.jsonl");
    let engine = ResEngine::new(
        &program,
        ResConfig::builder().trace(&engine_journal).build(),
    );
    let first = engine.synthesize(&dump);
    let second = engine.synthesize_with(&dump, SynthOptions::new().trace(&call_journal));
    let third = engine.synthesize_relaxed(&dump, Relax::Reg { reg: Reg(1) });
    assert!(
        third.stats.solver.cache_misses > 0,
        "the relaxed call must ask the solver something new"
    );
    for (journal, results) in [
        (&engine_journal, vec![&first, &third]),
        (&call_journal, vec![&second]),
    ] {
        let events = read_journal(journal).expect("journal parses");
        let totals = render::counter_totals(&events);
        for (name, want) in totals_of(&results) {
            let got = totals.get(name).copied().unwrap_or(0);
            assert_eq!(got, want, "{name} in {}", journal.display());
        }
    }
}

/// A budget cut is journaled as one `kernel.cut` mark carrying the
/// stats' cut reason and abandoned count.
#[test]
fn a_budget_cut_is_marked_with_the_stats_reason() {
    let dir = tmp_dir();
    let (program, dump) = crash();
    let journal = dir.join("cut.jsonl");
    let config = ResConfig::builder().max_nodes(2).trace(&journal).build();
    let result = ResEngine::new(&program, config).synthesize(&dump);
    let cut = result
        .stats
        .cut
        .expect("two nodes cannot finish this search");
    let kinds: Vec<EventKind> = read_journal(&journal)
        .expect("journal parses")
        .into_iter()
        .map(|e| e.kind)
        .collect();
    let mark = mark_fields(&kinds, "kernel.cut").expect("kernel.cut mark");
    assert_eq!(mark["reason"], format!("{cut:?}"));
    assert_eq!(mark["abandoned"], result.stats.abandoned.nodes.to_string());
    let marks = kinds
        .iter()
        .filter(|k| matches!(k, EventKind::Mark { name, .. } if name == "kernel.cut"))
        .count();
    assert_eq!(marks, 1);
}

/// A call with its own journal marks the absorb of the caller-owned
/// store it searches in, and counts the hits that store served.
#[test]
fn a_call_journal_marks_the_absorb_of_a_caller_owned_store() {
    let dir = tmp_dir();
    let (program, dump) = crash();
    let path = dir.join("owned.resstore");
    let _ = std::fs::remove_file(&path);
    let mut store = SolverStore::open(&path, program_fingerprint(&program));
    ResEngine::new(&program, ResConfig::default()).synthesize_in_store(
        &dump,
        SynthOptions::new(),
        &mut store,
    );
    assert!(!store.is_empty(), "the first call must teach the store");
    let journal = dir.join("owned.jsonl");
    let warm = ResEngine::new(&program, ResConfig::default()).synthesize_in_store(
        &dump,
        SynthOptions::new().trace(&journal),
        &mut store,
    );
    let events = read_journal(&journal).expect("journal parses");
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind.clone()).collect();
    let absorb = mark_fields(&kinds, "solver.absorb").expect("solver.absorb mark");
    assert_eq!(absorb["entries"], store.len().to_string());
    assert_eq!(absorb["new"], store.len().to_string());
    let totals = render::counter_totals(&events);
    assert_eq!(totals["solver.store_hits"], warm.stats.solver.store_hits);
    assert!(warm.stats.solver.store_hits > 0);
}

#[test]
fn store_events_reconcile_against_store_report() {
    let dir = tmp_dir();
    let store_path = dir.join("reconcile.resstore");
    let _ = std::fs::remove_file(&store_path);

    // Cold run: the journal's commit mark matches the appended count.
    let cold_journal = dir.join("store-cold.jsonl");
    let (_, cold) = synth(Some(&cold_journal), Some(&store_path));
    let cold_report = cold.store.expect("store configured");
    let cold_kinds: Vec<EventKind> = read_journal(&cold_journal)
        .expect("cold journal parses")
        .into_iter()
        .map(|e| e.kind)
        .collect();
    let open = mark_fields(&cold_kinds, "store.open").expect("store.open mark");
    assert_eq!(open["outcome"], format!("{:?}", cold_report.outcome));
    assert_eq!(open["entries"], cold_report.loaded_entries.to_string());
    let commit = mark_fields(&cold_kinds, "store.commit").expect("store.commit mark");
    assert_eq!(commit["appended"], cold_report.appended_entries.to_string());
    assert!(
        find_span(&cold_kinds, "absorb").is_some(),
        "engine-level store absorb span missing"
    );

    // Warm run: loaded entries and store hits line up too.
    let warm_journal = dir.join("store-warm.jsonl");
    let (_, warm) = synth(Some(&warm_journal), Some(&store_path));
    let warm_report = warm.store.expect("store configured");
    assert!(warm_report.loaded_entries > 0, "second run must start warm");
    let warm_events = read_journal(&warm_journal).expect("warm journal parses");
    let warm_kinds: Vec<EventKind> = warm_events.iter().map(|e| e.kind.clone()).collect();
    let open = mark_fields(&warm_kinds, "store.open").expect("store.open mark");
    assert_eq!(open["entries"], warm_report.loaded_entries.to_string());
    let totals = render::counter_totals(&warm_events);
    assert_eq!(
        totals.get("solver.store_hits").copied().unwrap_or(0),
        warm_report.store_hits,
        "journal store-hit total != StoreReport.store_hits"
    );
    let absorb = mark_fields(&warm_kinds, "solver.absorb").expect("solver.absorb mark");
    assert_eq!(absorb["entries"], warm_report.loaded_entries.to_string());
}

// ---------------------------------------------------------------------
// Claim 3: zero cost when off.

#[test]
fn disabled_recorder_allocates_nothing_on_the_hot_path() {
    let rec = Recorder::disabled();
    let scoped = rec.scoped("kernel");
    // Warm up thread-local state outside the measured window.
    rec.counter("warmup", 1);
    let ((), allocated) = count_allocations(|| {
        for i in 0..1_000u64 {
            rec.counter("kernel.nodes_expanded", 1);
            rec.gauge("workers", i);
            rec.event_with("kernel.cut", || {
                vec![("reason".to_string(), "Nodes".to_string())]
            });
            let span = rec.span("synthesize");
            let child = span.child("replay");
            drop(child);
            drop(span);
            scoped.counter("frontier_pop", 1);
            let nested = scoped.scoped("inner");
            nested.counter("n", 1);
        }
    });
    assert_eq!(
        allocated, 0,
        "the disabled recorder must not allocate on the hot path"
    );
}

#[test]
fn disabled_registry_allocates_nothing_on_the_hot_path() {
    let reg = Registry::disabled();
    let histo = reg.histogram("serve.rtt.triage_us");
    let ((), allocated) = count_allocations(|| {
        for i in 0..1_000u64 {
            histo.record(i);
            // Even the registration path is inert: disabled registries
            // hand out default handles without touching the name.
            let h = reg.histogram("serve.queue.wait_us");
            h.record(i * 3);
            let snaps = reg.snapshot();
            assert!(snaps.is_empty());
        }
    });
    assert_eq!(
        allocated, 0,
        "the disabled registry must not allocate on the hot path"
    );
}

// ---------------------------------------------------------------------
// Claim 4: the daemon's telemetry snapshot is deterministic modulo
// timestamps. Two daemons given the same request sequence answer
// `StatsQuery` with byte-identical `normalized()` views — counters,
// request/connection counts, histogram sample counts, and the flight
// recorder's ids/endpoints/outcomes are all functions of the sequence,
// never of the wall clock.

fn stats_after_fixed_sequence() -> StatsResponse {
    let (program, dump) = crash();
    let handle = serve(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("boot daemon");
    let mut client = TriageClient::connect(handle.addr()).expect("connect");
    for _ in 0..2 {
        let _ = client
            .triage(TriageRequest::new(program.clone(), dump.clone()))
            .expect("io")
            .expect("admitted");
    }
    let resp = client.stats_query(&StatsRequest::default()).expect("stats");
    drop(client);
    let mut handle = handle;
    handle.stop();
    resp
}

#[test]
fn stats_response_is_deterministic_modulo_timestamps() {
    let a = stats_after_fixed_sequence();
    let b = stats_after_fixed_sequence();
    assert_ne!(
        a.uptime_us, 0,
        "the raw response does carry timing — only normalized() drops it"
    );
    assert_eq!(
        mvm_json::to_string(&a.normalized()),
        mvm_json::to_string(&b.normalized()),
        "normalized stats must be identical for identical request sequences"
    );
    // Spot-check the currency is non-trivial: real counts survive
    // normalization.
    let norm = a.normalized();
    assert_eq!(norm.requests, 3, "two triages + this stats query");
    assert_eq!(norm.connections, 1);
    let rtt = norm
        .histograms
        .iter()
        .find(|h| h.name == "serve.rtt.triage_us")
        .expect("triage rtt histogram");
    assert_eq!(rtt.count, 2);
    assert_eq!(norm.recent.len(), 2, "both triages in the flight recorder");
    assert!(norm.recent.iter().all(|r| r.total_us == 0));
}
