//! Micro-benches: the latency of the core operations behind each
//! experiment, timed on the in-repo `res_bench::micro` runner (no
//! criterion). One group per experiment family; parameter sweeps mirror
//! the harness tables (smaller sizes, so `cargo bench` stays fast).

use res_bench::alloc_count::{count_allocations, CountingAlloc};
use res_bench::micro::{bench_function, Group};

use mvm_core::{Coredump, HwFlavor, Minidump};
use mvm_symbolic::{canonical_key, ExprRef};
use res_baselines::{measure_recording, ForwardConfig, ForwardSynthesizer, RecorderKind};
use res_core::{
    hardware_verdict, replay_and_diagnose, replay_suffix, ExecutionSuffix, HwVerdict, ResConfig,
    ResEngine,
};
use res_serve::wire::{read_request, read_response, write_request, write_response};
use res_serve::{WireRequest, WireResponse};
use res_store::{program_fingerprint, SolverStore};
use res_triage::{with_shared_store, TriageRequest};
use res_workloads::gen::{collect_failures, corpus_specs, generate, hardware_variant, GenClass};
use res_workloads::{build, run_to_failure, BugKind, WorkloadParams};

/// Counts the `search` and `replay` groups' allocations per call.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn dump_for(kind: BugKind, prefix: u64) -> (mvm_isa::Program, Coredump) {
    let p = build(
        kind,
        WorkloadParams {
            prefix_iters: prefix,
            ..WorkloadParams::default()
        },
    );
    let m = (0..500)
        .find_map(|s| run_to_failure(&p, s))
        .expect("workload failure");
    let d = Coredump::capture(&m);
    (p, d)
}

/// E1: suffix synthesis per §4 bug class.
fn bench_e1_synthesis() {
    let g = Group::new("e1_hotos_eval").sample_size(10);
    for kind in BugKind::HOTOS_EVAL {
        let (p, d) = dump_for(kind, 10);
        g.bench(kind.name(), || {
            let engine = ResEngine::new(&p, ResConfig::default());
            engine.synthesize(&d)
        });
    }
}

/// E2: Figure-1 disambiguation.
fn bench_e2_figure1() {
    let (p, d) = dump_for(BugKind::Figure1, 10);
    bench_function("e2_figure1_synthesis", || {
        let engine = ResEngine::new(&p, ResConfig::default());
        engine.synthesize(&d)
    });
}

/// E3: RES vs forward ES across prefix lengths.
fn bench_e3_length_sweep() {
    let g = Group::new("e3_length_sweep").sample_size(10);
    for prefix in [100u64, 1_000, 10_000] {
        let (p, d) = dump_for(BugKind::DivByZero, prefix);
        g.bench(&format!("res/{prefix}"), || {
            let engine = ResEngine::new(&p, ResConfig::default());
            engine.synthesize(&d)
        });
        let goal = Minidump::from_coredump(&d);
        g.bench(&format!("forward_es/{prefix}"), || {
            let s = ForwardSynthesizer::new(ForwardConfig::default());
            s.synthesize(&p, &goal)
        });
    }
}

/// E8: recording cost measurement.
fn bench_e8_recording() {
    let g = Group::new("e8_recording_overhead").sample_size(10);
    let p = build(
        BugKind::DataRace,
        WorkloadParams {
            prefix_iters: 500,
            ..WorkloadParams::default()
        },
    );
    for kind in [
        RecorderKind::FullMemoryOrder,
        RecorderKind::OutputDeterministic,
        RecorderKind::None,
    ] {
        g.bench(kind.name(), || measure_recording(&p, kind, 11));
    }
}

/// E11: replay latency. Each `search` case's first default-config
/// suffix is replayed plain (`replay_suffix`, what a triage answer pays
/// per suffix) and traced with the root-cause analyzers
/// (`replay_and_diagnose`). A replay borrows the program, steps in
/// place and compares its end state with the dump in place, so it
/// copies little beyond the dump's memory image. Each timing line is
/// followed by its heap allocations per call, the count
/// `tests/alloc_budget.rs` gates (there in the debug profile).
fn bench_replay() {
    let g = Group::new("replay").sample_size(50);
    for class in GenClass::ALL {
        let gp = generate(corpus_specs(&[class], 1, 23, 1)[0]);
        let dump = &collect_failures(&gp, 1)[0].dump;
        let result = ResEngine::new(&gp.program, ResConfig::default()).synthesize(dump);
        let Some(suffix) = result.suffixes.first() else {
            continue;
        };
        let p = &gp.program;
        let ids = [("suffix", false), ("diagnose", true)];
        for (shape, diagnose) in ids {
            let replay = || {
                if diagnose {
                    replay_and_diagnose(p, dump, suffix).0
                } else {
                    replay_suffix(p, dump, suffix)
                }
            };
            let id = format!("{shape}/{}", class.name());
            g.bench(&id, replay);
            let (_, allocations) = count_allocations(replay);
            println!(
                "{:<44} {allocations} allocations per call",
                format!("replay/{id}")
            );
        }
    }
}

/// A3: solver latency per budget.
fn bench_a3_solver() {
    let g = Group::new("a3_solver_budget").sample_size(10);
    let (p, d) = dump_for(BugKind::HeapOverflowTainted, 10);
    for budget in [100u64, 20_000] {
        g.bench(&budget.to_string(), || {
            let engine = ResEngine::new(
                &p,
                ResConfig::builder()
                    .solver(mvm_symbolic::SolverConfig {
                        max_assignments: budget,
                        ..mvm_symbolic::SolverConfig::default()
                    })
                    .build(),
            );
            engine.synthesize(&d)
        });
    }
}

/// The JSON codec and the fixed costs it sets on a warm-store call:
/// store open, program fingerprint, dump encode/decode, one wire round
/// trip, and `hardware_verdict` with a warm store and with none. The
/// input is one generated use-after-free program (the `hwfilter`
/// shape) with its first four dumps, the second one with a corrupted
/// register, which no suffix explains, so its verdict runs the §3.2
/// sweep; the store is warmed by running every dump through it first.
/// Then
/// the identity text a triage answer carries per suffix, written by the
/// derived `Debug` and by `identity_bytes`, over every suffix of the
/// seed-1 `triage` population (`bench_suffix_identity`).
fn bench_codec() {
    let g = Group::new("codec").sample_size(200);
    let spec = corpus_specs(&[GenClass::UseAfterFree], 1, 91, 1)[0];
    let gp = generate(spec);
    let failures = collect_failures(&gp, 4);
    let program = &gp.program;
    let mut dumps: Vec<Coredump> = failures.iter().map(|f| f.dump.clone()).collect();
    dumps[1] = hardware_variant(&gp, &failures[1], HwFlavor::RegCorrupt).0;
    let dump = &dumps[0];

    let dir = std::env::temp_dir().join(format!("res-bench-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the bench store directory");
    let warm = with_shared_store(&ResConfig::default(), &dir, program);
    let cold = ResConfig::default();
    assert!(
        matches!(
            hardware_verdict(program, &dumps[1], &cold),
            HwVerdict::HardwareSuspected { .. }
        ),
        "dump 1 must need the sweep"
    );
    for d in &dumps {
        hardware_verdict(program, d, &warm);
    }
    let store = warm.cache_path.clone().expect("a shared store path");
    let fp = program_fingerprint(program);
    assert!(
        !SolverStore::open(&store, fp).is_empty(),
        "warming must populate the store"
    );

    g.bench("store_open", || SolverStore::open(&store, fp));
    g.bench("program_fingerprint", || program_fingerprint(program));
    let text = mvm_json::to_string(dump);
    g.bench("dump_to_string", || mvm_json::to_string(dump));
    g.bench("dump_from_str", || {
        mvm_json::from_str::<Coredump>(&text).expect("decode the dump")
    });
    let req = WireRequest::HwFilterBatch(vec![TriageRequest::new(program.clone(), dump.clone())]);
    let resp = WireResponse::HwFilterBatch(vec![hardware_verdict(program, dump, &cold)]);
    g.bench("wire_round_trip", || {
        let mut req_bytes = Vec::new();
        write_request(&mut req_bytes, &req).expect("encode the request");
        let mut resp_bytes = Vec::new();
        write_response(&mut resp_bytes, &resp).expect("encode the response");
        let back = read_request(&mut &req_bytes[..]).expect("decode the request");
        (
            back,
            read_response(&mut &resp_bytes[..]).expect("decode the response"),
        )
    });
    for (i, d) in dumps.iter().enumerate() {
        g.bench(&format!("hw_verdict_warm/{i}"), || {
            hardware_verdict(program, d, &warm)
        });
        g.bench(&format!("hw_verdict_no_store/{i}"), || {
            hardware_verdict(program, d, &cold)
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    bench_suffix_identity(&g);
}

/// `codec/suffix_identity_{debug,direct}`: one pass over the suffixes
/// of the seed-1 `triage` population (six programs per generator class,
/// three dumps each, hang classes left out because triage answers them
/// without a search). Each text is dropped before the next is written,
/// as a triage answer's are between operations; holding all of them at
/// once would add the heap's growth to both lines. Then
/// `codec/canonical_key`: the store key of every suffix's constraint
/// list, one pass.
fn bench_suffix_identity(g: &Group) {
    let suffixes: Vec<ExecutionSuffix> =
        corpus_specs(&GenClass::ALL, 6 * GenClass::ALL.len(), 1, 1)
            .into_iter()
            .filter(|spec| !matches!(spec.class, GenClass::Deadlock | GenClass::LockInversion))
            .flat_map(|spec| {
                let gp = generate(spec);
                let engine = ResEngine::new(&gp.program, ResConfig::default());
                collect_failures(&gp, 3)
                    .iter()
                    .flat_map(|f| engine.synthesize(&f.dump).suffixes)
                    .collect::<Vec<_>>()
            })
            .collect();
    let debug = g.bench("suffix_identity_debug", || {
        suffixes
            .iter()
            .map(|s| format!("{s:?}").len())
            .sum::<usize>()
    });
    let direct = g.bench("suffix_identity_direct", || {
        suffixes
            .iter()
            .map(|s| s.identity_bytes().len())
            .sum::<usize>()
    });
    println!(
        "codec/suffix_identity: {} suffixes per pass; direct {:.1}x faster than debug (medians)",
        suffixes.len(),
        debug.median.as_secs_f64() / direct.median.as_secs_f64()
    );
    let constraints: Vec<Vec<ExprRef>> = suffixes
        .iter()
        .map(|s| s.constraints.iter().map(|t| t.expr.clone()).collect())
        .collect();
    g.bench("canonical_key", || {
        constraints
            .iter()
            .map(|c| canonical_key(c).1.len())
            .sum::<usize>()
    });
    println!(
        "codec/canonical_key: {} keys of {:.1} constraints each per pass",
        constraints.len(),
        constraints.iter().map(Vec::len).sum::<usize>() as f64 / constraints.len() as f64
    );
}

/// The backward search itself: `synthesize` on a fresh engine at the
/// default config (the `triage` shape) and at `max_depth(48)`, over the
/// first genuine dump of one seeded program per generator class. At
/// depth 48 a node's global check carries dozens of steps of
/// constraints; each check starts from its parent's solver fixpoint,
/// so a node costs what its step adds. Each case's timing line is
/// followed by its heap allocations per call, the count
/// `tests/alloc_budget.rs` gates (there in the debug profile).
fn bench_search() {
    let g = Group::new("search").sample_size(50);
    let deep = ResConfig::builder().max_depth(48).build();
    for class in GenClass::ALL {
        let gp = generate(corpus_specs(&[class], 1, 23, 1)[0]);
        let dump = &collect_failures(&gp, 1)[0].dump;
        for (shape, config) in [("default", ResConfig::default()), ("depth48", deep.clone())] {
            let synthesize = || ResEngine::new(&gp.program, config.clone()).synthesize(dump);
            let id = format!("{shape}/{}", class.name());
            g.bench(&id, synthesize);
            let (_, allocations) = count_allocations(synthesize);
            println!(
                "{:<44} {allocations} allocations per call",
                format!("search/{id}")
            );
        }
    }
}

fn main() {
    bench_codec();
    bench_search();
    bench_replay();
    bench_e1_synthesis();
    bench_e2_figure1();
    bench_e3_length_sweep();
    bench_e8_recording();
    bench_a3_solver();
}
