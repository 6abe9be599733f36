//! Lifecycle tests for the `res-serve` triage daemon: hot-store LRU
//! eviction/commit/reopen, concurrent-vs-sequential byte identity,
//! bounded-queue backpressure, budget admission, and containment of a
//! panicking job.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use res_debugger::isa::FuncId;
use res_debugger::prelude::*;
use res_debugger::res::Budget;
use res_debugger::serve::wire::{read_response, write_frame, REQUEST_TAG};
use res_debugger::serve::{serve, ServeConfig, TriageClient, WireRequest, WireResponse};
use res_debugger::store::program_fingerprint;
use res_debugger::triage::{triage, TriageRequest, TriageResponse};
use res_debugger::workloads::{generate_corpus, CorpusSpec, FailureReport};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("res-serve-life-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_corpus(kinds: Vec<BugKind>, per_kind: usize) -> Vec<FailureReport> {
    generate_corpus(&CorpusSpec {
        kinds,
        per_kind,
        ..CorpusSpec::default()
    })
}

fn request_for(r: &FailureReport) -> TriageRequest {
    TriageRequest::new(r.program.clone(), r.dump.clone())
}

/// The identity currency: verdict, bucket key, and the full byte
/// rendering of every suffix. Kernel stats are excluded on purpose:
/// the store contract preserves answers and search shape, but the
/// solver's cache-provenance counter (`store_hits`) legitimately
/// differs between a cold run and a warm one.
fn identity(resp: &TriageResponse) -> String {
    format!(
        "{:?}|{}|{}|{:?}",
        resp.verdict, resp.deadlock, resp.bucket_key, resp.suffixes
    )
}

#[test]
fn lru_eviction_commits_the_store_and_reopens_warm() {
    let dir = temp_dir("lru");
    let corpus = small_corpus(vec![BugKind::DivByZero, BugKind::UseAfterFree], 1);
    assert_eq!(corpus.len(), 2);
    let (a, b) = (&corpus[0], &corpus[1]);

    let handle = serve(ServeConfig {
        workers: 1,
        hot_cap: 1, // every program switch evicts
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("boot daemon");
    let mut client = TriageClient::connect(handle.addr()).expect("connect");

    let first_a = client
        .triage(request_for(a))
        .expect("io")
        .expect("admitted");
    // Checking out B evicts A; the eviction must commit A's store file.
    let _ = client
        .triage(request_for(b))
        .expect("io")
        .expect("admitted");
    let fp_a = program_fingerprint(&a.program);
    let a_file = dir.join(format!("{fp_a:016x}.resstore"));
    assert!(
        a_file.exists(),
        "evicting a program must commit its store to disk"
    );

    // A comes back: its committed store is re-opened and absorbed, and
    // the answer is byte-identical to the cold one.
    let again_a = client
        .triage(request_for(a))
        .expect("io")
        .expect("admitted");
    assert_eq!(identity(&first_a), identity(&again_a));

    // A third A on the now-warm store is a pure hot-set hit.
    let warm_a = client
        .triage(request_for(a))
        .expect("io")
        .expect("admitted");
    assert_eq!(identity(&first_a), identity(&warm_a));
    let stats = client.stats().expect("stats");
    assert!(stats.hot_evictions >= 2, "hot_cap=1 churns on every switch");
    assert!(stats.hot_hits >= 1, "the repeated request must hit warm");

    drop(client);
    let mut handle = handle;
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_submissions_match_sequential_library_runs() {
    let dir = temp_dir("concurrent");
    let corpus = small_corpus(
        vec![
            BugKind::DivByZero,
            BugKind::UseAfterFree,
            BugKind::DoubleFree,
        ],
        2,
    );
    assert_eq!(corpus.len(), 6);

    // Sequential ground truth straight through the library, no daemon,
    // no store.
    let base = ResConfig::default();
    let sequential: Vec<String> = corpus
        .iter()
        .map(|r| identity(&triage(&request_for(r), &base)))
        .collect();

    let handle = serve(ServeConfig {
        workers: 3,
        hot_cap: 2, // smaller than the 3 distinct programs: force churn
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("boot daemon");
    let addr = handle.addr().to_string();

    // One thread + one connection per report, all in flight at once.
    let answers: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = corpus
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let addr = addr.clone();
                let req = request_for(r);
                s.spawn(move || {
                    let mut client = TriageClient::connect(&addr).expect("connect");
                    let resp = client.triage(req).expect("io").expect("admitted");
                    (i, identity(&resp))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });

    for (i, got) in answers {
        assert_eq!(
            got, sequential[i],
            "concurrent daemon answer for report {i} diverged from the sequential library run"
        );
    }

    let mut handle = handle;
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_rejects_with_backpressure_response() {
    let corpus = small_corpus(vec![BugKind::DivByZero], 2);
    // workers: 0 — nothing drains the queue, so occupancy is
    // deterministic: the first request parks in the single slot forever.
    let handle = serve(ServeConfig {
        workers: 0,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("boot daemon");

    let mut occupant = TriageClient::connect(handle.addr()).expect("connect occupant");
    occupant
        .send(&WireRequest::Triage(request_for(&corpus[0])))
        .expect("send");

    // Wait until the daemon has actually enqueued it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut probe = TriageClient::connect(handle.addr()).expect("connect probe");
    loop {
        let stats = probe.stats().expect("stats");
        // `admitted` is bumped only after the job is in the queue.
        if stats.admitted == 1 && stats.queue_depth == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "request never reached the queue");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The queue is full: the next submission is answered immediately
    // with a well-formed backpressure response, not a hang.
    match probe.triage(request_for(&corpus[1])).expect("io") {
        Err(WireResponse::Rejected {
            reason,
            queue_depth,
        }) => {
            assert_eq!(reason, "queue full");
            assert_eq!(queue_depth, 1);
        }
        other => panic!("expected a queue-full rejection, got {other:?}"),
    }
    let stats = probe.stats().expect("stats");
    assert_eq!(stats.rejected_queue, 1);
    assert_eq!(stats.completed, 0);

    // Tear down with the occupant still parked: stop() cancels the
    // queued job rather than deadlocking on its reply.
    drop(probe);
    drop(occupant);
    let mut handle = handle;
    handle.stop();
}

/// A job that panics is answered with an error, and the daemon stays
/// whole: its one worker keeps serving, the program's store lock that
/// the panic poisoned is taken over, and `stop` still commits the hot
/// store. The panicking input is a dump whose faulting frame names a
/// function the program lacks: it decodes (the check needs the
/// program), and the engine does not validate it.
#[test]
fn panicking_job_is_answered_with_an_error_and_contained() {
    let dir = temp_dir("panic");
    let corpus = small_corpus(vec![BugKind::DivByZero], 1);
    let report = &corpus[0];
    let mut bad = request_for(report);
    let missing = FuncId(bad.program.funcs.len() as u32);
    let tid = bad.dump.faulting_tid;
    let faulting = bad.dump.threads.iter_mut().find(|t| t.tid == tid);
    faulting.expect("faulting thread").top_mut().func = missing;

    let mut handle = serve(ServeConfig {
        workers: 1,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("boot daemon");
    let mut client = TriageClient::connect(handle.addr()).expect("connect");
    match client.call(&WireRequest::Triage(bad)).expect("io") {
        WireResponse::Error(msg) => assert!(msg.contains("panicked"), "{msg}"),
        other => panic!("expected an error answer, got {other:?}"),
    }

    // The same program again, through the same (only) worker and the
    // same store: answered, and identical to the library.
    let expected = identity(&triage(&request_for(report), &ResConfig::default()));
    let resp = client
        .triage(request_for(report))
        .expect("io")
        .expect("admitted");
    assert_eq!(identity(&resp), expected);
    assert_eq!(client.stats().expect("stats").completed, 2);

    drop(client);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission never clamps: a request whose budget exceeds the daemon's
/// ceiling is answered `Rejected` with the item and the dimension, and
/// no job is queued. A batch's items run one after another in one
/// queue slot, so each item must fit an equal share of the ceiling,
/// the deadline included.
#[test]
fn over_budget_requests_are_rejected_before_the_queue() {
    let corpus = small_corpus(vec![BugKind::DivByZero], 1);
    let req = |max_nodes: u64, deadline_ms: u64| {
        request_for(&corpus[0])
            .max_nodes(max_nodes)
            .deadline_ms(deadline_ms)
    };
    let mut handle = serve(ServeConfig {
        workers: 1,
        ceiling: Some(Budget {
            max_nodes: 100,
            deadline: Some(Duration::from_millis(100)),
            ..Budget::default()
        }),
        ..ServeConfig::default()
    })
    .expect("boot daemon");
    let mut client = TriageClient::connect(handle.addr()).expect("connect");
    let rejection = |resp: WireResponse| match resp {
        WireResponse::Rejected { reason, .. } => reason,
        other => panic!("expected a budget rejection, got {other:?}"),
    };

    // A single request over the ceiling.
    let resp = client
        .triage(req(101, 100))
        .expect("io")
        .expect_err("admitted");
    assert_eq!(
        rejection(resp),
        "item 0: max_nodes 101 exceeds admitted ceiling 100"
    );

    // Each item fits the ceiling, but not its half of the node budget.
    let resp = client
        .bucket_batch(vec![req(50, 50), req(60, 50)])
        .expect("io")
        .expect_err("admitted");
    assert_eq!(
        rejection(resp),
        "item 1: max_nodes 60 exceeds admitted ceiling 50"
    );

    // Each item's deadline fits the ceiling, but three of them would
    // hold the worker for 110 ms: the last exceeds its third.
    let resp = client
        .hw_filter_batch(vec![req(30, 30), req(30, 30), req(30, 50)])
        .expect("io")
        .expect_err("admitted");
    assert_eq!(
        rejection(resp),
        "item 2: deadline 50ms exceeds admitted ceiling 33ms"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.rejected_budget, 3);
    assert_eq!(stats.admitted, 0, "no rejected request may be queued");
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.completed, 0);

    drop(client);
    handle.stop();
}

/// A client built when `TriageRequest` still had a `workers` field
/// sends `"workers":4`. The direct reader refuses the unknown key, and
/// `from_str` falls back to the tree path, which ignores it: the
/// request decodes as if the key were absent, and the daemon answers it
/// exactly as the library answers the request without it.
#[test]
fn old_request_that_sets_workers_is_answered_like_the_library() {
    use mvm_json::FromJson;

    let corpus = small_corpus(vec![BugKind::UseAfterFree], 1);
    let req = request_for(&corpus[0]);
    let with_workers = |json: String| {
        let old = json.replacen(
            "\"deadline_ms\":null,",
            "\"deadline_ms\":null,\"workers\":4,",
            1,
        );
        assert_ne!(old, json, "the request has a deadline_ms key");
        old
    };
    let old = with_workers(mvm_json::to_string(&req));
    assert!(
        TriageRequest::read_json(&mut mvm_json::Reader::new(&old)).is_none(),
        "the direct reader refuses the unknown key"
    );
    assert_eq!(mvm_json::from_str::<TriageRequest>(&old), Ok(req.clone()));

    let mut handle = serve(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    })
    .expect("boot daemon");
    let mut conn = std::net::TcpStream::connect(handle.addr()).expect("connect");
    let frame = with_workers(mvm_json::to_string(&WireRequest::Triage(req.clone())));
    write_frame(&mut conn, REQUEST_TAG, &frame).expect("send");
    let resp = read_response(&mut std::io::BufReader::new(&conn))
        .expect("io")
        .expect("an answer");
    let WireResponse::Triage(resp) = resp else {
        panic!("expected a triage answer, got {resp:?}");
    };
    assert_eq!(
        identity(&resp),
        identity(&triage(&req, &ResConfig::default()))
    );

    drop(conn);
    handle.stop();
}
