//! Lifecycle tests for the `res-serve` triage daemon: hot-store LRU
//! eviction/commit/reopen, concurrent-vs-sequential byte identity,
//! bounded-queue backpressure, and containment of a panicking job.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use res_debugger::prelude::*;
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
/// solver's cache-provenance counters (`store_hits`, `absorbed_hits`)
/// legitimately differ between a cold run and a warm one.
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
/// store. The panicking input is a dump whose `faulting_tid` names no
/// thread, which the engine does not validate.
#[test]
fn panicking_job_is_answered_with_an_error_and_contained() {
    let dir = temp_dir("panic");
    let corpus = small_corpus(vec![BugKind::DivByZero], 1);
    let report = &corpus[0];
    let mut bad = request_for(report);
    bad.dump.faulting_tid = 99;
    assert!(bad.dump.threads.iter().all(|t| t.tid != 99));

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
