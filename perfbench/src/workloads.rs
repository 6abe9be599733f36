//! The workloads and their answer checks.
//!
//! * `triage` — library `res_triage::triage` over an E5c-shaped
//!   population: the common path (fresh engine, shallow search,
//!   verdict scope, replay and bucketing; no store, no wire codec).
//! * `hwfilter` — library `hardware_verdict` over the E7c classes with
//!   a shared, warmed store; one dump in four is hardware-corrupted, so
//!   per-call overhead and store commits dominate the sweep.
//! * `deep` — `ResEngine::synthesize` at `max_depth(48)`, `workers(2)`:
//!   the only workload where speculation runs and the kernel dominates.
//! * `daemon` — `res_serve::serve` in-process on loopback, driven by a
//!   closed loop of two `TriageClient`s: wire codec, hot-store absorb
//!   and queueing on every request.
//!
//! `BENCHMARK.json` lists only `triage` and `hwfilter`. `deep` and
//! `daemon` need both of a two-core host's CPUs at once (per-call
//! speculative threads; two clients and two workers). On a shared host
//! that moves `deep`'s timings by more than a usable regression bound,
//! and makes `daemon`'s throughput at its fastest round trips overstate
//! the sustained rate; they stay runnable for diagnosis.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mvm_core::{Coredump, HwFlavor};
use mvm_isa::{Program, Reg};
use mvm_prng::SplitMix64;
use mvm_symbolic::{PortableCache, SolverSession};
use res_core::{
    hardware_verdict, hardware_verdict_in_store, replay_suffix, ExecutionSuffix, HwVerdict, Relax,
    ResConfig, ResEngine, SynthesisResult, Verdict,
};
use res_obs::Recorder;
use res_serve::wire::{read_request, read_response, write_request, write_response};
use res_serve::{serve, ServeConfig, ServerHandle, TriageClient, WireRequest, WireResponse};
use res_store::{program_fingerprint, SolverStore};
use res_triage::{
    bucket_key_for, deadlock_bucket_key, triage, triage_in_store, with_shared_store, SuffixSummary,
    TriageRequest, TriageResponse,
};
use res_workloads::gen::{hardware_variant, GenClass};

use crate::layers::{self, time, Counts, Extra};
use crate::pop::{generate_population, hangs, seeded_order, triage_population, TRIAGE_PROGRAMS};
use crate::{
    closed_loop, end_to_end, failed_ops_note, ratio, repeated_setup, Args, Outcome, Timed, WorkDir,
};

pub const NAMES: [&str; 4] = ["triage", "hwfilter", "deep", "daemon"];

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    match args.workload.as_str() {
        "triage" => library::<TriageWl>(args, work),
        "hwfilter" => library::<HwFilterWl>(args, work),
        "deep" => library::<DeepWl>(args, work),
        _ => daemon(args, work),
    }
}

// ---------------------------------------------------------------------
// Shared pieces.

/// The byte-identity of a triage answer: verdict, deadlock flag, bucket
/// key and every suffix. Kernel stats are left out because store
/// provenance counters legitimately differ between cold and warm runs.
fn identity(r: &TriageResponse) -> String {
    format!(
        "{:?}|{}|{}|{:?}",
        r.verdict, r.deadlock, r.bucket_key, r.suffixes
    )
}

fn suffix_bytes(suffixes: &[ExecutionSuffix]) -> Vec<String> {
    suffixes.iter().map(|s| format!("{s:?}")).collect()
}

/// The checked reference answer for a triage request: deadlock dumps
/// must get the deadlock key; every other dump must yield
/// `SuffixFound` with a suffix `replay_suffix` reproduces, and the
/// suffixes must equal a direct `synthesize`.
fn triage_reference(req: &TriageRequest, cfg: &ResConfig) -> Result<String, String> {
    let resp = triage(req, cfg);
    if let Some(key) = deadlock_bucket_key(&req.dump) {
        return if resp.deadlock && resp.bucket_key == key {
            Ok(identity(&resp))
        } else {
            Err(format!("deadlock dump bucketed as {}", resp.bucket_key))
        };
    }
    let result = ResEngine::new(&req.program, cfg.clone()).synthesize(&req.dump);
    if result.verdict != Verdict::SuffixFound {
        return Err(format!("verdict {:?}", result.verdict));
    }
    if !result
        .suffixes
        .iter()
        .any(|s| replay_suffix(&req.program, &req.dump, s).reproduced)
    {
        return Err("no suffix reproduces the fault".into());
    }
    let direct = suffix_bytes(&result.suffixes);
    if resp.suffixes.iter().map(|s| &s.bytes).ne(direct.iter()) {
        return Err("triage suffixes differ from a direct synthesize".into());
    }
    Ok(identity(&resp))
}

/// Reference answers, with a note per input that failed its check.
fn references<T>(
    n: usize,
    mut reference: impl FnMut(usize) -> Result<T, String>,
    notes: &mut Vec<String>,
) -> Vec<Option<T>> {
    (0..n)
        .map(|i| match reference(i) {
            Ok(v) => Some(v),
            Err(why) => {
                notes.push(format!("input {i} fails its answer check: {why}"));
                None
            }
        })
        .collect()
}

/// The response `triage` would build from a synthesis result.
fn response_of(
    result: &SynthesisResult,
    suffixes: Vec<SuffixSummary>,
    bucket_key: String,
    trace: Option<String>,
) -> TriageResponse {
    TriageResponse {
        verdict: result.verdict.clone(),
        deadlock: false,
        bucket_key,
        suffixes,
        stats: result.stats.clone(),
        parallel: result.parallel.clone(),
        store: result.store,
        trace,
        req_id: None,
    }
}

fn summaries(suffixes: &[ExecutionSuffix], replayed: &[bool]) -> Vec<SuffixSummary> {
    suffixes
        .iter()
        .zip(replayed)
        .map(|(s, &replayed)| SuffixSummary {
            bytes: format!("{s:?}"),
            steps: s.len(),
            instructions: s.total_steps(),
            replayed,
        })
        .collect()
}

/// Total size of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Spanned calls shared by the traced operations.

/// `replay_suffix` on every suffix, then `bucket_key_for` (which
/// replays again), as children of `parent`.
fn replay_and_bucket(
    rec: &Recorder,
    parent: Option<u64>,
    program: &Program,
    dump: &Coredump,
    suffixes: &[ExecutionSuffix],
) -> (Vec<bool>, String) {
    let replayed = suffixes
        .iter()
        .map(|s| {
            time(rec, "res.replay", parent, || {
                replay_suffix(program, dump, s).reproduced
            })
        })
        .collect();
    let key = time(rec, "triage.bucket", parent, || {
        bucket_key_for(program, dump, suffixes)
    });
    (replayed, key)
}

/// `record_trace` + `to_text_bytes` on the first suffix that records,
/// as `triage` does for `return_trace`.
fn record(
    rec: &Recorder,
    parent: Option<u64>,
    program: &Program,
    dump: &Coredump,
    suffixes: &[ExecutionSuffix],
    key: &str,
    counts: &mut Option<&mut Counts>,
) -> Option<String> {
    let text = time(rec, "trace.record", parent, || {
        suffixes.iter().find_map(|s| {
            res_trace::record_trace(
                program,
                dump,
                s,
                Some(key.to_string()),
                &Recorder::disabled(),
            )
            .ok()
            .map(|tf| String::from_utf8(tf.to_text_bytes()).expect("text trace is utf-8"))
        })
    });
    if let (Some(c), Some(text)) = (counts.as_deref_mut(), &text) {
        c.traces += 1;
        c.trace_bytes += text.len() as u64;
    }
    text
}

/// The four wire codec calls of one round trip on these payloads.
fn codec(
    rec: &Recorder,
    parent: Option<u64>,
    req: &WireRequest,
    resp: &WireResponse,
    counts: &mut Option<&mut Counts>,
) {
    let (req_len, resp_len) = time(rec, "serve.codec", parent, || {
        let mut req_bytes = Vec::new();
        write_request(&mut req_bytes, req).expect("encode request");
        let back = read_request(&mut &req_bytes[..]).expect("decode request");
        let mut resp_bytes = Vec::new();
        write_response(&mut resp_bytes, resp).expect("encode response");
        let back_resp = read_response(&mut &resp_bytes[..]).expect("decode response");
        std::hint::black_box((back, back_resp));
        (req_bytes.len(), resp_bytes.len())
    });
    if let Some(c) = counts.as_deref_mut() {
        c.requests += 1;
        c.request_bytes += req_len as u64;
        c.response_bytes += resp_len as u64;
    }
}

/// Probes on an operation's dump, under `root`: the whole-dump JSON
/// encoding that `verdict_scope` performs inside every `synthesize`,
/// and one `synthesize` at one and at two workers (their difference is
/// the price of speculation on this dump).
fn probe_dump(
    rec: &Recorder,
    root: Option<u64>,
    program: &Program,
    dump: &Coredump,
    cfg: &ResConfig,
    counts: &mut Option<&mut Counts>,
) {
    let json = time(rec, "serdes.dump_encode", root, || {
        mvm_json::to_string(dump)
    });
    if let Some(c) = counts.as_deref_mut() {
        c.dumps += 1;
        c.dump_bytes += json.len() as u64;
    }
    for (workers, name) in [(1, "spec.w1"), (2, "spec.w2")] {
        let mut cfg = cfg.clone();
        cfg.workers = workers;
        cfg.cache_path = None;
        let engine = ResEngine::new(program, cfg);
        let result = time(rec, name, root, || engine.synthesize(dump));
        if let (Some(c), Some(p)) = (counts.as_deref_mut(), &result.parallel) {
            c.spec_calls += 1;
            c.speculative_nodes += p.speculative.nodes_expanded;
        }
    }
}

/// Probes on a store file, under `root`: open, absorb into a fresh
/// session, and a commit after merging `export` (with one noted hit, as
/// every warm `synthesize` leaves dirty hit counters behind).
fn probe_store(rec: &Recorder, root: Option<u64>, path: &Path, fp: u64, export: &PortableCache) {
    let mut store = time(rec, "store.open", root, || SolverStore::open(path, fp));
    let session = SolverSession::new();
    time(rec, "store.absorb", root, || store.absorb_into(&session));
    store.merge(export);
    store.note_hits(1);
    let committed = time(rec, "store.commit", root, || store.commit());
    committed.expect("commit probe store");
}

// ---------------------------------------------------------------------
// Library workloads.

trait Library: Sized {
    type Answer;
    fn setup(seed: u64, work: &WorkDir) -> Self;
    fn len(&self) -> usize;
    /// Untimed work before operation `i` (before its traced form too).
    fn prepare(&self, _i: usize) {}
    fn op(&self, i: usize) -> Self::Answer;
    fn check(&self, i: usize, answer: &Self::Answer) -> bool;
    /// Operation `i` with spans and probes under `root`; adds its
    /// counts when asked. Returns whether its answer was right.
    fn traced(
        &self,
        rec: &Recorder,
        root: Option<u64>,
        i: usize,
        counts: Option<&mut Counts>,
    ) -> bool;
    fn store_file_bytes(&self) -> u64 {
        0
    }
    /// Answer checks made during set-up that failed; each counts as a
    /// failed operation.
    fn setup_failures(&self) -> u64 {
        0
    }
    fn notes(&self) -> &[String];
}

fn library<W: Library>(args: &Args, work: &WorkDir) -> Outcome {
    if !args.trace {
        let (w, setup_s) = repeated_setup(|| W::setup(args.seed, work));
        let timed = closed_loop(
            args.seconds,
            w.len(),
            |i| w.prepare(i),
            |i| w.op(i),
            |i, a| w.check(i, a),
        );
        let mut notes = w.notes().to_vec();
        let failed = timed.failed + w.setup_failures();
        let metrics = end_to_end(&timed, 1, setup_s, &mut notes);
        notes.push(failed_ops_note(failed, timed.attempted));
        return Outcome {
            attempted: timed.attempted,
            failed,
            metrics,
            notes,
        };
    }
    let w = W::setup(args.seed, work);
    let start = Instant::now();
    let rec = Recorder::memory();
    let mut counts = Counts::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut traced_op = |i: usize, counts: Option<&mut Counts>| {
        w.prepare(i);
        let root = rec.span("bench.op");
        attempted += 1;
        if !w.traced(&rec, root.id(), i, counts) {
            failed += 1;
        }
    };
    // The counting pass: every input once, in order.
    for i in 0..w.len() {
        traced_op(i, Some(&mut counts));
    }
    let store_file_bytes = w.store_file_bytes();
    let base = closed_loop(
        args.seconds / 3.0,
        w.len(),
        |i| w.prepare(i),
        |i| w.op(i),
        |i, a| w.check(i, a),
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let n = w.len();
    let mut i = 0;
    while start.elapsed() < budget {
        traced_op(i % n, None);
        i += 1;
    }
    let extra = Extra {
        base_p50_us: base.p50_us(),
        overhead_root: "op",
        store_file_bytes,
        ..Extra::default()
    };
    let tally = (
        attempted + base.attempted,
        failed + base.failed + w.setup_failures(),
    );
    finish_traced(args, &rec, &counts, &extra, tally, w.notes().to_vec())
}

/// Writes the spans and assembles the per-layer outcome; `tally` is
/// `(attempted, failed)` over every operation of the run.
fn finish_traced(
    args: &Args,
    rec: &Recorder,
    counts: &Counts,
    extra: &Extra,
    (attempted, failed): (u64, u64),
    mut notes: Vec<String>,
) -> Outcome {
    let events = rec.snapshot();
    let path =
        Path::new(".perfbench").join(format!("journal-{}-seed{}.jsonl", args.workload, args.seed));
    match layers::write_journal(&events, &path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("cannot write {}: {e}", path.display())),
    }
    notes.push(failed_ops_note(failed, attempted));
    Outcome {
        attempted,
        failed,
        metrics: layers::metrics(&events, counts, extra),
        notes,
    }
}

// --- triage -----------------------------------------------------------

struct TriageWl {
    cfg: ResConfig,
    reqs: Vec<TriageRequest>,
    expect: Vec<Option<String>>,
    /// Hang dumps that failed their set-up check (see `setup`).
    hang_failures: u64,
    journal: PathBuf,
    notes: Vec<String>,
}

impl Library for TriageWl {
    type Answer = TriageResponse;

    /// Hang dumps are answer-checked here and not timed: `triage`
    /// answers them from the blocked-site set in microseconds, and the
    /// workload measures the common path (engine, search, scope, replay,
    /// bucketing). Timed among the rest they would put the median
    /// operation on the sparse edge between two cost clusters.
    fn setup(seed: u64, work: &WorkDir) -> Self {
        let cfg = ResConfig::default();
        let (hangs, reqs): (Vec<TriageRequest>, Vec<TriageRequest>) = triage_population(seed)
            .into_iter()
            .map(|(p, d)| TriageRequest::new(p, d))
            .partition(|r| deadlock_bucket_key(&r.dump).is_some());
        let mut notes = vec![format!(
            "population: {} dumps of {TRIAGE_PROGRAMS} generated programs (all {} classes); \
             {} hang dumps checked in set-up",
            reqs.len(),
            GenClass::ALL.len(),
            hangs.len()
        )];
        let expect = references(reqs.len(), |i| triage_reference(&reqs[i], &cfg), &mut notes);
        let hang_failures = references(
            hangs.len(),
            |i| triage_reference(&hangs[i], &cfg),
            &mut notes,
        )
        .iter()
        .filter(|r| r.is_none())
        .count() as u64;
        TriageWl {
            cfg,
            reqs,
            expect,
            hang_failures,
            journal: work.path().join("triage.journal.jsonl"),
            notes,
        }
    }

    fn setup_failures(&self) -> u64 {
        self.hang_failures
    }

    fn len(&self) -> usize {
        self.reqs.len()
    }

    fn op(&self, i: usize) -> TriageResponse {
        triage(&self.reqs[i], &self.cfg)
    }

    fn check(&self, i: usize, answer: &TriageResponse) -> bool {
        self.expect[i].as_deref() == Some(identity(answer).as_str())
    }

    fn traced(
        &self,
        rec: &Recorder,
        root: Option<u64>,
        i: usize,
        mut counts: Option<&mut Counts>,
    ) -> bool {
        let (req, cfg) = (&self.reqs[i], &self.cfg);
        let (program, dump) = (&req.program, &req.dump);
        let path = rec.span_under("op", root);
        let searched = match time(rec, "triage.deadlock", path.id(), || {
            deadlock_bucket_key(dump)
        }) {
            Some(_) => None,
            None => {
                let engine = time(rec, "res.engine_build", path.id(), || {
                    ResEngine::new(program, cfg.clone())
                });
                let result = time(rec, "res.synthesize", path.id(), || {
                    engine.synthesize_with(dump, req.synth_options(cfg))
                });
                let (replayed, key) =
                    replay_and_bucket(rec, path.id(), program, dump, &result.suffixes);
                let resp = response_of(&result, summaries(&result.suffixes, &replayed), key, None);
                Some((result, resp))
            }
        };
        path.end();
        let replica = searched.map(|(result, resp)| {
            if let Some(c) = counts.as_deref_mut() {
                c.add_search(&result.stats, result.store.as_ref());
            }
            record(
                rec,
                root,
                program,
                dump,
                &result.suffixes,
                &resp.bucket_key,
                &mut counts,
            );
            identity(&resp)
        });
        let whole = time(rec, "triage.whole", root, || triage(req, cfg));
        let mut journaled = req.clone();
        journaled.trace = Some(self.journal.to_string_lossy().into_owned());
        time(rec, "obs.journal", root, || triage(&journaled, cfg));
        probe_dump(rec, root, program, dump, cfg, &mut counts);
        codec(
            rec,
            root,
            &WireRequest::Triage(req.clone()),
            &WireResponse::Triage(whole.clone()),
            &mut counts,
        );
        let expected = self.expect[i].as_deref();
        expected == Some(identity(&whole).as_str())
            && replica.is_none_or(|r| Some(r.as_str()) == expected)
    }

    fn notes(&self) -> &[String] {
        &self.notes
    }
}

// --- deep -------------------------------------------------------------

/// Warm-up calls before timing (thread start-up and allocator state;
/// every call builds a fresh engine, so nothing else carries over).
const DEEP_WARMUP: usize = 8;

struct DeepWl {
    cfg: ResConfig,
    inputs: Vec<(Program, Coredump)>,
    expect: Vec<Option<Vec<String>>>,
    notes: Vec<String>,
}

impl Library for DeepWl {
    type Answer = SynthesisResult;

    fn setup(seed: u64, _work: &WorkDir) -> Self {
        let cfg = ResConfig::builder().max_depth(48).workers(2).build();
        let inputs: Vec<(Program, Coredump)> = triage_population(seed)
            .into_iter()
            .filter(|(_, d)| deadlock_bucket_key(d).is_none())
            .collect();
        let mut notes = vec![format!(
            "population: {} non-deadlock dumps of the triage population, max_depth 48, 2 workers",
            inputs.len()
        )];
        // The reference is the sequential search; speculation must
        // never change a suffix byte.
        let mut sequential = cfg.clone();
        sequential.workers = 1;
        let expect = references(
            inputs.len(),
            |i| {
                let (p, d) = &inputs[i];
                Ok(suffix_bytes(
                    &ResEngine::new(p, sequential.clone()).synthesize(d).suffixes,
                ))
            },
            &mut notes,
        );
        let w = DeepWl {
            cfg,
            inputs,
            expect,
            notes,
        };
        for i in 0..w.len().min(DEEP_WARMUP) {
            w.op(i);
        }
        w
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn op(&self, i: usize) -> SynthesisResult {
        let (p, d) = &self.inputs[i];
        ResEngine::new(p, self.cfg.clone()).synthesize(d)
    }

    fn check(&self, i: usize, answer: &SynthesisResult) -> bool {
        self.expect[i].as_ref() == Some(&suffix_bytes(&answer.suffixes))
    }

    fn traced(
        &self,
        rec: &Recorder,
        root: Option<u64>,
        i: usize,
        mut counts: Option<&mut Counts>,
    ) -> bool {
        let (program, dump) = (&self.inputs[i].0, &self.inputs[i].1);
        let cfg = &self.cfg;
        let path = rec.span_under("op", root);
        let engine = time(rec, "res.engine_build", path.id(), || {
            ResEngine::new(program, cfg.clone())
        });
        let result = time(rec, "res.synthesize", path.id(), || engine.synthesize(dump));
        path.end();
        if let Some(c) = counts.as_deref_mut() {
            c.add_search(&result.stats, result.store.as_ref());
        }
        let (replayed, key) = replay_and_bucket(rec, root, program, dump, &result.suffixes);
        let trace = record(
            rec,
            root,
            program,
            dump,
            &result.suffixes,
            &key,
            &mut counts,
        );
        probe_dump(rec, root, program, dump, cfg, &mut counts);
        let req = TriageRequest::new(program.clone(), dump.clone()).workers(cfg.workers);
        let resp = response_of(&result, summaries(&result.suffixes, &replayed), key, trace);
        codec(
            rec,
            root,
            &WireRequest::Triage(req),
            &WireResponse::Triage(resp),
            &mut counts,
        );
        self.check(i, &result)
    }

    fn notes(&self) -> &[String] {
        &self.notes
    }
}

// --- hwfilter ---------------------------------------------------------

/// The E7c classes: those whose genuine dumps the engine fully explains.
const HW_CLASSES: [GenClass; 4] = [
    GenClass::DataRace,
    GenClass::DivByZero,
    GenClass::LocalOverflow,
    GenClass::UseAfterFree,
];
/// Programs: seven per class, so that more than ten of the 112 inputs
/// lie above the 90th percentile.
const HW_PROGRAMS: usize = 7 * HW_CLASSES.len();
/// Dumps per program.
const HW_DUMPS: usize = 4;
/// The dump of each program that `hardware_variant` corrupts.
const HW_CORRUPTED: usize = 1;

struct HwInput {
    program: Program,
    dump: Coredump,
    corrupted: bool,
    prog: usize,
}

struct HwFilterWl {
    inputs: Vec<HwInput>,
    cfgs: Vec<ResConfig>,
    expect: Vec<Option<HwVerdict>>,
    /// Each program's store file as set-up left it, moved aside. Every
    /// `synthesize` commits, appending a stats record the default
    /// compaction policy never reclaims, so the files would grow all
    /// run and each call would cost more than the one before. Before
    /// each call the program's store path is hard-linked back to its
    /// snapshot: the commit replaces the file by rename and never
    /// writes into it, and the restore writes no data the call's
    /// `sync_all` would have to flush.
    snapshots: Vec<PathBuf>,
    notes: Vec<String>,
}

fn store_path(cfg: &ResConfig) -> &Path {
    cfg.cache_path
        .as_deref()
        .expect("hwfilter runs with a store")
}

fn flagged(v: &HwVerdict) -> bool {
    matches!(v, HwVerdict::HardwareSuspected { .. })
}

impl Library for HwFilterWl {
    type Answer = HwVerdict;

    /// The inputs depend on the seed alone. The injector's report is
    /// the ground truth: a dump it corrupted must be flagged, and every
    /// other dump must not be. A dump that fails its check here fails
    /// on every timed call too.
    ///
    /// Each program's store is warmed through one open store and
    /// committed once, so set-up pays one `sync_all` per program instead
    /// of one per `synthesize`: host I/O would otherwise dominate
    /// `setup_s`. The timed calls, which commit as usual, must give the
    /// same verdicts, since a store never changes an answer.
    fn setup(seed: u64, work: &WorkDir) -> Self {
        let store_dir = work.fresh("hwstore");
        let snapshot_dir = work.fresh("hwsnapshot");
        let base = ResConfig::default();
        let mut w = HwFilterWl {
            inputs: Vec::new(),
            cfgs: Vec::new(),
            expect: Vec::new(),
            snapshots: Vec::new(),
            notes: Vec::new(),
        };
        let population = generate_population(&HW_CLASSES, HW_PROGRAMS, |_| HW_DUMPS, seed);
        for (prog, (gp, failures)) in population.iter().enumerate() {
            let cfg = with_shared_store(&base, &store_dir, &gp.program);
            let mut store = SolverStore::open(store_path(&cfg), program_fingerprint(&gp.program));
            let flavor = if prog % 2 == 0 {
                HwFlavor::BitFlip
            } else {
                HwFlavor::RegCorrupt
            };
            for (k, failure) in failures.iter().enumerate() {
                let (dump, corrupted) = if k == HW_CORRUPTED {
                    let (dump, injected) = hardware_variant(gp, failure, flavor);
                    (dump, injected.is_some())
                } else {
                    (failure.dump.clone(), false)
                };
                let v = hardware_verdict_in_store(&gp.program, &dump, &base, &mut store);
                let ok = flagged(&v) == corrupted;
                if !ok {
                    w.notes.push(format!(
                        "input {} (corrupted: {corrupted}) fails its answer check: {v:?}",
                        w.inputs.len()
                    ));
                }
                w.expect.push(ok.then_some(v));
                w.inputs.push(HwInput {
                    program: gp.program.clone(),
                    dump,
                    corrupted,
                    prog,
                });
            }
            store.commit().expect("commit the warmed store");
            let snapshot = snapshot_dir.join(format!("{prog}.resstore"));
            std::fs::rename(store_path(&cfg), &snapshot).expect("move the warmed store aside");
            w.snapshots.push(snapshot);
            w.cfgs.push(cfg);
        }
        let corrupted = w.inputs.iter().filter(|i| i.corrupted).count();
        w.notes.insert(
            0,
            format!(
                "population: {} dumps of {} programs, {corrupted} hardware-corrupted \
                 (dump {HW_CORRUPTED} of each), warm shared store",
                w.inputs.len(),
                w.cfgs.len()
            ),
        );
        w
    }

    fn len(&self) -> usize {
        self.inputs.len()
    }

    fn prepare(&self, i: usize) {
        let prog = self.inputs[i].prog;
        let live = store_path(&self.cfgs[prog]);
        let _ = std::fs::remove_file(live);
        std::fs::hard_link(&self.snapshots[prog], live).expect("restore the store file");
    }

    fn op(&self, i: usize) -> HwVerdict {
        let inp = &self.inputs[i];
        hardware_verdict(&inp.program, &inp.dump, &self.cfgs[inp.prog])
    }

    fn check(&self, i: usize, answer: &HwVerdict) -> bool {
        self.expect[i].as_ref() == Some(answer)
    }

    /// The path is the library's own `hardware_verdict`. Probes on the
    /// same configuration, from the same restored store, time the calls
    /// a sweep repeats: the engine build with its store open and absorb,
    /// the base `synthesize` and, when that finds no suffix, one
    /// relaxation.
    fn traced(
        &self,
        rec: &Recorder,
        root: Option<u64>,
        i: usize,
        mut counts: Option<&mut Counts>,
    ) -> bool {
        let inp = &self.inputs[i];
        let (program, dump) = (&inp.program, &inp.dump);
        let cfg = &self.cfgs[inp.prog];
        let verdict = {
            let path = rec.span_under("op", root);
            time(rec, "hw.verdict", path.id(), || {
                hardware_verdict(program, dump, cfg)
            })
        };
        self.prepare(i);
        let engine = time(rec, "hw.engine", root, || {
            ResEngine::new(program, cfg.clone())
        });
        let mut synth = |relax: Relax| {
            let r = time(rec, "res.synthesize", root, || {
                engine.synthesize_relaxed(dump, relax)
            });
            if let Some(c) = counts.as_deref_mut() {
                c.add_search(&r.stats, r.store.as_ref());
            }
            r
        };
        let base = synth(Relax::None);
        if matches!(base.verdict, Verdict::NoFeasibleSuffix { .. }) {
            synth(Relax::Reg { reg: Reg(0) });
        }
        probe_store(
            rec,
            root,
            store_path(cfg),
            program_fingerprint(program),
            &engine.session().export_portable(),
        );
        let mut plain = cfg.clone();
        plain.cache_path = None;
        time(rec, "res.engine_build", root, || {
            ResEngine::new(program, plain.clone())
        });
        let (_, key) = replay_and_bucket(rec, root, program, dump, &base.suffixes);
        record(rec, root, program, dump, &base.suffixes, &key, &mut counts);
        probe_dump(rec, root, program, dump, &plain, &mut counts);
        let req = TriageRequest::new(program.clone(), dump.clone());
        codec(
            rec,
            root,
            &WireRequest::HwFilterBatch(vec![req]),
            &WireResponse::HwFilterBatch(vec![verdict.clone()]),
            &mut counts,
        );
        self.check(i, &verdict)
    }

    fn store_file_bytes(&self) -> u64 {
        self.snapshots
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }

    fn notes(&self) -> &[String] {
        &self.notes
    }
}

// ---------------------------------------------------------------------
// The daemon workload.

/// Concurrent client connections (a closed loop: each waits for its
/// reply before sending the next request).
const CLIENTS: usize = 2;
/// Distinct programs: at most the daemon's default `hot_cap` of 8, so
/// the hot store never thrashes.
const DAEMON_PROGRAMS: usize = 8;
/// Dumps per program: 104 requests, so that more than ten lie above
/// the 90th percentile.
const DAEMON_DUMPS: usize = 13;
/// Population shuffles in the send schedule.
const SCHEDULE_CYCLES: u64 = 256;

struct Daemon {
    reqs: Vec<TriageRequest>,
    expect: Vec<Option<String>>,
    /// The order clients send requests in: a fresh seeded shuffle of
    /// the population per cycle, so which requests run concurrently
    /// (and contend for one program's store) varies through a run
    /// instead of settling into one pattern per run.
    schedule: Vec<usize>,
    handle: ServerHandle,
    store_file_bytes: u64,
    notes: Vec<String>,
}

fn serve_config(store_dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: 2,
        store_dir: Some(store_dir.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Inputs, library reference answers, a daemon, and one sequential
/// warm-up pass; the daemon is then restarted so its hot stores are
/// committed to disk and reopened warm.
fn daemon_setup(seed: u64, work: &WorkDir) -> Daemon {
    let classes: Vec<GenClass> = GenClass::ALL.into_iter().filter(|&c| !hangs(c)).collect();
    let pairs: Vec<(Program, Coredump)> =
        generate_population(&classes, DAEMON_PROGRAMS, |_| DAEMON_DUMPS, seed)
            .into_iter()
            .flat_map(|(gp, failures)| {
                let program = gp.program;
                failures.into_iter().map(move |f| (program.clone(), f.dump))
            })
            .collect();
    let reqs: Vec<TriageRequest> = seeded_order(pairs.len(), seed)
        .into_iter()
        .enumerate()
        .map(|(pos, k)| {
            let (p, d) = pairs[k].clone();
            TriageRequest::new(p, d).return_trace(pos % 4 == 3)
        })
        .collect();
    let mut notes = vec![format!(
        "population: {} requests over {DAEMON_PROGRAMS} programs of the non-hang classes, \
         one in four with return_trace, {CLIENTS} clients",
        reqs.len()
    )];
    let cfg = ResConfig::default();
    let expect = references(reqs.len(), |i| triage_reference(&reqs[i], &cfg), &mut notes);
    let store_dir = work.fresh("hot");
    let mut handle = serve(serve_config(&store_dir)).expect("start the daemon");
    {
        let mut client = TriageClient::connect(handle.addr()).expect("connect to the daemon");
        for (k, req) in reqs.iter().enumerate() {
            match client.triage(req.clone()) {
                Ok(Ok(resp)) if expect[k].as_deref() == Some(identity(&resp).as_str()) => {}
                other => notes.push(format!("warm-up request {k}: unexpected reply {other:?}")),
            }
        }
    }
    handle.stop();
    let store_file_bytes = dir_bytes(&store_dir);
    let handle = serve(serve_config(&store_dir)).expect("restart the daemon");
    let schedule = (0..SCHEDULE_CYCLES)
        .flat_map(|c| seeded_order(reqs.len(), SplitMix64::mix(seed, c)))
        .collect();
    Daemon {
        reqs,
        expect,
        schedule,
        handle,
        store_file_bytes,
        notes,
    }
}

/// The closed loop: [`CLIENTS`] connections take requests in seeded
/// order from a shared cursor for `seconds`. A round trip runs from the
/// `TriageClient::triage` call until the decoded reply arrives; each is
/// recorded as a `serve.rtt` span on `rec` (a no-op when disabled).
fn daemon_loop(d: &Daemon, seconds: f64, rec: &Recorder) -> Timed {
    let next = AtomicUsize::new(0);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let parts: Vec<Timed> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut timed = Timed::default();
                    let Ok(mut client) = TriageClient::connect(d.handle.addr()) else {
                        timed.attempted = 1;
                        timed.failed = 1;
                        return timed;
                    };
                    while start.elapsed() < budget {
                        let k = d.schedule[next.fetch_add(1, Ordering::Relaxed) % d.schedule.len()];
                        let req = d.reqs[k].clone();
                        let span = rec.span("serve.rtt");
                        let t0 = Instant::now();
                        let reply = client.triage(req);
                        timed.record(k, t0);
                        span.end();
                        timed.attempted += 1;
                        match reply {
                            Ok(Ok(resp))
                                if d.expect[k].as_deref() == Some(identity(&resp).as_str()) => {}
                            Ok(_) => timed.failed += 1,
                            Err(_) => {
                                timed.failed += 1;
                                break;
                            }
                        }
                    }
                    timed.wall_s = start.elapsed().as_secs_f64();
                    timed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut timed = Timed::default();
    for part in parts {
        timed.merge(part);
    }
    timed
}

fn daemon(args: &Args, work: &WorkDir) -> Outcome {
    if !args.trace {
        let (d, setup_s) = repeated_setup(|| daemon_setup(args.seed, work));
        let timed = daemon_loop(&d, args.seconds, &Recorder::disabled());
        let mut notes = d.notes.clone();
        let metrics = end_to_end(&timed, CLIENTS, setup_s, &mut notes);
        notes.push(failed_ops_note(timed.failed, timed.attempted));
        return Outcome {
            attempted: timed.attempted,
            failed: timed.failed,
            metrics,
            notes,
        };
    }
    let d = daemon_setup(args.seed, work);
    let start = Instant::now();
    let mut counts = Counts::default();
    let (mut attempted, mut failed) = (0, 0);

    // The counting pass: every request once, on one connection, so the
    // daemon's store and hot-set counters are a function of the seed.
    let mut client = TriageClient::connect(d.handle.addr()).expect("connect to the daemon");
    for (k, req) in d.reqs.iter().enumerate() {
        attempted += 1;
        let wire_req = WireRequest::Triage(req.clone());
        let Ok(Ok(resp)) = client.triage(req.clone()) else {
            failed += 1;
            continue;
        };
        if d.expect[k].as_deref() != Some(identity(&resp).as_str()) {
            failed += 1;
        }
        if !resp.deadlock {
            counts.add_search(&resp.stats, resp.store.as_ref());
        }
        counts.dumps += 1;
        counts.dump_bytes += mvm_json::to_string(&req.dump).len() as u64;
        if let Some(trace) = &resp.trace {
            counts.traces += 1;
            counts.trace_bytes += trace.len() as u64;
        }
        let mut bytes = Vec::new();
        write_request(&mut bytes, &wire_req).expect("encode request");
        counts.requests += 1;
        counts.request_bytes += bytes.len() as u64;
        bytes.clear();
        write_response(&mut bytes, &WireResponse::Triage(resp)).expect("encode response");
        counts.response_bytes += bytes.len() as u64;
    }
    drop(client);
    let stats = d.handle.stats();

    let third = args.seconds / 3.0;
    let base = daemon_loop(&d, third, &Recorder::disabled());
    let rec = Recorder::memory();
    let traced = daemon_loop(&d, third, &rec);
    let until = start + Duration::from_secs_f64(args.seconds);
    let (replica_attempted, replica_failed) = replica(&d, work, &rec, until);
    attempted += base.attempted + traced.attempted + replica_attempted;
    failed += base.failed + traced.failed + replica_failed;

    let extra = Extra {
        base_p50_us: base.p50_us(),
        overhead_root: "serve.rtt",
        store_file_bytes: d.store_file_bytes,
        hot_hit_ratio: ratio(
            stats.hot_hits as f64,
            (stats.hot_hits + stats.hot_misses) as f64,
        ),
        evictions: stats.hot_evictions,
        rejected: stats.rejected_queue + stats.rejected_budget,
    };
    finish_traced(
        args,
        &rec,
        &counts,
        &extra,
        (attempted, failed),
        d.notes.clone(),
    )
}

/// The daemon worker's path (`triage_in_store` against a warm store,
/// plus the four codec calls of the round trip), replicated call by
/// call on private copies of the hot stores until `until`: the spans
/// the daemon itself cannot show from outside. Returns `(attempted,
/// failed)`.
fn replica(d: &Daemon, work: &WorkDir, rec: &Recorder, until: Instant) -> (u64, u64) {
    let cfg = ResConfig::default();
    let dir = work.fresh("mirror");
    let journal = work.path().join("daemon.journal.jsonl");
    let mut stores: BTreeMap<u64, SolverStore> = BTreeMap::new();
    // One unrecorded pass warms the private stores, as the setup pass
    // warmed the daemon's.
    for req in &d.reqs {
        let fp = program_fingerprint(&req.program);
        let store = stores
            .entry(fp)
            .or_insert_with(|| SolverStore::open(dir.join(format!("{fp:016x}.resstore")), fp));
        triage_in_store(req, &cfg, store);
    }
    for store in stores.values_mut() {
        store.commit().expect("commit private store");
    }
    let (mut k, mut failed) = (0, 0);
    while Instant::now() < until || k == 0 {
        let i = k % d.reqs.len();
        k += 1;
        let req = &d.reqs[i];
        let (program, dump) = (&req.program, &req.dump);
        let fp = program_fingerprint(program);
        let store = stores.get_mut(&fp).expect("warmed store");
        let root = rec.span("bench.op");
        let path = rec.span_under("op", root.id());
        // The daemon population has no hang dumps, so this is always
        // `None` and the search below always runs, as in the daemon.
        time(rec, "triage.deadlock", path.id(), || {
            deadlock_bucket_key(dump)
        });
        let engine = time(rec, "res.engine_build", path.id(), || {
            ResEngine::new(program, cfg.clone())
        });
        let mut opts = req.synth_options(&cfg);
        opts.cache_path = None;
        let result = time(rec, "res.synthesize", path.id(), || {
            engine.synthesize_in_store(dump, opts, store)
        });
        let (replayed, key) = replay_and_bucket(rec, path.id(), program, dump, &result.suffixes);
        let trace = req
            .return_trace
            .then(|| {
                record(
                    rec,
                    path.id(),
                    program,
                    dump,
                    &result.suffixes,
                    &key,
                    &mut None,
                )
            })
            .flatten();
        let resp = response_of(&result, summaries(&result.suffixes, &replayed), key, trace);
        codec(
            rec,
            path.id(),
            &WireRequest::Triage(req.clone()),
            &WireResponse::Triage(resp.clone()),
            &mut None,
        );
        path.end();
        if d.expect[i].as_deref() != Some(identity(&resp).as_str()) {
            failed += 1;
        }
        let export = engine.session().export_portable();
        let file = dir.join(format!("{fp:016x}.resstore"));
        probe_store(rec, root.id(), &file, fp, &export);
        time(rec, "triage.whole", root.id(), || {
            triage_in_store(req, &cfg, store)
        });
        let mut journaled = req.clone();
        journaled.trace = Some(journal.to_string_lossy().into_owned());
        time(rec, "obs.journal", root.id(), || {
            triage_in_store(&journaled, &cfg, store)
        });
        probe_dump(rec, root.id(), program, dump, &cfg, &mut None);
    }
    (k as u64, failed)
}
