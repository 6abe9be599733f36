//! The typed triage API: one request, one response.
//!
//! Every way of asking RES about a coredump — §3.1 bucketing, §3.2
//! hardware filtering, plain suffix synthesis — used to have its own
//! argument list (config clone here, store directory there).
//! [`TriageRequest`] collapses them: a program, a dump, and the
//! per-call overrides (relaxation, budget dimensions, deadline, store,
//! trace). [`TriageResponse`] is the single return shape: verdict,
//! bucket key, suffix summaries, and the full [`KernelStats`]/store
//! accounting.
//!
//! Both types are mvm-json serializable end to end (program and dump
//! included), which is what lets `res-serve` put this exact pair on the
//! wire: a daemon request is *the same value* a library caller would
//! build, so byte-identity between the two paths is checkable by
//! construction.
//!
//! Budget overrides are carried as discrete optional fields
//! (`max_nodes`, `hyp_max_steps`, `max_solver_assignments`,
//! `deadline_ms`) rather than a serialized [`res_core::Budget`]: the
//! kernel budget embeds a `Duration`, which has no JSON form, and a
//! request should be able to override one dimension without restating
//! the rest.

use std::path::PathBuf;
use std::time::Duration;

use mvm_core::Coredump;
use mvm_isa::Program;
use mvm_json::json_struct;
use res_core::{
    hardware_verdict, hardware_verdict_in_store, replay_and_diagnose, replay_suffix, HwVerdict,
    KernelStats, ParallelReport, Relax, ResConfig, ResEngine, StoreReport, SynthOptions,
    SynthesisResult, Verdict,
};
use res_obs::Recorder;
use res_store::SolverStore;

use crate::bucket::{deadlock_bucket_key, explained_key, unexplained_key};

/// One triage job: the failing program, its dump, and every per-call
/// override. Field defaults (`None` / [`Relax::None`]) mean "use the
/// serving config's value", so the empty overrides request is exactly
/// the plain library call.
#[derive(Debug, Clone, PartialEq)]
pub struct TriageRequest {
    /// The program that failed.
    pub program: Program,
    /// Its coredump.
    pub dump: Coredump,
    /// Treat one dump location as unknown (§3.2 localization probe).
    pub relax: Relax,
    /// Override the node budget for this call.
    pub max_nodes: Option<u64>,
    /// Override the per-hypothesis instruction budget for this call.
    pub hyp_max_steps: Option<u64>,
    /// Override the cumulative solver-assignment budget for this call.
    pub max_solver_assignments: Option<u64>,
    /// Wall-clock deadline for this call, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Persistent-store path for this call (daemon-side requests leave
    /// this unset — the daemon routes them through its hot store).
    pub store: Option<String>,
    /// JSONL trace path for this call.
    pub trace: Option<String>,
    /// Return a portable replay-trace artifact (the bytes of a
    /// `.restrace` file) in [`TriageResponse::trace`] when a reproduced
    /// suffix exists. Off by default: the artifact embeds the coredump, so it
    /// roughly doubles the response size.
    pub return_trace: bool,
}

json_struct!(TriageRequest {
    program,
    dump,
    relax,
    max_nodes,
    hyp_max_steps,
    max_solver_assignments,
    deadline_ms,
    store,
    trace,
    return_trace
});

impl TriageRequest {
    /// A request with no overrides.
    pub fn new(program: Program, dump: Coredump) -> Self {
        TriageRequest {
            program,
            dump,
            relax: Relax::None,
            max_nodes: None,
            hyp_max_steps: None,
            max_solver_assignments: None,
            deadline_ms: None,
            store: None,
            trace: None,
            return_trace: false,
        }
    }

    /// Requests a portable replay-trace artifact in the response.
    pub fn return_trace(mut self, yes: bool) -> Self {
        self.return_trace = yes;
        self
    }

    /// Sets the relaxation.
    pub fn relax(mut self, relax: Relax) -> Self {
        self.relax = relax;
        self
    }

    /// Caps this call's wall-clock time.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Overrides the node budget.
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Returns the request unchanged: the search runs on one thread.
    /// Kept only because the benchmark (`perfbench/`) calls it; it
    /// leaves when the benchmark is next revised.
    pub fn workers(self, _n: usize) -> Self {
        self
    }

    /// `true` when any budget dimension (or the deadline) is overridden
    /// — what a daemon's admission control inspects.
    pub fn overrides_budget(&self) -> bool {
        self.max_nodes.is_some()
            || self.hyp_max_steps.is_some()
            || self.max_solver_assignments.is_some()
            || self.deadline_ms.is_some()
    }

    /// The [`SynthOptions`] this request's overrides assemble into,
    /// given the serving config `base` (whose budget seeds any
    /// partially-overridden dimensions).
    pub fn synth_options(&self, base: &ResConfig) -> SynthOptions {
        let mut opts = SynthOptions::new().relax(self.relax);
        if self.max_nodes.is_some()
            || self.hyp_max_steps.is_some()
            || self.max_solver_assignments.is_some()
        {
            let mut b = base.budget();
            if let Some(n) = self.max_nodes {
                b.max_nodes = n;
            }
            if let Some(n) = self.hyp_max_steps {
                b.hyp_max_steps = n;
            }
            if let Some(n) = self.max_solver_assignments {
                b.max_solver_assignments = Some(n);
            }
            opts = opts.budget(b);
        }
        if let Some(ms) = self.deadline_ms {
            opts = opts.deadline(Duration::from_millis(ms));
        }
        if let Some(p) = &self.store {
            opts = opts.cache_path(p);
        }
        if let Some(p) = &self.trace {
            opts = opts.trace(p);
        }
        opts
    }

    /// A config clone with every override applied — the whole-engine
    /// form of [`TriageRequest::synth_options`], for entry points that
    /// take a [`ResConfig`] (the §3.2 relaxation sweep).
    pub fn config_for(&self, base: &ResConfig) -> ResConfig {
        let mut c = base.clone();
        if let Some(n) = self.max_nodes {
            c.max_nodes = n;
        }
        if let Some(n) = self.hyp_max_steps {
            c.hyp_max_steps = n;
        }
        if let Some(n) = self.max_solver_assignments {
            c.max_solver_assignments = Some(n);
        }
        if let Some(ms) = self.deadline_ms {
            c.deadline = Some(Duration::from_millis(ms));
        }
        if let Some(p) = &self.store {
            c.cache_path = Some(PathBuf::from(p));
        }
        if let Some(p) = &self.trace {
            c.trace = Some(PathBuf::from(p));
        }
        c
    }
}

/// The wire-safe digest of one synthesized suffix: its exact bytes (as
/// the canonical `Debug` rendering the determinism gates compare), its
/// size, and whether the replayer reproduced the fault from it.
///
/// Its field set is fixed while the benchmark (`perfbench/`) builds
/// summaries with struct literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixSummary {
    /// The suffix's canonical `Debug` rendering — the byte-identity
    /// currency of every determinism gate in this repo.
    pub bytes: String,
    /// Block-granular steps.
    pub steps: usize,
    /// Total instructions across all steps.
    pub instructions: u64,
    /// `true` when replaying the suffix reproduced the dump's fault.
    pub replayed: bool,
}

json_struct!(SuffixSummary {
    bytes,
    steps,
    instructions,
    replayed
});

/// Everything a triage call returns, serializable end to end.
///
/// Its field set is fixed while the benchmark (`perfbench/`) builds
/// responses with struct literals.
#[derive(Debug, Clone, PartialEq)]
pub struct TriageResponse {
    /// The engine's verdict ([`Verdict::SuffixFound`] et al.).
    pub verdict: Verdict,
    /// `true` when the dump recorded a hang: the bucket key comes from
    /// the blocked-site set and no synthesis ran.
    pub deadlock: bool,
    /// The §3.1 triaging key.
    pub bucket_key: String,
    /// Synthesized suffixes, in discovery order.
    pub suffixes: Vec<SuffixSummary>,
    /// Search statistics.
    pub stats: KernelStats,
    /// Always `None`: the search runs on one thread. Kept only because
    /// the benchmark (`perfbench/`) sets it; it leaves when the
    /// benchmark is next revised.
    pub parallel: Option<ParallelReport>,
    /// Persistent-store accounting; `None` when no store was in play.
    pub store: Option<StoreReport>,
    /// The portable replay-trace artifact (the bytes of a `.restrace`
    /// file, first reproduced suffix), when the request asked for one via
    /// [`TriageRequest::return_trace`]. Write it to a `.restrace` file
    /// and it replays with `res-cli replay`/`verify`.
    pub trace: Option<String>,
    /// The daemon's request id (`c<conn>.<seq>`), stamped by
    /// `res-serve` so an answer can be correlated with its `serve.req`
    /// span tree in the daemon journal. `None` for direct library
    /// calls. Never part of the verdict: the byte-identity currency
    /// (`verdict|deadlock|bucket_key|suffixes`) excludes it.
    pub req_id: Option<String>,
}

json_struct!(TriageResponse {
    verdict,
    deadlock,
    bucket_key,
    suffixes,
    stats,
    parallel,
    store,
    trace,
    req_id
});

/// Replays each suffix once for both its `replayed` flag and the bucket
/// key: traced, with its root cause diagnosed, until one suffix yields
/// the key ([`crate::bucket_key_for`]'s answer), plain after that. A
/// requested trace artifact is recorded separately.
fn response_from(
    program: &Program,
    dump: &Coredump,
    result: SynthesisResult,
    return_trace: bool,
) -> TriageResponse {
    let mut key = None;
    let suffixes: Vec<SuffixSummary> = result
        .suffixes
        .iter()
        .map(|s| {
            let replayed = if key.is_none() {
                let (report, rc) = replay_and_diagnose(program, dump, s);
                key = explained_key(&report, &rc);
                report.reproduced
            } else {
                replay_suffix(program, dump, s).reproduced
            };
            SuffixSummary {
                bytes: format!("{s:?}"),
                steps: s.len(),
                instructions: s.total_steps(),
                replayed,
            }
        })
        .collect();
    let bucket_key = key.unwrap_or_else(|| unexplained_key(dump));
    let trace = if return_trace {
        result.suffixes.iter().find_map(|s| {
            res_trace::record_trace(
                program,
                dump,
                s,
                Some(bucket_key.clone()),
                &Recorder::disabled(),
            )
            .ok()
            .map(|t| String::from_utf8(t.to_text_bytes()).expect("text trace is utf-8"))
        })
    } else {
        None
    };
    TriageResponse {
        verdict: result.verdict,
        deadlock: false,
        bucket_key,
        suffixes,
        stats: result.stats,
        parallel: None,
        store: result.store,
        trace,
        req_id: None,
    }
}

fn deadlock_response(key: String) -> TriageResponse {
    TriageResponse {
        verdict: Verdict::NoFeasibleSuffix { proven: false },
        deadlock: true,
        bucket_key: key,
        suffixes: Vec::new(),
        stats: KernelStats::default(),
        parallel: None,
        store: None,
        trace: None,
        req_id: None,
    }
}

/// Runs one request through the engine: the single entry point behind
/// which `res-cli submit`, the corpus helpers, and the `res-serve`
/// daemon all sit. Hangs short-circuit to the deadlock bucket key
/// (there is no faulting suffix to synthesize).
pub fn triage(req: &TriageRequest, base: &ResConfig) -> TriageResponse {
    if let Some(key) = deadlock_bucket_key(&req.dump) {
        return deadlock_response(key);
    }
    let engine = ResEngine::new(&req.program, base.clone());
    let result = engine.synthesize_with(&req.dump, req.synth_options(base));
    response_from(&req.program, &req.dump, result, req.return_trace)
}

/// [`triage`] with every solver query routed through a caller-owned
/// [`SolverStore`] — the daemon hot path. The store is absorbed before
/// the search and new results are merged back, but committing stays
/// with the caller (the daemon commits on hot-store eviction or
/// shutdown). Any `store` path in the request is ignored: the caller's
/// store *is* the store.
pub fn triage_in_store(
    req: &TriageRequest,
    base: &ResConfig,
    store: &mut SolverStore,
) -> TriageResponse {
    if let Some(key) = deadlock_bucket_key(&req.dump) {
        return deadlock_response(key);
    }
    let engine = ResEngine::new(&req.program, base.clone());
    let mut opts = req.synth_options(base);
    opts.cache_path = None;
    let result = engine.synthesize_in_store(&req.dump, opts, store);
    response_from(&req.program, &req.dump, result, req.return_trace)
}

/// The §3.2 verdict for one request (relaxation sweep included), with
/// the request's overrides applied to the serving config.
pub fn hw_verdict_for(req: &TriageRequest, base: &ResConfig) -> HwVerdict {
    hardware_verdict(&req.program, &req.dump, &req.config_for(base))
}

/// [`hw_verdict_for`] through a caller-owned store (see
/// [`triage_in_store`] for the commit contract).
pub fn hw_verdict_for_in_store(
    req: &TriageRequest,
    base: &ResConfig,
    store: &mut SolverStore,
) -> HwVerdict {
    let mut cfg = req.config_for(base);
    cfg.cache_path = None;
    hardware_verdict_in_store(&req.program, &req.dump, &cfg, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvm_json::{FromJson, ToJson};
    use res_workloads::{generate_corpus, BugKind, CorpusSpec};

    fn one_report(kind: BugKind) -> res_workloads::FailureReport {
        generate_corpus(&CorpusSpec {
            kinds: vec![kind],
            per_kind: 1,
            ..CorpusSpec::default()
        })
        .into_iter()
        .next()
        .expect("corpus generation yields a report")
    }

    #[test]
    fn request_round_trips_through_json() {
        let r = one_report(BugKind::DivByZero);
        let req = TriageRequest::new(r.program, r.dump)
            .relax(Relax::Mem { addr: 0x1000 })
            .deadline_ms(250)
            .max_nodes(77);
        let back = TriageRequest::from_json(&req.to_json()).expect("round trip");
        assert_eq!(req, back);
    }

    #[test]
    fn triage_matches_direct_library_calls() {
        let r = one_report(BugKind::UseAfterFree);
        let config = ResConfig::default();
        let req = TriageRequest::new(r.program.clone(), r.dump.clone());
        let resp = triage(&req, &config);

        let engine = ResEngine::new(&r.program, config.clone());
        let direct = engine.synthesize(&r.dump);
        assert_eq!(resp.verdict, direct.verdict);
        assert_eq!(resp.suffixes.len(), direct.suffixes.len());
        for (summary, sfx) in resp.suffixes.iter().zip(&direct.suffixes) {
            assert_eq!(summary.bytes, format!("{sfx:?}"), "byte identity");
        }
        assert_eq!(
            resp.bucket_key,
            crate::bucket::res_bucket_key(&r.program, &r.dump, &config)
        );
        let back = TriageResponse::from_json(&resp.to_json()).expect("response round trip");
        assert_eq!(resp, back);
    }

    #[test]
    fn budget_overrides_reach_the_kernel() {
        let r = one_report(BugKind::DivByZero);
        let config = ResConfig::default();
        let req = TriageRequest::new(r.program.clone(), r.dump.clone()).max_nodes(1);
        assert!(req.overrides_budget());
        let resp = triage(&req, &config);
        assert!(
            resp.stats.nodes_expanded <= 1,
            "a 1-node budget must cut immediately: {:?}",
            resp.stats
        );
    }

    #[test]
    fn deadlock_requests_skip_synthesis() {
        let corpus = generate_corpus(&CorpusSpec {
            kinds: vec![BugKind::Deadlock],
            per_kind: 1,
            ..CorpusSpec::default()
        });
        let Some(r) = corpus.into_iter().next() else {
            return; // No hang manifested; covered by bucket tests.
        };
        let config = ResConfig::default();
        let resp = triage(
            &TriageRequest::new(r.program.clone(), r.dump.clone()),
            &config,
        );
        assert!(resp.deadlock);
        assert!(resp.bucket_key.starts_with("deadlock:"));
        assert_eq!(resp.stats.nodes_expanded, 0, "no search ran");
        assert_eq!(
            resp.bucket_key,
            crate::bucket::res_bucket_key(&r.program, &r.dump, &config)
        );
    }
}
