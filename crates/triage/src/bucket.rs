//! Root-cause bucketing (paper §3.1).
//!
//! "RES can process incoming bug reports and triage them based on the
//! execution suffix and the likely root cause." Each report is run
//! through the engine; the root-cause analyzer's *bucket key* — stable
//! across manifestation sites — becomes the triaging key. Reports the
//! engine cannot explain fall back to the stack signature (annotated as
//! such), mirroring the paper's suggestion to combine RES with existing
//! triage.

use mvm_core::Coredump;
use mvm_isa::Program;
use res_baselines::wer::{bucket_by_stack, build_report, BucketingReport};
use res_core::{replay_and_diagnose, ReplayReport, ResConfig, ResEngine, RootCause};
use res_workloads::FailureReport;

/// The order-normalized deadlock key, when the dump records a hang.
///
/// A hang has no faulting suffix to synthesize, but its root cause —
/// the cyclic wait — is directly evident in the dump: the *set* of
/// blocked sites. Order-normalizing that set (like the §3.1 race
/// keys) makes the key stable across which thread the reporter
/// happened to call "faulting", where stack bucketing splits.
pub fn deadlock_bucket_key(dump: &Coredump) -> Option<String> {
    let mvm_machine::Fault::Deadlock { threads } = &dump.fault else {
        return None;
    };
    let mut sites: Vec<String> = threads
        .iter()
        .filter_map(|tid| dump.thread(*tid))
        .map(|t| t.pc().to_string())
        .collect();
    if sites.is_empty() {
        sites = dump.threads.iter().map(|t| t.pc().to_string()).collect();
    }
    sites.sort();
    sites.dedup();
    Some(format!("deadlock:{}", sites.join("&")))
}

/// The bucket key an already-synthesized suffix set yields: the first
/// replay-confirmed root cause, else the stack-signature fallback
/// (marked `unexplained:`), mirroring the paper's suggestion to combine
/// RES with existing triage. [`res_bucket_key`] is this over a fresh
/// synthesis; the triage daemon calls it on results it already holds.
/// Each suffix it looks at is replayed once, traced.
pub fn bucket_key_for(
    program: &Program,
    dump: &Coredump,
    suffixes: &[res_core::ExecutionSuffix],
) -> String {
    suffixes
        .iter()
        .find_map(|sfx| {
            let (report, rc) = replay_and_diagnose(program, dump, sfx);
            explained_key(&report, &rc)
        })
        .unwrap_or_else(|| unexplained_key(dump))
}

/// The bucket key one diagnosed replay yields: its root cause's key
/// when the suffix reproduced the failure and the cause is known.
pub(crate) fn explained_key(report: &ReplayReport, rc: &RootCause) -> Option<String> {
    (report.reproduced && *rc != RootCause::Unknown).then(|| rc.bucket_key())
}

/// The fallback key when no suffix explains the dump: the naive stack
/// signature, marked as unexplained.
pub(crate) fn unexplained_key(dump: &Coredump) -> String {
    let sig = dump.stack_signature(2);
    let frames: Vec<String> = sig.frames.iter().map(|l| l.to_string()).collect();
    format!("unexplained:{}|{}", sig.signal, frames.join(";"))
}

/// Computes the RES bucket key for one report.
pub fn res_bucket_key(program: &Program, dump: &Coredump, config: &ResConfig) -> String {
    if let Some(key) = deadlock_bucket_key(dump) {
        return key;
    }
    let engine = ResEngine::new(program, config.clone());
    let result = engine.synthesize(dump);
    bucket_key_for(program, dump, &result.suffixes)
}

/// RES bucket keys for a whole corpus.
///
/// When `store_dir` is given, each report's engine warms from (and
/// appends to) its program's store file inside that shared
/// persistent-store directory, so repeated reports of one program skip
/// repeated solver work — across this call *and* across process runs.
/// The keys are identical either way (see `res-store`'s determinism
/// argument); `None` is the plain store-less path.
pub fn res_bucket_keys(
    corpus: &[FailureReport],
    config: &ResConfig,
    store_dir: Option<&std::path::Path>,
) -> Vec<String> {
    corpus
        .iter()
        .map(|r| match store_dir {
            Some(dir) => {
                let cfg = crate::store::with_shared_store(config, dir, &r.program);
                res_bucket_key(&r.program, &r.dump, &cfg)
            }
            None => res_bucket_key(&r.program, &r.dump, config),
        })
        .collect()
}

/// Side-by-side triaging comparison on one corpus (experiment E5).
#[derive(Debug, Clone)]
pub struct TriageComparison {
    /// WER-like stack bucketing.
    pub wer: BucketingReport,
    /// RES root-cause bucketing.
    pub res: BucketingReport,
}

/// Buckets a corpus both ways.
pub fn triage_corpus(
    corpus: &[FailureReport],
    stack_depth: usize,
    config: &ResConfig,
) -> TriageComparison {
    let wer = bucket_by_stack(corpus, stack_depth);
    let keys = res_bucket_keys(corpus, config, None);
    let res = build_report(corpus, keys);
    TriageComparison { wer, res }
}

#[cfg(test)]
mod tests {
    use super::*;
    use res_workloads::{generate_corpus, BugKind, CorpusSpec};

    #[test]
    fn res_buckets_deterministic_bugs_stably() {
        let corpus = generate_corpus(&CorpusSpec {
            kinds: vec![BugKind::UseAfterFree, BugKind::DivByZero],
            per_kind: 3,
            ..CorpusSpec::default()
        });
        let keys = res_bucket_keys(&corpus, &ResConfig::default(), None);
        // All reports of one bug share a key; the two bugs differ.
        let uaf_keys: Vec<&String> = corpus
            .iter()
            .zip(&keys)
            .filter(|(r, _)| r.kind == BugKind::UseAfterFree)
            .map(|(_, k)| k)
            .collect();
        assert!(uaf_keys.windows(2).all(|w| w[0] == w[1]), "{uaf_keys:?}");
        let dz_key = corpus
            .iter()
            .zip(&keys)
            .find(|(r, _)| r.kind == BugKind::DivByZero)
            .map(|(_, k)| k.clone())
            .unwrap();
        assert_ne!(&dz_key, uaf_keys[0]);
    }

    #[test]
    fn res_separates_engineered_stack_collision() {
        // The corpus where stacks collide: WER merges, RES separates.
        let corpus = generate_corpus(&CorpusSpec {
            kinds: vec![BugKind::RaceNullDeref, BugKind::UafSameStack],
            per_kind: 3,
            ..CorpusSpec::default()
        });
        if corpus.len() < 4 {
            return; // Not enough failures manifested; covered elsewhere.
        }
        let cmp = triage_corpus(&corpus, 1, &ResConfig::default());
        assert!(
            cmp.res.misbucket_rate <= cmp.wer.misbucket_rate,
            "res {} vs wer {}",
            cmp.res.misbucket_rate,
            cmp.wer.misbucket_rate
        );
    }
}
