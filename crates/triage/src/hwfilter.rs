//! Hardware-error filtering over report corpora (paper §3.2).
//!
//! "Hardware errors are common, correlated, and recurrent. [...]
//! hardware errors generate noise, and developers waste time debugging
//! them instead of filtering them out. RES could be used to reduce this
//! significant source of noise." The filter runs the §3.2 verdict on
//! every incoming report; reports diagnosed as hardware are diverted
//! away from developers. On a labeled corpus (genuine software failures
//! plus injected corruptions) precision and recall are measurable.

use mvm_core::{corrupt_consequential, Coredump, HwFlavor};
// Re-exported from its new home in `mvm-core` (the generator needs the
// same policy to label hardware-variant corpora); existing callers keep
// importing it from here.
pub use mvm_core::consequential_sites;
use res_core::{hardware_verdict, HwVerdict, ResConfig};
use res_workloads::FailureReport;

/// One filtered report with its verdict and ground truth.
#[derive(Debug, Clone)]
pub struct FilteredReport {
    /// Index into the input corpus.
    pub index: usize,
    /// Ground truth: `true` when the dump was hardware-corrupted.
    pub actually_hardware: bool,
    /// The filter's verdict.
    pub verdict: HwVerdict,
}

/// Aggregate filter quality (experiment E7).
#[derive(Debug, Clone, Default)]
pub struct HwFilterStudy {
    /// Per-report outcomes.
    pub reports: Vec<FilteredReport>,
    /// Hardware dumps flagged as hardware.
    pub true_positives: usize,
    /// Software dumps flagged as hardware (developer-facing noise — the
    /// costly error).
    pub false_positives: usize,
    /// Hardware dumps that slipped through as software.
    pub false_negatives: usize,
    /// Software dumps correctly passed through.
    pub true_negatives: usize,
}

impl HwFilterStudy {
    /// Precision of the hardware flag.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall of the hardware flag.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            1.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }
}

/// Corrupts every other report in the corpus (alternating memory flips
/// and register corruption at consequential sites; a report with no
/// consequential memory site for its flip stays genuine), runs the
/// filter, and scores it.
///
/// When `store_dir` is given, the sweep is backed by a shared
/// persistent-store directory — the same directory the §3.1 bucketing
/// helpers use, so the relaxation sweep replays solver results the
/// bucketing pass (or an earlier process) already paid for. Verdicts
/// are identical either way; `None` is the plain store-less path.
pub fn filter_corpus(
    corpus: &[FailureReport],
    config: &ResConfig,
    store_dir: Option<&std::path::Path>,
) -> HwFilterStudy {
    let mut study = HwFilterStudy::default();
    for (i, r) in corpus.iter().enumerate() {
        let mut dump: Coredump = r.dump.clone();
        let corrupt = i % 2 == 1 && {
            let flavor = if i % 4 == 1 {
                HwFlavor::BitFlip
            } else {
                HwFlavor::RegCorrupt
            };
            corrupt_consequential(&r.program, &mut dump, r.seed, flavor).is_some()
        };
        let verdict = match store_dir {
            Some(dir) => {
                let cfg = crate::store::with_shared_store(config, dir, &r.program);
                hardware_verdict(&r.program, &dump, &cfg)
            }
            None => hardware_verdict(&r.program, &dump, config),
        };
        let flagged = matches!(verdict, HwVerdict::HardwareSuspected { .. });
        match (corrupt, flagged) {
            (true, true) => study.true_positives += 1,
            (true, false) => study.false_negatives += 1,
            (false, true) => study.false_positives += 1,
            (false, false) => study.true_negatives += 1,
        }
        study.reports.push(FilteredReport {
            index: i,
            actually_hardware: corrupt,
            verdict,
        });
    }
    study
}

#[cfg(test)]
mod tests {
    use super::*;
    use res_workloads::{generate_corpus, BugKind, CorpusSpec};

    #[test]
    fn filter_never_flags_genuine_software_bugs() {
        // Precision is the critical property: a software bug diverted as
        // "hardware" would never get fixed.
        let corpus = generate_corpus(&CorpusSpec {
            kinds: vec![BugKind::DivByZero, BugKind::SemanticAssert],
            per_kind: 2,
            ..CorpusSpec::default()
        });
        let study = filter_corpus(&corpus, &ResConfig::default(), None);
        assert_eq!(study.false_positives, 0, "{study:?}");
        assert!(study.precision() >= 0.99);
    }
}
