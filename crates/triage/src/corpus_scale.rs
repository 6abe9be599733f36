//! Corpus-scale experiments over *generated* program populations.
//!
//! The fixed handwritten workloads give the E5/E6/E7 claims one data
//! point each. This module turns them into **distributions**: the
//! `res-gen` generator (`res_workloads::gen`) emits hundreds of
//! distinct labeled programs, each program's failures are triaged /
//! rated / filtered independently, and the per-shard rates are reported
//! as min/median/max tables. Sharding is by *contiguous program groups*
//! so the distribution says "if you ran the small experiment on a
//! different random population, what rates would you see?".
//!
//! # Parallelism and determinism
//!
//! The unit of parallel work is one generated program: generation,
//! failure collection, and every engine query for that program happen
//! on one worker thread, and the per-program store file (named by the
//! program fingerprint) is therefore never touched by two threads.
//! [`parallel_map`] returns results positionally, so every report —
//! tables, rates, shard distributions — is byte-identical at any thread
//! count (pinned by `tests/corpus_determinism.rs`). Each experiment
//! journals its report's counts once, as [`Recorder`] counters, after
//! its workers have joined.
//!
//! # Labels and keys
//!
//! Each generated program is one distinct ground-truth bug, labeled
//! `{fingerprint:016x}|{class}`. Bucket keys (both the WER baseline's
//! and RES's) are prefixed with the same fingerprint: a real triage
//! pipeline knows which program a report came from, so cross-program
//! stack collisions (every generated `div-by-zero` faults in a block
//! named alike) are not held against either bucketer. What remains is
//! the paper's §3.1 phenomenon: one bug splitting over several stacks
//! — which the generated `use-after-free` class engineers via
//! input-selected deref paths.

use std::path::Path;

use mvm_core::HwFlavor;
use res_baselines::exploitable_heur::{classify_heuristic, Exploitability};
use res_baselines::wer::{misbucket_rate_labeled, signature_key};
use res_core::{hardware_verdict, parallel_map, HwVerdict, ResConfig};
use res_obs::Recorder;
use res_store::program_fingerprint;
use res_workloads::gen::{
    collect_failures, corpus_specs, generate, hardware_variant, GenClass, GenSpec,
};

use crate::bucket::res_bucket_key;
use crate::exploit::classify_with_res;
use crate::store::with_shared_store;

/// What to run a corpus-scale experiment over.
#[derive(Debug, Clone)]
pub struct CorpusScaleSpec {
    /// Bug classes, round-robined over the program slots.
    pub classes: Vec<GenClass>,
    /// Number of distinct generated programs (the population size).
    pub programs: usize,
    /// Labeled failures collected per program.
    pub reports_per_program: usize,
    /// Contiguous program groups the rates are distributed over.
    pub shards: usize,
    /// Worker threads (1 = sequential; results are identical either way).
    pub threads: usize,
    /// Master seed for the population.
    pub seed: u64,
    /// Generator churn size.
    pub size: u32,
}

impl Default for CorpusScaleSpec {
    fn default() -> CorpusScaleSpec {
        CorpusScaleSpec {
            classes: GenClass::ALL.to_vec(),
            programs: 200,
            reports_per_program: 3,
            shards: 10,
            threads: 1,
            seed: 0x5ca1e,
            size: 1,
        }
    }
}

impl CorpusScaleSpec {
    fn specs(&self) -> Vec<GenSpec> {
        corpus_specs(&self.classes, self.programs, self.seed, self.size)
    }

    /// Shard boundaries: `shards` contiguous program ranges.
    fn shard_ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        let shards = self.shards.clamp(1, n.max(1));
        let per = n.div_ceil(shards);
        (0..shards)
            .map(|s| (s * per).min(n)..((s + 1) * per).min(n))
            .filter(|r| !r.is_empty())
            .collect()
    }
}

/// A min/median/max summary of per-shard rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Smallest shard value.
    pub min: f64,
    /// Median shard value (midpoint-averaged for even counts).
    pub median: f64,
    /// Largest shard value.
    pub max: f64,
}

impl Dist {
    /// Summarizes `values` (empty input yields all zeros).
    pub fn over(mut values: Vec<f64>) -> Dist {
        if values.is_empty() {
            return Dist {
                min: 0.0,
                median: 0.0,
                max: 0.0,
            };
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let median = if n % 2 == 1 {
            values[n / 2]
        } else {
            (values[n / 2 - 1] + values[n / 2]) / 2.0
        };
        Dist {
            min: values[0],
            median,
            max: values[n - 1],
        }
    }

    /// `min/median/max` rendered as percentages.
    pub fn pct(&self) -> String {
        format!(
            "{:.1}% / {:.1}% / {:.1}%",
            100.0 * self.min,
            100.0 * self.median,
            100.0 * self.max
        )
    }
}

/// E5 at corpus scale: WER-style vs RES bucketing rate distributions.
#[derive(Debug, Clone)]
pub struct TriageScaleReport {
    /// Programs in the population.
    pub programs: usize,
    /// Total labeled reports.
    pub reports: usize,
    /// Per-shard WER mis-bucket rate distribution.
    pub wer: Dist,
    /// Per-shard RES mis-bucket rate distribution.
    pub res: Dist,
    /// Pooled WER rate over the whole population.
    pub wer_total: f64,
    /// Pooled RES rate over the whole population.
    pub res_total: f64,
}

/// Per-program triage data: one label per report, plus both bucketers'
/// keys, all fingerprint-prefixed.
struct TriagedProgram {
    labels: Vec<String>,
    wer_keys: Vec<String>,
    res_keys: Vec<String>,
}

/// Runs E5 at corpus scale: every program's reports are bucketed by
/// stack signature and by RES root cause (solver results routed through
/// `store_dir`), and mis-bucket rates are distributed over shards.
pub fn triage_scale(
    spec: &CorpusScaleSpec,
    config: &ResConfig,
    store_dir: &Path,
    rec: &Recorder,
) -> TriageScaleReport {
    let span = rec.span("corpus.triage");
    let specs = spec.specs();
    let per_program: Vec<TriagedProgram> = parallel_map(&specs, spec.threads, |_, gs| {
        let gp = generate(*gs);
        let fp = program_fingerprint(&gp.program);
        let fails = collect_failures(&gp, spec.reports_per_program);
        let label = format!("{fp:016x}|{}", gs.class.name());
        let cfg = with_shared_store(config, store_dir, &gp.program);
        let mut out = TriagedProgram {
            labels: Vec::new(),
            wer_keys: Vec::new(),
            res_keys: Vec::new(),
        };
        for f in &fails {
            out.labels.push(label.clone());
            out.wer_keys.push(format!(
                "{fp:016x}|{}",
                signature_key(&f.dump.stack_signature(2))
            ));
            out.res_keys.push(format!(
                "{fp:016x}|{}",
                res_bucket_key(&gp.program, &f.dump, &cfg)
            ));
        }
        out
    });

    // Pools a program range's reports and scores one bucketer
    // (`use_res` picks RES keys, otherwise WER keys).
    let pool = |use_res: bool, range: std::ops::Range<usize>| {
        let mut labels = Vec::new();
        let mut keys = Vec::new();
        for p in &per_program[range] {
            labels.extend_from_slice(&p.labels);
            keys.extend_from_slice(if use_res { &p.res_keys } else { &p.wer_keys });
        }
        misbucket_rate_labeled(&labels, &keys)
    };

    let ranges = spec.shard_ranges(per_program.len());
    let wer = Dist::over(ranges.iter().map(|r| pool(false, r.clone())).collect());
    let res = Dist::over(ranges.iter().map(|r| pool(true, r.clone())).collect());
    let reports = per_program.iter().map(|p| p.labels.len()).sum();
    let report = TriageScaleReport {
        programs: per_program.len(),
        reports,
        wer,
        res,
        wer_total: pool(false, 0..per_program.len()),
        res_total: pool(true, 0..per_program.len()),
    };
    journal(
        rec,
        "triage",
        &[("programs", report.programs), ("reports", report.reports)],
    );
    span.end();
    report
}

/// E6 at corpus scale: exploitability error-rate distributions.
#[derive(Debug, Clone)]
pub struct ExploitScaleReport {
    /// Programs in the population.
    pub programs: usize,
    /// Total rated reports.
    pub reports: usize,
    /// Per-shard heuristic error-rate distribution.
    pub heur: Dist,
    /// Per-shard RES error-rate distribution.
    pub res: Dist,
    /// Pooled heuristic error rate.
    pub heur_total: f64,
    /// Pooled RES error rate.
    pub res_total: f64,
}

/// Runs E6 at corpus scale. Ground truth: `TaintedOverflow` programs
/// are remotely exploitable, every other class is not (`exploitable` in
/// the strict remote sense the §3.1 verdict draws).
pub fn exploit_scale(
    spec: &CorpusScaleSpec,
    config: &ResConfig,
    store_dir: &Path,
    rec: &Recorder,
) -> ExploitScaleReport {
    let span = rec.span("corpus.exploit");
    let specs = spec.specs();
    // Per report: (heuristic wrong?, res wrong?).
    let per_program: Vec<Vec<(bool, bool)>> = parallel_map(&specs, spec.threads, |_, gs| {
        let gp = generate(*gs);
        let fails = collect_failures(&gp, spec.reports_per_program);
        let truth = gs.class == GenClass::TaintedOverflow;
        let cfg = with_shared_store(config, store_dir, &gp.program);
        fails
            .iter()
            .map(|f| {
                let heur = classify_heuristic(&f.minidump) == Exploitability::Exploitable;
                let res =
                    classify_with_res(&gp.program, &f.dump, &cfg) == Exploitability::Exploitable;
                (heur != truth, res != truth)
            })
            .collect()
    });

    // Errors in a program range (`use_res` picks the RES column), and
    // the reports they are out of.
    let errors = |use_res: bool, range: std::ops::Range<usize>| {
        let mut wrong = 0usize;
        let mut total = 0usize;
        for p in &per_program[range] {
            total += p.len();
            wrong += p.iter().filter(|e| if use_res { e.1 } else { e.0 }).count();
        }
        (wrong, total)
    };
    let rate = |use_res: bool, range: std::ops::Range<usize>| {
        let (wrong, total) = errors(use_res, range);
        if total == 0 {
            0.0
        } else {
            wrong as f64 / total as f64
        }
    };

    let ranges = spec.shard_ranges(per_program.len());
    let heur = Dist::over(ranges.iter().map(|r| rate(false, r.clone())).collect());
    let res = Dist::over(ranges.iter().map(|r| rate(true, r.clone())).collect());
    let report = ExploitScaleReport {
        programs: per_program.len(),
        reports: per_program.iter().map(Vec::len).sum(),
        heur,
        res,
        heur_total: rate(false, 0..per_program.len()),
        res_total: rate(true, 0..per_program.len()),
    };
    journal(
        rec,
        "exploit",
        &[
            ("programs", report.programs),
            ("reports", report.reports),
            ("heur_errors", errors(false, 0..per_program.len()).0),
            ("res_errors", errors(true, 0..per_program.len()).0),
        ],
    );
    span.end();
    report
}

/// E7 at corpus scale: hardware-filter precision/recall distributions.
#[derive(Debug, Clone)]
pub struct HwScaleReport {
    /// Programs in the population.
    pub programs: usize,
    /// Total filtered reports (half genuine, half corrupted).
    pub reports: usize,
    /// Per-shard precision distribution.
    pub precision: Dist,
    /// Per-shard recall distribution.
    pub recall: Dist,
    /// Pooled precision.
    pub precision_total: f64,
    /// Pooled recall.
    pub recall_total: f64,
    /// Genuine software reports flagged as hardware, over the whole
    /// population (the costly error; the experiment shape wants 0).
    pub false_positives: usize,
}

/// Runs E7 at corpus scale: for every program, even-indexed failures
/// pass through untouched and odd-indexed ones get a consequential-site
/// hardware corruption (alternating flavors) before the §3.2 verdict.
/// An odd-indexed failure with no consequential site for its flavor
/// stays genuine and is scored as genuine.
pub fn hardware_scale(
    spec: &CorpusScaleSpec,
    config: &ResConfig,
    store_dir: &Path,
    rec: &Recorder,
) -> HwScaleReport {
    let span = rec.span("corpus.hwfilter");
    let specs = spec.specs();
    // Per report: (actually hardware?, flagged as hardware?).
    let per_program: Vec<Vec<(bool, bool)>> = parallel_map(&specs, spec.threads, |_, gs| {
        let gp = generate(*gs);
        let fails = collect_failures(&gp, spec.reports_per_program);
        let cfg = with_shared_store(config, store_dir, &gp.program);
        fails
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let (dump, corrupt) = if i % 2 == 1 {
                    let flavor = if i % 4 == 1 {
                        HwFlavor::BitFlip
                    } else {
                        HwFlavor::RegCorrupt
                    };
                    let (dump, injected) = hardware_variant(&gp, f, flavor);
                    (dump, injected.is_some())
                } else {
                    (f.dump.clone(), false)
                };
                let verdict = hardware_verdict(&gp.program, &dump, &cfg);
                let flagged = matches!(verdict, HwVerdict::HardwareSuspected { .. });
                (corrupt, flagged)
            })
            .collect()
    });

    let score = |range: std::ops::Range<usize>| {
        let (mut tp, mut fp, mut fneg) = (0usize, 0usize, 0usize);
        for p in &per_program[range] {
            for &(hw, flagged) in p {
                match (hw, flagged) {
                    (true, true) => tp += 1,
                    (false, true) => fp += 1,
                    (true, false) => fneg += 1,
                    (false, false) => {}
                }
            }
        }
        let precision = if tp + fp == 0 {
            1.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fneg == 0 {
            1.0
        } else {
            tp as f64 / (tp + fneg) as f64
        };
        (precision, recall, tp, fp)
    };

    let ranges = spec.shard_ranges(per_program.len());
    let shard_scores: Vec<(f64, f64, usize, usize)> =
        ranges.iter().map(|r| score(r.clone())).collect();
    let (p_total, r_total, tp_total, fp_total) = score(0..per_program.len());
    let report = HwScaleReport {
        programs: per_program.len(),
        reports: per_program.iter().map(Vec::len).sum(),
        precision: Dist::over(shard_scores.iter().map(|s| s.0).collect()),
        recall: Dist::over(shard_scores.iter().map(|s| s.1).collect()),
        precision_total: p_total,
        recall_total: r_total,
        false_positives: fp_total,
    };
    journal(
        rec,
        "hwfilter",
        &[
            ("programs", report.programs),
            ("reports", report.reports),
            ("true_positives", tp_total),
            ("false_positives", report.false_positives),
        ],
    );
    span.end();
    report
}

/// Journals an experiment's counts as `corpus.<experiment>.<name>`
/// counters, each once something was counted under it.
fn journal(rec: &Recorder, experiment: &str, counts: &[(&str, usize)]) {
    for &(name, n) in counts {
        if n > 0 {
            rec.counter(&format!("corpus.{experiment}.{name}"), n as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("res-corpus-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn small_spec() -> CorpusScaleSpec {
        CorpusScaleSpec {
            classes: vec![GenClass::DivByZero, GenClass::UseAfterFree],
            programs: 6,
            reports_per_program: 2,
            shards: 3,
            threads: 2,
            seed: 77,
            size: 0,
        }
    }

    #[test]
    fn dist_over_handles_odd_even_and_empty() {
        assert_eq!(
            Dist::over(vec![]),
            Dist {
                min: 0.0,
                median: 0.0,
                max: 0.0
            }
        );
        let odd = Dist::over(vec![0.3, 0.1, 0.2]);
        assert_eq!((odd.min, odd.median, odd.max), (0.1, 0.2, 0.3));
        let even = Dist::over(vec![0.4, 0.1, 0.2, 0.3]);
        assert_eq!((even.min, even.median, even.max), (0.1, 0.25, 0.4));
    }

    #[test]
    fn triage_scale_beats_wer_on_multipath_population() {
        let dir = tmp_dir("triage");
        let rep = triage_scale(
            &small_spec(),
            &ResConfig::default(),
            &dir,
            &Recorder::disabled(),
        );
        assert_eq!(rep.programs, 6);
        assert_eq!(rep.reports, 12);
        // Each program is its own bug and RES keys are root-cause
        // stable, so RES should misbucket nothing here.
        assert_eq!(rep.res_total, 0.0, "{rep:?}");
        assert!(rep.wer_total >= rep.res_total, "{rep:?}");
        // The store directory gained one file per distinct program.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exploit_scale_rates_tainted_population_correctly() {
        let dir = tmp_dir("exploit");
        let spec = CorpusScaleSpec {
            classes: vec![GenClass::TaintedOverflow, GenClass::LocalOverflow],
            programs: 4,
            reports_per_program: 2,
            shards: 2,
            threads: 2,
            seed: 5,
            size: 0,
        };
        let rep = exploit_scale(&spec, &ResConfig::default(), &dir, &Recorder::disabled());
        assert_eq!(rep.reports, 8);
        assert_eq!(rep.res_total, 0.0, "{rep:?}");
        assert!(rep.heur_total > 0.0, "{rep:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hardware_scale_flags_no_genuine_reports() {
        // Classes whose dumps the engine fully explains (deadlocks are
        // excluded by construction: a deadlock dump has no faulting
        // suffix to synthesize, so the §3.2 verdict flags it).
        let dir = tmp_dir("hw");
        let spec = CorpusScaleSpec {
            classes: vec![GenClass::DivByZero, GenClass::LocalOverflow],
            programs: 4,
            reports_per_program: 4,
            shards: 2,
            threads: 2,
            seed: 11,
            size: 0,
        };
        let rep = hardware_scale(&spec, &ResConfig::default(), &dir, &Recorder::disabled());
        assert_eq!(rep.reports, 16);
        assert_eq!(rep.false_positives, 0, "{rep:?}");
        assert!(rep.recall_total > 0.5, "{rep:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
