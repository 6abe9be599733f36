//! Benchmark self-test: every workload at minimal length.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! Checks that each run prints every metric `BENCHMARK.json` names,
//! with its unit, that no operation fails, and that every per-layer
//! count repeats exactly between two traced runs of the same seed.

use std::path::{Path, PathBuf};
use std::process::Command;

use mvm_json::Json;

const SEED: &str = "7";
/// Workloads the benchmark runs besides those `BENCHMARK.json` lists.
const DIAGNOSTIC: [&str; 2] = ["deep", "daemon"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn benchmark() -> Json {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    mvm_json::parse(&text).expect("parse BENCHMARK.json")
}

/// Every workload: the listed ones and the diagnostic ones.
fn workloads(b: &Json) -> Vec<String> {
    let mut all = names(b, "workloads", "name");
    all.extend(DIAGNOSTIC.map(String::from));
    all
}

fn names(b: &Json, section: &str, field: &str) -> Vec<String> {
    b.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Json::as_str)
                .expect(field)
                .to_string()
        })
        .collect()
}

/// One minimal run from the repository root, where benchmark runs start:
/// the parsed result line and the whole standard output.
fn run(workload: &str, trace: &str) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            SEED,
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(repo_root())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().expect("a result line");
    (mvm_json::parse(last).expect("result line is JSON"), stdout)
}

fn metric(result: &Json, name: &str) -> (f64, String) {
    let m = result
        .get("metrics")
        .and_then(|ms| ms.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    let value = m
        .get("value")
        .and_then(Json::as_f64)
        .expect("numeric value");
    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
    (value, unit.to_string())
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let b = benchmark();
    for workload in workloads(&b) {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (result, stdout) = run(&workload, trace);
            for (name, unit) in names(&b, section, "name")
                .into_iter()
                .zip(names(&b, section, "unit"))
            {
                let (value, printed) = metric(&result, &name);
                assert_eq!(printed, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload} --trace {trace}: failed operations\n{stdout}"
            );
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with("failed_ops_ratio 0 ratio")),
                "{workload} --trace {trace}: failed_ops_ratio must print as 0\n{stdout}"
            );
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        }
    }
}

/// A per-layer metric that is a count, a size, or a ratio of counts
/// (timings and the timing-derived `bench.*` ratios may differ).
fn is_count(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "bytes") || (unit == "ratio" && !name.starts_with("bench."))
}

#[test]
fn per_layer_counts_repeat_exactly_for_a_seed() {
    let b = benchmark();
    let layers: Vec<(String, String)> = names(&b, "per_layer", "name")
        .into_iter()
        .zip(names(&b, "per_layer", "unit"))
        .filter(|(n, u)| is_count(n, u))
        .collect();
    let mut differ = Vec::new();
    for workload in workloads(&b) {
        let (first, _) = run(&workload, "1");
        let (second, _) = run(&workload, "1");
        for (name, _) in &layers {
            let (a, b) = (metric(&first, name).0, metric(&second, name).0);
            if a != b {
                differ.push(format!("{workload}: {name} {a} vs {b}"));
            }
        }
    }
    assert!(
        differ.is_empty(),
        "counts differ between runs:\n{}",
        differ.join("\n")
    );
}
