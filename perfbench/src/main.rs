//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <triage|hwfilter|deep|daemon> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `perfbench/METRICS.md` defines every workload and metric and maps
//! each per-layer metric to the end-to-end metric it should move.
//!
//! Every run builds its inputs from `--seed` with `res-workloads::gen`,
//! sets up (inputs, reference answers, warm-up) three times and keeps
//! the last set-up, then measures the workload for `--seconds`. With
//! `--trace 0` the timed loop runs with no instrumentation and the run
//! prints the end-to-end metrics; with `--trace 1` it prints the
//! per-layer metrics, measured from spans the benchmark records around
//! its own calls into each crate's public functions. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! Everything the run writes (stores, the traced run's span journal)
//! stays under `.perfbench/` in the working directory.

mod layers;
mod pop;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// How many times each run repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context lines printed before the result.
    pub notes: Vec<String>,
}

/// Latencies and failure counts of one timed closed loop.
#[derive(Default)]
pub struct Timed {
    pub latencies_us: Vec<f64>,
    /// Which input each operation ran.
    pub inputs: Vec<usize>,
    /// Wall-clock length of the loop, in seconds.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Timed {
    pub fn record(&mut self, input: usize, t0: Instant) {
        self.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        self.inputs.push(input);
    }

    pub fn merge(&mut self, other: Timed) {
        self.latencies_us.extend(other.latencies_us);
        self.inputs.extend(other.inputs);
        self.wall_s = self.wall_s.max(other.wall_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn p50_us(&self) -> f64 {
        quantile(&self.latencies_us, 0.5)
    }
}

/// Runs `op` over inputs `0..n` round-robin, in whole passes, until
/// `seconds` have passed. Only the call of `op` is timed: `prepare`
/// runs before the clock starts, and `check` after it stops to say
/// whether the answer was right.
pub fn closed_loop<A>(
    seconds: f64,
    n: usize,
    mut prepare: impl FnMut(usize),
    mut op: impl FnMut(usize) -> A,
    mut check: impl FnMut(usize, &A) -> bool,
) -> Timed {
    let mut timed = Timed::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i % n != 0 || start.elapsed() < budget {
        prepare(i % n);
        let t0 = Instant::now();
        let answer = op(i % n);
        timed.record(i % n, t0);
        timed.attempted += 1;
        if !check(i % n, &answer) {
            timed.failed += 1;
        }
        i += 1;
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns the last result
/// with the median set-up time.
pub fn repeated_setup<S>(mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The `q`-quantile of `values` by the nearest-rank rule (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics of a closed loop of `clients` (tracing off).
///
/// A shared host's speed swings by a third in phases of a few seconds,
/// and a slow phase only ever adds time. So an input's operation time
/// is the least that any of its repeats took in the run, and the
/// timings describe the population of these per-input times: the
/// median, the 90th percentile, and the closed loop's throughput at
/// those times, `clients / mean time` (Little's law). The benchmark's
/// own answer checks between operations do not count against it.
pub fn end_to_end(
    timed: &Timed,
    clients: usize,
    setup_s: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut runs: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for (&input, &us) in timed.inputs.iter().zip(&timed.latencies_us) {
        let (best, n) = runs.entry(input).or_insert((us, 0));
        *best = best.min(us);
        *n += 1;
    }
    let best: Vec<f64> = runs.values().map(|&(us, _)| us).collect();
    let repeats = runs.values().map(|&(_, n)| n);
    let (fewest, most) = (
        repeats.clone().min().unwrap_or(0),
        repeats.max().unwrap_or(0),
    );
    let p90 = quantile(&best, 0.9);
    let above_p90 = best.iter().filter(|&&us| us > p90).count();
    notes.push(format!(
        "{} operations over {} inputs, each run {fewest} to {most} times; \
         timings use each input's fastest run; {above_p90} inputs lie above the p90",
        timed.latencies_us.len(),
        best.len()
    ));
    if above_p90 < 10 {
        notes.push("warning: fewer than 10 inputs lie above the p90".into());
    }
    notes.push(format!(
        "wall-clock rate {:.1} operations/s, answer checks and slow phases included",
        ratio(timed.latencies_us.len() as f64, timed.wall_s)
    ));
    vec![
        Metric::new("latency_p50_ms", median(&best) / 1e3, "ms"),
        Metric::new("latency_p90_ms", p90 / 1e3, "ms"),
        Metric::new("ops_per_s", clients as f64 * 1e6 / mean(&best), "1/s"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

/// The printed `failed_ops_ratio` line. A correct build always reads 0,
/// so it is not a `BENCHMARK.json` metric; the result line carries the
/// same numbers as `failed` and `attempted`.
pub fn failed_ops_note(failed: u64, attempted: u64) -> String {
    format!(
        "failed_ops_ratio {} ratio ({failed} of {attempted} operations failed)",
        ratio(failed as f64, attempted as f64)
    )
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A per-run work directory under `.perfbench/`, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(args: &Args) -> std::io::Result<WorkDir> {
        let path =
            Path::new(".perfbench").join(format!("tmp-{}-{}", args.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create a work subdirectory");
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create .perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let outcome = workloads::run(&args, &work);
    drop(work);

    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    let mut metrics = Vec::new();
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
