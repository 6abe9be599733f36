//! Per-layer measurement for `--trace 1` runs.
//!
//! The benchmark records a span with an in-memory
//! [`res_obs::Recorder`] around each of its own calls into a layer's
//! public functions. When the run ends it writes the spans as a JSONL
//! journal, which `res-cli journal` reads. Each traced operation is a
//! `bench.op` root. Its `op` child replicates the operation's blocking
//! path: the direct children of `op` are the layer calls on that path.
//! Probes (extra calls on the same payloads, such as the dump encoding
//! `verdict_scope` performs inside `synthesize`) are the other children
//! of `bench.op` and are not on the path. Durations have the journal's
//! resolution of whole microseconds; medians are interpolated within it.
//!
//! Counts come from what the library reports back (`KernelStats`,
//! `ParallelReport`, `StoreReport`, payload sizes) over one fixed pass
//! of the population, so they repeat exactly for a given seed.
//! Speculation is counted on the two-worker probe every workload runs,
//! so it is measured even where the operation itself runs one worker.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use mvm_json::{Json, ToJson};
use res_core::{KernelStats, StoreReport};
use res_obs::{Event, EventKind, Recorder, JOURNAL_VERSION};

use crate::{median, ratio, Metric};

/// Runs `f` inside a span named `name` under `parent`.
pub fn time<T>(rec: &Recorder, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
    let _span = rec.span_under(name, parent);
    f()
}

/// Writes `events` as a JSONL journal in the recorder's own line format.
pub fn write_journal(events: &[Event], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for event in events {
        let mut fields = match event.to_json() {
            Json::Obj(fields) => fields,
            other => vec![("event".to_string(), other)],
        };
        fields.insert(0, ("v".to_string(), Json::U64(JOURNAL_VERSION)));
        writeln!(out, "{}", Json::Obj(fields).to_string_compact())?;
    }
    out.flush()
}

/// The median of durations recorded in whole microseconds, interpolated
/// within its 1 µs bin as for grouped data, so that it resolves below
/// the journal's resolution: of 3, 3, 4, 4, 4 it gives 3.67.
fn binned_median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let m = median(values);
    let below = values.iter().filter(|&&v| v < m).count() as f64;
    let at = values.iter().filter(|&&v| v == m).count() as f64;
    m - 0.5 + (values.len() as f64 / 2.0 - below) / at
}

/// A closed span.
struct SpanRow {
    name: String,
    parent: Option<u64>,
    us: f64,
}

/// The closed spans of a journal, by id.
struct Spans(BTreeMap<u64, SpanRow>);

impl Spans {
    fn of(events: &[Event]) -> Spans {
        let mut open = BTreeMap::new();
        let mut closed = BTreeMap::new();
        for e in events {
            match &e.kind {
                EventKind::Span { id, parent, name } => {
                    open.insert(*id, (name.clone(), *parent));
                }
                EventKind::End { id, dur_us } => {
                    if let Some((name, parent)) = open.remove(id) {
                        let us = *dur_us as f64;
                        closed.insert(*id, SpanRow { name, parent, us });
                    }
                }
                _ => {}
            }
        }
        Spans(closed)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRow> {
        self.0.values().filter(move |s| s.name == name)
    }

    fn any(&self, name: &str) -> bool {
        self.named(name).next().is_some()
    }

    /// Median duration of the spans named `name`, in µs (0 if none).
    fn median_us(&self, name: &str) -> f64 {
        binned_median(&self.named(name).map(|s| s.us).collect::<Vec<_>>())
    }

    /// Per operation (keyed by its `bench.op` root): the summed
    /// duration of the direct children of its `op` span whose names
    /// pass `keep`.
    fn path_us(&self, keep: impl Fn(&str) -> bool) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.0.values() {
            let Some(op) = s.parent.and_then(|p| self.0.get(&p)) else {
                continue;
            };
            if op.name == "op" && keep(&s.name) {
                *out.entry(op.parent.unwrap_or(0)).or_insert(0.0) += s.us;
            }
        }
        out
    }
}

/// Exact counts over the fixed counting pass.
#[derive(Default)]
pub struct Counts {
    pub calls: u64,
    /// `synthesize` probes at two workers (speculation's accounting).
    pub spec_calls: u64,
    pub nodes: u64,
    pub hypotheses: u64,
    pub speculative_nodes: u64,
    pub skipped_nodes: u64,
    pub queries: u64,
    pub cache_hits: u64,
    pub assignments: u64,
    pub unknown: u64,
    pub store_queries: u64,
    pub store_hits: u64,
    pub appended: u64,
    pub dumps: u64,
    pub dump_bytes: u64,
    pub requests: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub traces: u64,
    pub trace_bytes: u64,
}

impl Counts {
    /// Folds in the accounting of one `synthesize*` call.
    pub fn add_search(&mut self, stats: &KernelStats, store: Option<&StoreReport>) {
        self.calls += 1;
        self.nodes += stats.nodes_expanded;
        self.hypotheses += stats.hypotheses;
        self.skipped_nodes += stats.skipped.nodes;
        self.queries += stats.solver.queries;
        self.cache_hits += stats.solver.cache_hits;
        self.assignments += stats.solver.assignments;
        self.unknown += stats.solver.unknown_budget + stats.solver.unknown_incomplete;
        if let Some(s) = store {
            self.store_queries += stats.solver.queries;
            self.store_hits += s.store_hits;
            self.appended += s.appended_entries as u64;
        }
    }
}

/// What a workload adds to the per-layer report besides spans and
/// counts.
#[derive(Default)]
pub struct Extra {
    /// Untraced median operation time in the same run, µs.
    pub base_p50_us: f64,
    /// Span whose median is the traced time per operation.
    pub overhead_root: &'static str,
    /// Bytes of the store files the workload's operations start from.
    pub store_file_bytes: u64,
    pub hot_hit_ratio: f64,
    pub evictions: u64,
    pub rejected: u64,
}

/// Span names that make up a `triage` call (its children in
/// `triage.self_us`).
const TRIAGE_CHILDREN: [&str; 6] = [
    "triage.deadlock",
    "res.engine_build",
    "res.synthesize",
    "res.replay",
    "triage.bucket",
    "trace.record",
];

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn metrics(events: &[Event], c: &Counts, x: &Extra) -> Vec<Metric> {
    let t = Spans::of(events);
    let per_call = |v: u64| ratio(v as f64, c.calls as f64);
    let synth_us = t.median_us("res.synthesize");
    let nodes = per_call(c.nodes);
    let path: Vec<f64> = t.path_us(|_| true).into_values().collect();
    let path_p50 = binned_median(&path);
    let triage_path = t.path_us(|n| TRIAGE_CHILDREN.contains(&n));
    let self_us: Vec<f64> = t
        .named("triage.whole")
        .filter_map(|s| triage_path.get(&s.parent?).map(|p| s.us - p))
        .collect();
    let journal_us = if t.any("obs.journal") {
        t.median_us("obs.journal") - t.median_us("triage.whole")
    } else {
        0.0
    };
    vec![
        Metric::new("res.engine_build_us", t.median_us("res.engine_build"), "us"),
        Metric::new("res.synthesize_us", synth_us, "us"),
        Metric::new("res.nodes", nodes, "count"),
        Metric::new("res.hypotheses", per_call(c.hypotheses), "count"),
        Metric::new("res.us_per_node", ratio(synth_us, nodes), "us"),
        Metric::new(
            "res.speculate_us",
            t.median_us("spec.w2") - t.median_us("spec.w1"),
            "us",
        ),
        Metric::new(
            "res.speculative_nodes",
            ratio(c.speculative_nodes as f64, c.spec_calls as f64),
            "count",
        ),
        Metric::new("res.skipped_nodes", per_call(c.skipped_nodes), "count"),
        Metric::new(
            "res.skip_ratio",
            ratio(c.skipped_nodes as f64, (c.nodes + c.skipped_nodes) as f64),
            "ratio",
        ),
        Metric::new("res.replay_us", t.median_us("res.replay"), "us"),
        Metric::new("symbolic.queries", per_call(c.queries), "count"),
        Metric::new("symbolic.assignments", per_call(c.assignments), "count"),
        Metric::new(
            "symbolic.cache_hit_ratio",
            ratio(c.cache_hits as f64, c.queries as f64),
            "ratio",
        ),
        Metric::new("symbolic.unknown", c.unknown as f64, "count"),
        Metric::new(
            "serdes.dump_encode_us",
            t.median_us("serdes.dump_encode"),
            "us",
        ),
        Metric::new(
            "serdes.dump_bytes",
            ratio(c.dump_bytes as f64, c.dumps as f64),
            "bytes",
        ),
        Metric::new("store.open_us", t.median_us("store.open"), "us"),
        Metric::new("store.absorb_us", t.median_us("store.absorb"), "us"),
        Metric::new("store.commit_us", t.median_us("store.commit"), "us"),
        Metric::new("store.file_bytes", x.store_file_bytes as f64, "bytes"),
        Metric::new("store.appended_entries", c.appended as f64, "count"),
        Metric::new(
            "store.hit_ratio",
            ratio(c.store_hits as f64, c.store_queries as f64),
            "ratio",
        ),
        Metric::new("serve.codec_us", t.median_us("serve.codec"), "us"),
        Metric::new(
            "serve.request_bytes",
            ratio(c.request_bytes as f64, c.requests as f64),
            "bytes",
        ),
        Metric::new(
            "serve.response_bytes",
            ratio(c.response_bytes as f64, c.requests as f64),
            "bytes",
        ),
        Metric::new("serve.hot_hit_ratio", x.hot_hit_ratio, "ratio"),
        Metric::new("serve.evictions", x.evictions as f64, "count"),
        Metric::new("serve.rejected", x.rejected as f64, "count"),
        Metric::new(
            "serve.wait_us",
            if x.overhead_root == "serve.rtt" {
                x.base_p50_us - path_p50
            } else {
                0.0
            },
            "us",
        ),
        Metric::new("trace.record_us", t.median_us("trace.record"), "us"),
        Metric::new(
            "trace.bytes",
            ratio(c.trace_bytes as f64, c.traces as f64),
            "bytes",
        ),
        Metric::new("triage.bucket_us", t.median_us("triage.bucket"), "us"),
        Metric::new("triage.self_us", binned_median(&self_us), "us"),
        Metric::new("obs.journal_us", journal_us, "us"),
        Metric::new(
            "bench.attributed_ratio",
            ratio(path_p50, x.base_p50_us),
            "ratio",
        ),
        Metric::new(
            "bench.traced_overhead_ratio",
            ratio(t.median_us(x.overhead_root), x.base_p50_us),
            "ratio",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::binned_median;

    #[test]
    fn binned_median_interpolates_within_the_microsecond() {
        assert_eq!(binned_median(&[]), 0.0);
        assert_eq!(binned_median(&[5.0]), 5.0);
        assert_eq!(binned_median(&[3.0, 4.0]), 3.5);
        let m = binned_median(&[4.0, 3.0, 4.0, 3.0, 4.0]);
        assert!((m - 11.0 / 3.0).abs() < 1e-12, "{m}");
    }
}
