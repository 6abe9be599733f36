//! Pretty-printing a journal: span tree, top counters, marks.
//!
//! The goal is that a cut run can be explained from its journal alone:
//! `render` shows where the time went (the span hierarchy with
//! durations), what the totals were (counters/gauges/histograms), and
//! what discrete things happened (marks, e.g. `kernel.cut` or
//! `store.degraded`).

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// The final cumulative counter totals in a journal, by name. Later
/// flushes supersede earlier ones (events are scanned in order, last
/// total wins), mirroring the append-only journal semantics.
pub fn counter_totals(events: &[Event]) -> BTreeMap<String, u64> {
    let mut totals = BTreeMap::new();
    for e in events {
        if let EventKind::Count { name, total } = &e.kind {
            totals.insert(name.clone(), *total);
        }
    }
    totals
}

/// Final gauge values by name (last write wins).
pub fn gauge_values(events: &[Event]) -> BTreeMap<String, u64> {
    let mut values = BTreeMap::new();
    for e in events {
        if let EventKind::Gauge { name, value } = &e.kind {
            values.insert(name.clone(), *value);
        }
    }
    values
}

#[derive(Debug, Clone)]
pub(crate) struct SpanNode {
    pub(crate) id: u64,
    pub(crate) name: String,
    pub(crate) start_us: u64,
    pub(crate) dur_us: Option<u64>,
    pub(crate) children: Vec<usize>,
}

/// The span forest of a journal: every span as a node (in start
/// order), plus the indices of the roots. A span whose parent id was
/// never opened in these events is treated as a root, so a filtered
/// event slice still builds a forest. Shared with
/// [`query`](crate::query), which walks subtrees instead of rendering.
pub(crate) fn span_forest(events: &[Event]) -> (Vec<SpanNode>, Vec<usize>) {
    let mut nodes: Vec<SpanNode> = Vec::new();
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::Span { id, parent, name } => {
                let idx = nodes.len();
                nodes.push(SpanNode {
                    id: *id,
                    name: name.clone(),
                    start_us: e.t_us,
                    dur_us: None,
                    children: Vec::new(),
                });
                index_of.insert(*id, idx);
                match parent.and_then(|p| index_of.get(&p).copied()) {
                    Some(p) => nodes[p].children.push(idx),
                    None => roots.push(idx),
                }
            }
            EventKind::End { id, dur_us } => {
                if let Some(&idx) = index_of.get(id) {
                    nodes[idx].dur_us = Some(*dur_us);
                }
            }
            _ => {}
        }
    }
    (nodes, roots)
}

/// Renders the span hierarchy as an indented tree with durations, in
/// start order. Spans with no recorded `End` (the run died or the
/// journal was truncated) print as `open`.
pub fn span_tree(events: &[Event]) -> String {
    let (nodes, roots) = span_forest(events);
    let mut out = String::new();
    for &root in &roots {
        render_span(&nodes, root, 0, &mut out);
    }
    out
}

fn render_span(nodes: &[SpanNode], idx: usize, depth: usize, out: &mut String) {
    let n = &nodes[idx];
    for _ in 0..depth {
        out.push_str("  ");
    }
    match n.dur_us {
        Some(d) => out.push_str(&format!(
            "{} [{}] +{} {}\n",
            n.name,
            n.id,
            fmt_us(n.start_us),
            fmt_us(d)
        )),
        None => out.push_str(&format!(
            "{} [{}] +{} open\n",
            n.name,
            n.id,
            fmt_us(n.start_us)
        )),
    }
    for &c in &n.children {
        render_span(nodes, c, depth + 1, out);
    }
}

pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
    } else if us >= 1_000 {
        format!("{}.{:03}ms", us / 1_000, us % 1_000)
    } else {
        format!("{us}us")
    }
}

/// The `limit` largest counters by total, descending (ties broken by
/// name so output is deterministic).
pub fn top_counters(events: &[Event], limit: usize) -> Vec<(String, u64)> {
    let mut totals: Vec<(String, u64)> = counter_totals(events).into_iter().collect();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    totals.truncate(limit);
    totals
}

/// Full human-readable report: span tree, top counters, gauges,
/// histograms, and marks.
pub fn render(events: &[Event]) -> String {
    let mut out = String::new();
    out.push_str("spans:\n");
    let tree = span_tree(events);
    if tree.is_empty() {
        out.push_str("  (none)\n");
    } else {
        for line in tree.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }

    let counters = top_counters(events, 20);
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, total) in counters {
            out.push_str(&format!("  {name:<40} {total}\n"));
        }
    }

    let gauges = gauge_values(events);
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, value) in gauges {
            out.push_str(&format!("  {name:<40} {value}\n"));
        }
    }

    let mut histos: BTreeMap<String, (u64, u64, u64, u64, Option<Vec<u64>>)> = BTreeMap::new();
    for e in events {
        if let EventKind::Histo {
            name,
            count,
            sum,
            min,
            max,
            buckets,
        } = &e.kind
        {
            histos.insert(name.clone(), (*count, *sum, *min, *max, buckets.clone()));
        }
    }
    if !histos.is_empty() {
        out.push_str("histograms:\n");
        for (name, (count, sum, min, max, buckets)) in histos {
            let mean = if count == 0 { 0 } else { sum / count };
            out.push_str(&format!(
                "  {name:<40} n={count} mean={mean} min={min} max={max}"
            ));
            // Quantiles are only honest when the distribution was
            // recorded; pre-bucket journals fall back to the summary.
            if let Some(buckets) = buckets.filter(|b| !b.is_empty()) {
                let q = |pct| crate::registry::quantile_from_buckets(&buckets, pct, max);
                out.push_str(&format!(" p50={} p95={} p99={}", q(50), q(95), q(99)));
            }
            out.push('\n');
        }
    }

    let marks: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Mark { .. }))
        .collect();
    if !marks.is_empty() {
        out.push_str("marks:\n");
        for e in marks {
            if let EventKind::Mark { name, fields } = &e.kind {
                out.push_str(&format!("  +{} {name}", fmt_us(e.t_us)));
                for (k, v) in fields {
                    out.push_str(&format!(" {k}={v}"));
                }
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::registry::Registry;

    #[test]
    fn tree_shows_nesting_and_durations() {
        let rec = Recorder::memory();
        {
            let run = rec.span("synthesize");
            let _absorb = run.child("absorb");
            let _replay = run.child("replay");
        }
        let tree = span_tree(&rec.snapshot());
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("synthesize"));
        assert!(lines[1].starts_with("  absorb"));
        assert!(lines[2].starts_with("  replay"));
        assert!(!tree.contains("open"), "all spans closed: {tree}");
    }

    #[test]
    fn unclosed_spans_render_as_open() {
        let rec = Recorder::memory();
        let run = rec.span("synthesize");
        let tree = span_tree(&rec.snapshot());
        assert!(tree.contains("open"), "{tree}");
        drop(run);
    }

    #[test]
    fn top_counters_sorts_desc_then_by_name() {
        let rec = Recorder::memory();
        rec.counter("b", 5);
        rec.counter("a", 5);
        rec.counter("c", 9);
        rec.finish();
        let top = top_counters(&rec.snapshot(), 2);
        assert_eq!(top, vec![("c".to_string(), 9), ("a".to_string(), 5)]);
    }

    #[test]
    fn render_includes_all_sections() {
        let rec = Recorder::memory();
        let reg = Registry::new();
        {
            let _run = rec.span("run");
            rec.counter("kernel.nodes_expanded", 41);
            rec.gauge("workers", 4);
            reg.histogram("suffix.len").record(6);
            rec.event_with("store.open", || vec![("outcome".into(), "Loaded".into())]);
        }
        reg.flush_to(&rec);
        rec.finish();
        let report = render(&rec.snapshot());
        for needle in [
            "spans:",
            "run",
            "counters:",
            "kernel.nodes_expanded",
            "gauges:",
            "workers",
            "histograms:",
            "suffix.len",
            "marks:",
            "store.open outcome=Loaded",
        ] {
            assert!(report.contains(needle), "missing {needle:?} in:\n{report}");
        }
    }

    #[test]
    fn histogram_section_prints_quantiles_when_buckets_present() {
        let rec = Recorder::memory();
        let reg = Registry::new();
        let rtt = reg.histogram("rtt_us");
        for v in [10u64, 20, 30, 400, 5000] {
            rtt.record(v);
        }
        reg.flush_to(&rec);
        let report = render(&rec.snapshot());
        assert!(report.contains("p50="), "{report}");
        assert!(report.contains("p95="), "{report}");
        assert!(report.contains("p99="), "{report}");
        // A bucketless histogram event renders the summary only.
        let legacy = vec![crate::Event {
            seq: 0,
            t_us: 0,
            kind: EventKind::Histo {
                name: "old".into(),
                count: 1,
                sum: 5,
                min: 5,
                max: 5,
                buckets: None,
            },
        }];
        let report = render(&legacy);
        assert!(report.contains("old"), "{report}");
        assert!(!report.contains("p50="), "{report}");
    }

    #[test]
    fn fmt_us_scales() {
        assert_eq!(fmt_us(12), "12us");
        assert_eq!(fmt_us(4_230), "4.230ms");
        assert_eq!(fmt_us(7_004_230), "7.004s");
    }
}
