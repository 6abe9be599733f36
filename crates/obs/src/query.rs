//! Journal queries: filter and aggregate a parsed journal without jq.
//!
//! A daemon journal interleaves thousands of spans, marks, and metric
//! flushes from many requests. This module answers the operator
//! questions directly: *which counters match this glob*, *show me the
//! subtrees under this span prefix*, *reconstruct request `c3.2`'s
//! span tree*, *summarize the latency distributions*. It is the
//! library behind `res-cli journal`.
//!
//! Request reconstruction leans on one convention: the serving layer
//! marks each request with a `*.req.meta` event whose fields carry
//! `req` (the request id), `span` (the root span id), and `endpoint`.
//! Everything under that root span — admission, queue wait, worker
//! phases, reply serialization — is then reachable as an ordinary span
//! subtree, which is what makes the journal *reconcilable* per
//! request.

use std::collections::BTreeSet;

use crate::event::{Event, EventKind};
use crate::registry::{quantile_from_buckets, HistoSnapshot};
use crate::render::{fmt_us, span_forest};

/// Matches `name` against a glob `pattern` where `*` matches any run
/// of characters (including none) and every other byte matches itself.
/// The empty pattern matches only the empty name.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn inner(p: &[u8], n: &[u8]) -> bool {
        match p.split_first() {
            None => n.is_empty(),
            Some((b'*', rest)) => (0..=n.len()).any(|skip| inner(rest, &n[skip..])),
            Some((c, rest)) => n
                .split_first()
                .is_some_and(|(d, tail)| c == d && inner(rest, tail)),
        }
    }
    inner(pattern.as_bytes(), name.as_bytes())
}

/// The final counter totals and gauge values whose names match the
/// glob `pattern`, in name order. Gauges count too: the daemon
/// journals its running counts as gauges.
pub fn counters_matching(events: &[Event], pattern: &str) -> Vec<(String, u64)> {
    let mut values = crate::render::counter_totals(events);
    values.extend(crate::render::gauge_values(events));
    values
        .into_iter()
        .filter(|(name, _)| glob_match(pattern, name))
        .collect()
}

/// One reconstructed daemon request, assembled from its `*.req.meta`
/// mark and the span forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestEntry {
    /// The request id (e.g. `c3.2`: connection 3, request 2).
    pub req_id: String,
    /// Wire endpoint name (e.g. `triage`, `bucket_batch`, `stats`).
    pub endpoint: String,
    /// Root span id from the meta mark (`None` when the mark named a
    /// span that never opened in these events — a reconciliation
    /// failure).
    pub span_id: Option<u64>,
    /// Spans in the request's subtree (including the root).
    pub spans: usize,
    /// `true` when every span in the subtree recorded its `End`.
    pub closed: bool,
    /// The root span's duration, when closed.
    pub dur_us: Option<u64>,
}

impl RequestEntry {
    /// A request *reconciles* when its meta mark resolves to a real
    /// span, that subtree carries phase children, and every span in it
    /// closed — i.e. the journal tells the request's complete story.
    pub fn reconciled(&self) -> bool {
        self.span_id.is_some() && self.spans >= 2 && self.closed
    }
}

/// Every request in the journal, in mark order. Requests are
/// discovered through marks named `<scope>.req.meta` carrying `req`,
/// `span`, and `endpoint` fields (the `res-serve` convention).
pub fn requests(events: &[Event]) -> Vec<RequestEntry> {
    let (nodes, _roots) = span_forest(events);
    let mut entries = Vec::new();
    for e in events {
        let EventKind::Mark { name, fields } = &e.kind else {
            continue;
        };
        if !name.ends_with(".req.meta") {
            continue;
        }
        let field = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        let req_id = field("req");
        let endpoint = field("endpoint");
        let span_id: Option<u64> = field("span").parse().ok();
        let root = span_id.and_then(|id| nodes.iter().position(|n| n.id == id));
        let (spans, closed, dur_us) = match root {
            None => (0, false, None),
            Some(root) => {
                let mut count = 0usize;
                let mut closed = true;
                let mut stack = vec![root];
                while let Some(idx) = stack.pop() {
                    count += 1;
                    closed &= nodes[idx].dur_us.is_some();
                    stack.extend(&nodes[idx].children);
                }
                (count, closed, nodes[root].dur_us)
            }
        };
        entries.push(RequestEntry {
            req_id,
            endpoint,
            span_id: root.map(|idx| nodes[idx].id),
            spans,
            closed,
            dur_us,
        });
    }
    entries
}

/// The events belonging to span subtrees selected by `root_matches`
/// (applied to each span's name): the `Span`/`End` pairs of every span
/// at or below a matching root, in journal order. Metric and mark
/// events are not included — they are not parented to spans.
pub fn subtree_events(events: &[Event], root_matches: impl Fn(&str) -> bool) -> Vec<Event> {
    let mut keep: BTreeSet<u64> = BTreeSet::new();
    // Parent links arrive before children (spans open in order), so
    // one forward pass closes the subtree membership set.
    for e in events {
        if let EventKind::Span { id, parent, name } = &e.kind {
            let inherited = parent.is_some_and(|p| keep.contains(&p));
            if inherited || root_matches(name) {
                keep.insert(*id);
            }
        }
    }
    events
        .iter()
        .filter(|e| match &e.kind {
            EventKind::Span { id, .. } | EventKind::End { id, .. } => keep.contains(id),
            _ => false,
        })
        .cloned()
        .collect()
}

/// The rendered span trees of every subtree whose root name starts
/// with `prefix` (e.g. `serve.req` for all request trees, `replay`
/// for the replay phase).
pub fn render_span_prefix(events: &[Event], prefix: &str) -> String {
    crate::render::span_tree(&subtree_events(events, |name| name.starts_with(prefix)))
}

/// The rendered span tree of one request, found by id via its
/// `*.req.meta` mark. `None` when the journal has no such request.
pub fn render_request(events: &[Event], req_id: &str) -> Option<String> {
    let entry = requests(events).into_iter().find(|r| r.req_id == req_id)?;
    let root = entry.span_id?;
    let tree = crate::render::span_tree(&subtree_events_under(events, root));
    let mut out = format!(
        "request {} endpoint={} spans={} {}\n",
        entry.req_id,
        entry.endpoint,
        entry.spans,
        match entry.dur_us {
            Some(d) => fmt_us(d),
            None => "open".to_string(),
        }
    );
    out.push_str(&tree);
    Some(out)
}

fn subtree_events_under(events: &[Event], root: u64) -> Vec<Event> {
    let mut keep: BTreeSet<u64> = BTreeSet::new();
    keep.insert(root);
    for e in events {
        if let EventKind::Span { id, parent, .. } = &e.kind {
            if parent.is_some_and(|p| keep.contains(&p)) {
                keep.insert(*id);
            }
        }
    }
    events
        .iter()
        .filter(|e| match &e.kind {
            EventKind::Span { id, .. } | EventKind::End { id, .. } => keep.contains(id),
            _ => false,
        })
        .cloned()
        .collect()
}

/// Percentile summaries of every histogram in the journal (last flush
/// per name wins), sorted by name. Histograms journaled without bucket
/// distributions get quantiles clamped to their `max` — honest but
/// coarse.
pub fn histo_summaries(events: &[Event]) -> Vec<HistoSnapshot> {
    let mut last: std::collections::BTreeMap<String, HistoSnapshot> =
        std::collections::BTreeMap::new();
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
            let buckets = buckets.clone().unwrap_or_default();
            last.insert(
                name.clone(),
                HistoSnapshot {
                    name: name.clone(),
                    count: *count,
                    sum: *sum,
                    min: *min,
                    max: *max,
                    p50: quantile_from_buckets(&buckets, 50, *max),
                    p95: quantile_from_buckets(&buckets, 95, *max),
                    p99: quantile_from_buckets(&buckets, 99, *max),
                    buckets,
                },
            );
        }
    }
    last.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::registry::Registry;

    #[test]
    fn glob_matches_literals_and_stars() {
        assert!(glob_match("serve.*", "serve.queue.depth"));
        assert!(glob_match("*.depth", "serve.queue.depth"));
        assert!(glob_match("serve.*.hit.*", "serve.hot.hit.00ff"));
        assert!(glob_match("exact", "exact"));
        assert!(!glob_match("exact", "exact.more"));
        assert!(!glob_match("serve.*", "store.open"));
        assert!(glob_match("*", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn counters_matching_filters_by_glob() {
        let rec = Recorder::memory();
        rec.counter("serve.admitted", 5);
        rec.counter("serve.rejected.queue", 2);
        rec.counter("kernel.nodes", 100);
        rec.gauge("serve.hot.hits", 3);
        rec.finish();
        let got = counters_matching(&rec.snapshot(), "serve.*");
        assert_eq!(
            got,
            vec![
                ("serve.admitted".to_string(), 5),
                ("serve.hot.hits".to_string(), 3),
                ("serve.rejected.queue".to_string(), 2)
            ]
        );
    }

    fn fake_request(rec: &Recorder, req_id: &str, endpoint: &str, close: bool) {
        let root = rec.span("serve.req");
        rec.event_with("serve.req.meta", || {
            vec![
                ("req".into(), req_id.into()),
                ("span".into(), root.id().unwrap().to_string()),
                ("endpoint".into(), endpoint.into()),
            ]
        });
        let work = root.child("work");
        drop(work);
        if !close {
            std::mem::forget(root);
        }
    }

    #[test]
    fn requests_reconstructs_subtrees() {
        let rec = Recorder::memory();
        fake_request(&rec, "c1.0", "triage", true);
        fake_request(&rec, "c1.1", "stats", true);
        let entries = requests(&rec.snapshot());
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].req_id, "c1.0");
        assert_eq!(entries[0].endpoint, "triage");
        assert_eq!(entries[0].spans, 2, "root + work child");
        assert!(entries[0].reconciled());
        assert!(entries[1].reconciled());
    }

    #[test]
    fn unclosed_request_does_not_reconcile() {
        let rec = Recorder::memory();
        fake_request(&rec, "c9.0", "triage", false);
        let entries = requests(&rec.snapshot());
        assert_eq!(entries.len(), 1);
        assert!(!entries[0].closed);
        assert!(!entries[0].reconciled());
    }

    #[test]
    fn render_request_shows_one_tree() {
        let rec = Recorder::memory();
        fake_request(&rec, "c1.0", "triage", true);
        fake_request(&rec, "c1.1", "bucket_batch", true);
        let events = rec.snapshot();
        let text = render_request(&events, "c1.1").expect("request exists");
        assert!(text.contains("c1.1"), "{text}");
        assert!(text.contains("bucket_batch"), "{text}");
        assert_eq!(
            text.lines().count(),
            3,
            "header + two spans, not the other request's tree: {text}"
        );
        assert!(render_request(&events, "c404.0").is_none());
    }

    #[test]
    fn span_prefix_filter_keeps_whole_subtrees() {
        let rec = Recorder::memory();
        {
            let outer = rec.span("serve.req");
            let _inner = outer.child("work");
        }
        {
            let _other = rec.span("replay");
        }
        let out = render_span_prefix(&rec.snapshot(), "serve.req");
        assert!(out.contains("serve.req"), "{out}");
        assert!(out.contains("work"), "children ride along: {out}");
        assert!(!out.contains("replay"), "{out}");
    }

    #[test]
    fn histo_summaries_compute_quantiles() {
        let rec = Recorder::memory();
        let reg = Registry::new();
        let lat = reg.histogram("lat_us");
        for v in 1..=100u64 {
            lat.record(v);
        }
        reg.flush_to(&rec);
        let summaries = histo_summaries(&rec.snapshot());
        assert_eq!(summaries.len(), 1);
        let s = &summaries[0];
        assert_eq!((s.name.as_str(), s.count), ("lat_us", 100));
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
    }
}
