//! The recorder: the one handle the instrumented layers hold.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mvm_json::{FromJson as _, Json, ToJson as _};

use crate::event::{Event, EventKind};

/// The journal schema version this crate writes. Every JSONL line
/// carries a leading `"v"` key so readers can tell apart (and skip)
/// lines written by a future incompatible writer instead of failing the
/// whole file; see [`read_journal_full`].
pub const JOURNAL_VERSION: u64 = 1;

/// A cheaply clonable, thread-safe tracing handle.
///
/// A recorder is either **enabled** (wrapping a shared sink: a JSONL
/// journal file or an in-memory event buffer) or **disabled** (the
/// default): a `None` that makes every call an allocation-free no-op.
/// Clones share the sink, the clock, and the metric totals, so one
/// recorder can be handed to the engine, the store, and N worker
/// threads at once.
///
/// [`scoped`](Recorder::scoped) derives a handle that prefixes every
/// metric, span and mark name (`rec.scoped("store")` turns `open` into
/// `store.open`), so a component names its events without knowing
/// where it is journaled.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
    /// Metric-name prefix, including its trailing `.` (empty for the
    /// root handle). Only ever non-empty on enabled recorders.
    prefix: String,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    next_span: AtomicU64,
    sink: Mutex<SinkState>,
    metrics: Mutex<Metrics>,
}

#[derive(Debug)]
struct SinkState {
    seq: u64,
    out: SinkOut,
}

#[derive(Debug)]
enum SinkOut {
    Memory(Vec<Event>),
    File(BufWriter<std::fs::File>),
}

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

impl Recorder {
    /// The no-op recorder: disabled, allocation-free on every call.
    pub fn disabled() -> Recorder {
        Recorder::default()
    }

    /// A recorder whose events accumulate in memory (retrieve them with
    /// [`snapshot`](Recorder::snapshot)). Used by tests and by callers
    /// that render a report without touching the filesystem.
    pub fn memory() -> Recorder {
        Recorder::with_sink(SinkOut::Memory(Vec::new()))
    }

    /// A recorder journaling to a JSONL file at `path` (parent
    /// directories are created; an existing file is truncated — each
    /// journal describes one recorder's lifetime). An I/O failure
    /// degrades to a disabled recorder with a warning on stderr, so
    /// tracing can never take the search down with it.
    pub fn journal(path: impl AsRef<Path>) -> Recorder {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(parent);
            }
        }
        match std::fs::File::create(path) {
            Ok(f) => Recorder::with_sink(SinkOut::File(BufWriter::new(f))),
            Err(e) => {
                eprintln!(
                    "res-obs: cannot open journal {}: {e}; tracing disabled",
                    path.display()
                );
                Recorder::disabled()
            }
        }
    }

    fn with_sink(out: SinkOut) -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                next_span: AtomicU64::new(1),
                sink: Mutex::new(SinkState { seq: 0, out }),
                metrics: Mutex::new(Metrics::default()),
            })),
            prefix: String::new(),
        }
    }

    /// `true` when events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// A handle sharing this recorder's sink whose metric names gain
    /// the `seg.` prefix (nesting concatenates: scoping `w0` under
    /// `speculate` yields `speculate.w0.`). Span and mark names are
    /// prefixed the same way. On a disabled recorder this is free.
    pub fn scoped(&self, seg: &str) -> Recorder {
        match &self.inner {
            None => Recorder::disabled(),
            Some(inner) => Recorder {
                inner: Some(Arc::clone(inner)),
                prefix: format!("{}{}.", self.prefix, seg),
            },
        }
    }

    fn key(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}{}", self.prefix, name)
        }
    }

    /// Adds `delta` to the named counter. Totals are flushed by
    /// [`finish`](Recorder::finish), not per call, so hot loops cost
    /// one map update per event and the journal stays compact.
    pub fn counter(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        *inner
            .metrics
            .lock()
            .expect("metrics lock")
            .counters
            .entry(self.key(name))
            .or_insert(0) += delta;
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .metrics
            .lock()
            .expect("metrics lock")
            .gauges
            .insert(self.key(name), value);
    }

    /// Emits a discrete [`EventKind::Mark`]. The field closure runs
    /// only when the recorder is enabled, so callers can format freely
    /// without paying on the disabled path.
    pub fn event_with(&self, name: &str, fields: impl FnOnce() -> Vec<(String, String)>) {
        let Some(inner) = &self.inner else { return };
        inner.emit(EventKind::Mark {
            name: self.key(name),
            fields: fields(),
        });
    }

    /// Opens a root span (no parent).
    pub fn span(&self, name: &str) -> Span {
        self.span_under(name, None)
    }

    /// Opens a span under an explicit parent id — for hierarchies that
    /// cross threads, where a [`Span`] guard cannot be shared but its
    /// [`id`](Span::id) can.
    pub fn span_under(&self, name: &str, parent: Option<u64>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { inner: None };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        inner.emit(EventKind::Span {
            id,
            parent,
            name: self.key(name),
        });
        Span {
            inner: Some(SpanInner {
                rec: Arc::clone(inner),
                prefix: self.prefix.clone(),
                id,
                started: Instant::now(),
            }),
        }
    }

    /// Flushes the accumulated metric totals (as cumulative
    /// [`EventKind::Count`]/[`Gauge`](EventKind::Gauge) events, in
    /// sorted name order) and the journal file. Call at the end of a
    /// run; calling again later appends a newer snapshot — the last
    /// total for a name wins. Histograms live in a
    /// [`Registry`](crate::Registry) and reach the journal through
    /// [`Registry::flush_to`](crate::Registry::flush_to).
    pub fn finish(&self) {
        let Some(inner) = &self.inner else { return };
        let metrics = inner.metrics.lock().expect("metrics lock");
        let counts: Vec<EventKind> = metrics
            .counters
            .iter()
            .map(|(name, &total)| EventKind::Count {
                name: name.clone(),
                total,
            })
            .chain(
                metrics
                    .gauges
                    .iter()
                    .map(|(name, &value)| EventKind::Gauge {
                        name: name.clone(),
                        value,
                    }),
            )
            .collect();
        drop(metrics);
        for kind in counts {
            inner.emit(kind);
        }
        let mut sink = inner.sink.lock().expect("sink lock");
        if let SinkOut::File(f) = &mut sink.out {
            let _ = f.flush();
        }
    }

    /// Emits the current value of every gauge under this handle's
    /// prefix as [`EventKind::Gauge`] events *now*, without flushing
    /// counters. A long-lived daemon calls this per
    /// request completion so the journal records a **time series** of
    /// queue depth / hot-set size instead of a single final total;
    /// [`finish`](Recorder::finish) at shutdown still writes the last
    /// word. Events are buffered like any other emission — no fsync
    /// per call.
    pub fn flush_gauges(&self) {
        let Some(inner) = &self.inner else { return };
        let gauges: Vec<(String, u64)> = {
            let metrics = inner.metrics.lock().expect("metrics lock");
            metrics
                .gauges
                .iter()
                .filter(|(name, _)| name.starts_with(&self.prefix))
                .map(|(name, &value)| (name.clone(), value))
                .collect()
        };
        for (name, value) in gauges {
            inner.emit(EventKind::Gauge { name, value });
        }
    }

    /// Emits a fully-formed histogram snapshot event (used by
    /// [`Registry::flush_to`](crate::registry::Registry::flush_to) to
    /// journal live-registry distributions alongside recorder metrics).
    pub(crate) fn emit_histo(
        &self,
        name: &str,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        buckets: Option<Vec<u64>>,
    ) {
        let Some(inner) = &self.inner else { return };
        inner.emit(EventKind::Histo {
            name: self.key(name),
            count,
            sum,
            min,
            max,
            buckets,
        });
    }

    /// The events recorded so far by a [`memory`](Recorder::memory)
    /// recorder (empty for journal-file and disabled recorders).
    pub fn snapshot(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        match &inner.sink.lock().expect("sink lock").out {
            SinkOut::Memory(events) => events.clone(),
            SinkOut::File(_) => Vec::new(),
        }
    }
}

impl Inner {
    fn emit(&self, kind: EventKind) {
        let t_us = self.origin.elapsed().as_micros() as u64;
        let mut sink = self.sink.lock().expect("sink lock");
        let seq = sink.seq;
        sink.seq += 1;
        let event = Event { seq, t_us, kind };
        match &mut sink.out {
            SinkOut::Memory(events) => events.push(event),
            SinkOut::File(f) => {
                // Tag every line with the schema version, leading key
                // first, so a reader can dispatch before parsing the
                // event body.
                let mut obj = match event.to_json() {
                    Json::Obj(fields) => fields,
                    other => vec![("event".to_string(), other)],
                };
                obj.insert(0, ("v".to_string(), Json::U64(JOURNAL_VERSION)));
                let _ = writeln!(f, "{}", Json::Obj(obj).to_string_compact());
            }
        }
    }
}

/// An open span. Dropping it emits the matching [`EventKind::End`]
/// with the measured duration. Obtain children with
/// [`child`](Span::child); pass [`id`](Span::id) across threads to
/// parent spans the guard itself cannot reach.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    rec: Arc<Inner>,
    prefix: String,
    id: u64,
    started: Instant,
}

impl Span {
    /// This span's journal id (`None` on a disabled recorder).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|s| s.id)
    }

    /// Opens a child span.
    pub fn child(&self, name: &str) -> Span {
        let Some(s) = &self.inner else {
            return Span { inner: None };
        };
        let id = s.rec.next_span.fetch_add(1, Ordering::Relaxed);
        let full = if s.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}{}", s.prefix, name)
        };
        s.rec.emit(EventKind::Span {
            id,
            parent: Some(s.id),
            name: full,
        });
        Span {
            inner: Some(SpanInner {
                rec: Arc::clone(&s.rec),
                prefix: s.prefix.clone(),
                id,
                started: Instant::now(),
            }),
        }
    }

    /// Closes the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = &self.inner {
            s.rec.emit(EventKind::End {
                id: s.id,
                dur_us: s.started.elapsed().as_micros() as u64,
            });
        }
    }
}

/// A parsed journal: the events this reader understood plus a report
/// of the lines it skipped because a future writer stamped them with an
/// unknown schema version.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// The version-1 events, in file order.
    pub events: Vec<Event>,
    /// `(line_number, version)` for every skipped unknown-version line
    /// (line numbers are 1-based).
    pub skipped: Vec<(usize, u64)>,
}

/// Parses a JSONL journal file, tolerating unknown schema versions.
///
/// Blank lines are skipped. A line whose `"v"` tag names a version this
/// reader does not understand is recorded in
/// [`Journal::skipped`] instead of failing the whole file — a journal
/// is append-only and long-lived, and one foreign line must not make
/// the rest unreadable. Lines with no `"v"` tag are treated as version
/// 1 (journals written before the tag existed). A line that is not
/// valid JSON at all, or that claims version 1 but does not parse as an
/// [`Event`], is still a hard error naming its line number.
pub fn read_journal_full(path: impl AsRef<Path>) -> Result<Journal, String> {
    let path = path.as_ref();
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut journal = Journal::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = mvm_json::parse(line)
            .map_err(|e| format!("{}:{}: {}", path.display(), i + 1, e.message))?;
        let version = value
            .get("v")
            .and_then(Json::as_u64)
            .unwrap_or(JOURNAL_VERSION);
        if version != JOURNAL_VERSION {
            journal.skipped.push((i + 1, version));
            continue;
        }
        let event = Event::from_json(&value)
            .map_err(|e| format!("{}:{}: {}", path.display(), i + 1, e.message))?;
        journal.events.push(event);
    }
    Ok(journal)
}

/// Parses a JSONL journal file back into events. Unknown-version lines
/// are silently skipped; use [`read_journal_full`] to see the skip
/// report.
pub fn read_journal(path: impl AsRef<Path>) -> Result<Vec<Event>, String> {
    read_journal_full(path).map(|j| j.events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.enabled());
        rec.counter("c", 1);
        rec.gauge("g", 2);
        rec.event_with("m", || vec![("k".into(), "v".into())]);
        let span = rec.span("s");
        assert_eq!(span.id(), None);
        let child = span.child("t");
        assert_eq!(child.id(), None);
        rec.finish();
        assert!(rec.snapshot().is_empty());
        assert!(!rec.scoped("x").enabled());
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let rec = Recorder::memory();
        let outer = rec.span("outer");
        let outer_id = outer.id().unwrap();
        {
            let inner = outer.child("inner");
            assert_ne!(inner.id(), outer.id());
        }
        drop(outer);
        let events = rec.snapshot();
        assert_eq!(events.len(), 4, "two opens + two closes");
        match &events[1].kind {
            EventKind::Span { parent, name, .. } => {
                assert_eq!(*parent, Some(outer_id));
                assert_eq!(name, "inner");
            }
            other => panic!("expected inner span open, got {other:?}"),
        }
        // The inner span closes before the outer one.
        assert!(matches!(events[2].kind, EventKind::End { .. }));
        assert!(matches!(events[3].kind, EventKind::End { id, .. } if id == outer_id));
        // Sequence numbers are dense and ordered.
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
    }

    #[test]
    fn scoped_prefixes_compose() {
        let rec = Recorder::memory();
        let phase = rec.scoped("replay");
        let worker = phase.scoped("w0");
        phase.counter("nodes", 2);
        worker.counter("nodes", 5);
        rec.counter("nodes", 1);
        rec.finish();
        let totals = crate::render::counter_totals(&rec.snapshot());
        assert_eq!(totals["nodes"], 1);
        assert_eq!(totals["replay.nodes"], 2);
        assert_eq!(totals["replay.w0.nodes"], 5);
    }

    #[test]
    fn metrics_flush_as_cumulative_totals() {
        let rec = Recorder::memory();
        rec.counter("a", 1);
        rec.counter("a", 2);
        rec.gauge("g", 9);
        rec.gauge("g", 4);
        rec.finish();
        rec.counter("a", 1);
        rec.finish();
        let events = rec.snapshot();
        let totals = crate::render::counter_totals(&events);
        assert_eq!(totals["a"], 4, "second flush supersedes the first");
        let gauge = events.iter().rev().find_map(|e| match &e.kind {
            EventKind::Gauge { name, value } if name == "g" => Some(*value),
            _ => None,
        });
        assert_eq!(gauge, Some(4), "gauge keeps the last write");
    }

    #[test]
    fn journal_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("res-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let rec = Recorder::journal(&path);
        assert!(rec.enabled());
        {
            let _run = rec.span("run");
            rec.counter("kernel.nodes_expanded", 7);
        }
        rec.finish();
        let events = read_journal(&path).expect("journal must parse");
        assert!(events.len() >= 3);
        assert_eq!(
            crate::render::counter_totals(&events)["kernel.nodes_expanded"],
            7
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lines_carry_the_schema_tag() {
        let dir = std::env::temp_dir().join(format!("res-obs-vtag-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let rec = Recorder::journal(&path);
        rec.counter("c", 1);
        rec.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            assert!(
                line.starts_with("{\"v\":1,"),
                "every line leads with the version tag: {line}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_version_lines_are_skipped_and_reported() {
        let dir = std::env::temp_dir().join(format!("res-obs-vskip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let rec = Recorder::journal(&path);
        rec.counter("kept", 3);
        rec.finish();
        drop(rec);
        // A future writer appends a line this reader cannot understand.
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(f, "{}", r#"{"v":2,"seq":99,"payload":"from the future"}"#).unwrap();
        writeln!(
            f,
            "{}",
            r#"{"v":1,"seq":9,"t_us":1,"kind":{"Gauge":{"name":"late","value":7}}}"#
        )
        .unwrap();
        drop(f);
        let journal = read_journal_full(&path).expect("tolerant read succeeds");
        assert_eq!(journal.skipped.len(), 1);
        assert_eq!(journal.skipped[0].1, 2, "reports the foreign version");
        assert!(
            journal
                .events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::Gauge { name, .. } if name == "late")),
            "v1 lines after the foreign line still parse"
        );
        assert_eq!(
            read_journal(&path).unwrap().len(),
            journal.events.len(),
            "read_journal delegates to the tolerant reader"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_gauges_writes_a_time_series() {
        let rec = Recorder::memory();
        let serve = rec.scoped("serve");
        serve.gauge("queue.depth", 1);
        serve.flush_gauges();
        serve.gauge("queue.depth", 4);
        serve.flush_gauges();
        rec.gauge("other", 9);
        serve.flush_gauges();
        let depths: Vec<u64> = rec
            .snapshot()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Gauge { name, value } if name == "serve.queue.depth" => Some(*value),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![1, 4, 4], "one sample per flush, in order");
        assert!(
            !rec.snapshot()
                .iter()
                .any(|e| matches!(&e.kind, EventKind::Gauge { name, .. } if name == "other")),
            "a scoped flush only covers gauges under its prefix"
        );
    }

    #[test]
    fn unwritable_journal_degrades_to_disabled() {
        let rec = Recorder::journal("/dev/null/not-a-dir/journal.jsonl");
        assert!(!rec.enabled(), "bad path must degrade, not panic");
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let rec = Recorder::memory();
        let parent = rec.span("speculate");
        let parent_id = parent.id();
        std::thread::scope(|scope| {
            for w in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let _span = rec.span_under(&format!("worker{w}"), parent_id);
                    rec.scoped("solver").counter("queries", 1);
                });
            }
        });
        drop(parent);
        rec.finish();
        let events = rec.snapshot();
        let workers = events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Span { parent, .. } if *parent == parent_id))
            .count();
        assert_eq!(workers, 4);
        assert_eq!(
            crate::render::counter_totals(&events)["solver.queries"],
            4,
            "clones share one counter map"
        );
    }
}
