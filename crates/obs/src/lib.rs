//! # res-obs — hermetic structured tracing and metrics
//!
//! The RES engine runs a budgeted backward search whose interesting
//! failures are *temporal*: a budget cut fires, a phase dominates wall
//! time, a store defect silently degrades a warm run to cold. The stat
//! structs ([`KernelStats`](../res_core/kernel/struct.KernelStats.html)
//! and friends) say *how much* happened; this crate records *when*, as
//! a replayable execution timeline.
//!
//! Three primitives, one handle:
//!
//! * **Spans** — hierarchical, monotonically timed intervals
//!   ([`Recorder::span`], [`Span::child`]). Each span emits a
//!   [`EventKind::Span`] on open and an [`EventKind::End`] (with its
//!   duration) on drop.
//! * **Metrics** — named [`counters`](Recorder::counter) and
//!   [`gauges`](Recorder::gauge), accumulated in memory and flushed as
//!   cumulative-total events by [`Recorder::finish`] (append-only; the
//!   last total for a name wins, like the store's stats records).
//!   Distributions are [`Registry`] histograms, journaled by
//!   [`Registry::flush_to`].
//! * **Marks** — discrete occurrences with string fields
//!   ([`Recorder::event_with`]): a budget cut, a store defect, a store
//!   absorb with its entry counts.
//!
//! Everything lands in an append-only **JSONL journal** — one
//! [`Event`] per line, serialized with `mvm-json` (no registry
//! dependencies, per the workspace's hermetic-build policy) — or in an
//! in-memory sink for tests. [`read_journal`] parses a journal back;
//! [`render::render`] pretty-prints the span tree, top counters, and
//! marks so a cut run can be explained from its journal alone.
//!
//! ## The passivity invariant
//!
//! The recorder is **strictly passive**: nothing in the search ever
//! reads recorder state, and wall-clock timestamps exist *only* inside
//! journal events — never in any value that feeds hypothesis
//! generation, solver queries, or budget accounting. Enabling tracing
//! therefore cannot perturb the search; `tests/obs_determinism.rs` and
//! the `scripts/ci.sh` traced gate prove the golden suffix fixture is
//! byte-identical with tracing on and off.
//!
//! A **disabled** recorder ([`Recorder::disabled`], the default) is a
//! handle around `None`: every call returns immediately and allocates
//! nothing, so always-on instrumentation costs near-zero on the hot
//! path (also asserted by `tests/obs_determinism.rs`, with an
//! allocation counter rather than timing).
//!
//! ```
//! use res_obs::{Recorder, render};
//!
//! let rec = Recorder::memory();
//! {
//!     let run = rec.span("synthesize");
//!     let _search = run.child("search");
//!     rec.counter("kernel.nodes_expanded", 3);
//!     rec.event_with("kernel.cut", || vec![("reason".into(), "Nodes".into())]);
//! }
//! rec.finish();
//! let events = rec.snapshot();
//! assert!(render::render(&events).contains("synthesize"));
//! assert_eq!(render::counter_totals(&events)["kernel.nodes_expanded"], 3);
//! ```

//!
//! ## Live telemetry
//!
//! Long-lived daemons need the complementary *live* view: latency
//! distributions a stats endpoint can snapshot mid-flight. The
//! [`registry`] module provides a [`Registry`] of wait-free bucketed
//! [`Histogram`]s with integer p50/p95/p99 extraction, and [`query`]
//! turns a parsed journal back into per-request span trees, glob-
//! filtered counters, and percentile summaries (the library behind
//! `res-cli journal`).

mod event;
pub mod query;
mod recorder;
pub mod registry;
pub mod render;

pub use event::{Event, EventKind};
pub use recorder::{read_journal, read_journal_full, Journal, Recorder, Span, JOURNAL_VERSION};
pub use registry::{HistoSnapshot, Histogram, Registry};
