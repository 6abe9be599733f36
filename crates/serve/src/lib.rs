//! # res-serve — the long-running triage daemon
//!
//! The paper's §3 deployment story is a *service*: "RES can process
//! incoming bug reports and triage them" — a stream, not a one-shot
//! CLI run. This crate is that service, built entirely from the
//! workspace's existing layers:
//!
//! * **One typed API.** A daemon request is a
//!   [`res_triage::TriageRequest`] — the same mvm-json-serializable
//!   value a direct library caller builds — wrapped in a
//!   [`WireRequest`]; answers come back as
//!   [`res_triage::TriageResponse`]s. Byte-identity between served and
//!   direct results is therefore checkable value-for-value (and is, by
//!   the lifecycle tests and `scripts/ci.sh`).
//! * **Store-framed wire protocol** ([`wire`]). Messages ride the
//!   `res-store` record convention — length-prefixed, FNV-64
//!   checksummed lines — under reserved tags `Q`/`R`, over loopback
//!   TCP or a unix socket. Torn and corrupt frames are detected the
//!   same way a torn store tail is.
//! * **Hot store** ([`hotstore`]). Absorbed per-program
//!   [`res_store::SolverStore`]s stay open across requests in an LRU
//!   set; commits happen on eviction and shutdown, and write only
//!   when requests taught the store new entries.
//! * **Bounded ingest + admission control** ([`server`]). A full queue
//!   or an over-ceiling budget is answered with
//!   [`WireResponse::Rejected`] immediately — never clamped, since a
//!   clamped budget would silently change results. A request that
//!   names a file (`store` or `trace`) is answered with
//!   [`WireResponse::Error`] before admission. A job that panics is
//!   answered with [`WireResponse::Error`]; its worker and the
//!   program's store stay in service.
//! * **Observability.** Every [`ServerStats`] counter (queue depth,
//!   hot-set size, hot-store hits/misses/evictions, admissions,
//!   rejections, completions) lands in the daemon's `res-obs` journal
//!   as a `serve.*` gauge after each request.

//! * **Live telemetry** ([`telemetry`]). Every request gets a
//!   deterministic id (`c<conn>.<seq>`) echoed in its answer and a
//!   `serve.req` span tree in the journal; wait-free latency
//!   histograms and a flight recorder of recent requests are served by
//!   the one stats endpoint, [`WireRequest::StatsQuery`] — answered
//!   inline, so it works even while the queue is rejecting work.

pub mod client;
pub mod hotstore;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use client::TriageClient;
pub use hotstore::HotStore;
pub use server::{serve, ServeConfig, ServerHandle};
pub use telemetry::{Phases, RequestSummary, Telemetry};
pub use wire::{
    ServerStats, StatsRequest, StatsResponse, WireRequest, WireResponse, REQUEST_TAG, RESPONSE_TAG,
};
