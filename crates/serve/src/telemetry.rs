//! The daemon's live telemetry: latency registry, request ids, flight
//! recorder.
//!
//! The trace journal answers *post-mortem* questions; this module is
//! the *while-it-runs* complement behind the
//! [`StatsQuery`](crate::wire::WireRequest::StatsQuery) endpoint:
//!
//! * a [`res_obs::Registry`] of wait-free bucketed histograms (wire
//!   round-trip latency per endpoint, queue wait, solver time, batch
//!   fan-out) whose snapshots never block workers;
//! * the deterministic request-id scheme — `c<conn>.<seq>`, connection
//!   number from one atomic, request sequence per connection — that
//!   correlates a wire answer with its `serve.req` span tree in the
//!   journal;
//! * a **flight recorder**: a bounded ring of the most recent request
//!   summaries (id, endpoint, outcome, phase timings), so "what just
//!   happened" is answerable without replaying the whole journal.
//!
//! Everything here is passive. Timings live only in telemetry payloads
//! (`StatsResponse`, journal events) — never in a verdict field — and
//! the byte-identity currency of the lifecycle tests excludes all of
//! it.

use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::Instant;

use mvm_json::json_struct;
use res_obs::{Histogram, Registry};

/// One completed (or rejected) request, as kept in the flight-recorder
/// ring and served in [`StatsResponse::recent`](crate::wire::StatsResponse::recent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSummary {
    /// The request id (`c<conn>.<seq>`).
    pub req_id: String,
    /// Wire endpoint (`triage`, `bucket_batch`, `hw_filter_batch`,
    /// `stats`, `shutdown`).
    pub endpoint: String,
    /// `ok`, `rejected_queue`, `rejected_budget`, `shutdown`, or
    /// `error`.
    pub outcome: String,
    /// Wall time from frame read to reply flushed, µs.
    pub total_us: u64,
    /// Time spent queued before a worker picked the job up, µs (0 for
    /// requests answered inline).
    pub queue_wait_us: u64,
    /// Time inside synthesis/solver work, µs.
    pub synth_us: u64,
    /// Time checking out (and possibly committing/evicting) hot-store
    /// state and waiting for the program's store lock, µs.
    pub store_us: u64,
}

json_struct!(RequestSummary {
    req_id,
    endpoint,
    outcome,
    total_us,
    queue_wait_us,
    synth_us,
    store_us
});

impl RequestSummary {
    /// This summary with every timing zeroed — what stays is
    /// deterministic for a fixed request sequence.
    pub fn normalized(&self) -> RequestSummary {
        RequestSummary {
            req_id: self.req_id.clone(),
            endpoint: self.endpoint.clone(),
            outcome: self.outcome.clone(),
            total_us: 0,
            queue_wait_us: 0,
            synth_us: 0,
            store_us: 0,
        }
    }
}

/// Per-request phase timings, carried from the worker back to the
/// connection thread alongside the response (never serialized into the
/// response itself).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Queue wait, µs.
    pub queue_wait_us: u64,
    /// Synthesis/solver time, µs.
    pub synth_us: u64,
    /// Hot-store checkout/commit and store-lock wait time, µs.
    pub store_us: u64,
}

/// The daemon's shared telemetry state. One instance per daemon,
/// reachable from every connection and worker thread.
pub struct Telemetry {
    /// The live histogram registry (always enabled in a daemon — the
    /// stats endpoint is part of the service contract).
    pub registry: Registry,
    /// Round-trip latency per endpoint, µs.
    pub rtt_triage: Histogram,
    /// Round-trip latency of `bucket_batch` requests, µs.
    pub rtt_bucket_batch: Histogram,
    /// Round-trip latency of `hw_filter_batch` requests, µs.
    pub rtt_hw_filter_batch: Histogram,
    /// Round-trip latency of stats reads, µs.
    pub rtt_stats: Histogram,
    /// Queue wait of admitted jobs, µs.
    pub queue_wait: Histogram,
    /// Solver/synthesis time per job, µs.
    pub synth: Histogram,
    /// Worker time per job (store phase plus synthesis), µs.
    pub latency: Histogram,
    /// Items per batch request.
    pub batch_fanout: Histogram,
    /// When the daemon booted (uptime in stats payloads only).
    pub started: Instant,
    /// Connections accepted so far; each connection's number seeds its
    /// request ids.
    pub conn_seq: AtomicU64,
    /// Requests read off the wire (all endpoints, admitted or not).
    pub requests: AtomicU64,
    /// Requests slower than this journal a `serve.slow` mark and are
    /// always worth a look in the flight recorder. `None` disables.
    pub slow_us: Option<u64>,
    flight: Mutex<VecDeque<RequestSummary>>,
    recent_cap: usize,
}

impl Telemetry {
    /// Fresh telemetry for one daemon.
    pub fn new(slow_us: Option<u64>, recent_cap: usize) -> Telemetry {
        let registry = Registry::new();
        Telemetry {
            rtt_triage: registry.histogram("serve.rtt.triage_us"),
            rtt_bucket_batch: registry.histogram("serve.rtt.bucket_batch_us"),
            rtt_hw_filter_batch: registry.histogram("serve.rtt.hw_filter_batch_us"),
            rtt_stats: registry.histogram("serve.rtt.stats_us"),
            queue_wait: registry.histogram("serve.queue.wait_us"),
            synth: registry.histogram("serve.synth.us"),
            latency: registry.histogram("serve.latency_us"),
            batch_fanout: registry.histogram("serve.batch.fanout"),
            registry,
            started: Instant::now(),
            conn_seq: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            slow_us,
            flight: Mutex::new(VecDeque::new()),
            recent_cap,
        }
    }

    /// The round-trip histogram for a wire endpoint name.
    pub fn rtt_for(&self, endpoint: &str) -> &Histogram {
        match endpoint {
            "triage" => &self.rtt_triage,
            "bucket_batch" => &self.rtt_bucket_batch,
            "hw_filter_batch" => &self.rtt_hw_filter_batch,
            _ => &self.rtt_stats,
        }
    }

    /// Pushes one summary into the flight ring, evicting the oldest
    /// past capacity.
    pub fn push_recent(&self, summary: RequestSummary) {
        if self.recent_cap == 0 {
            return;
        }
        let mut ring = self.flight.lock().expect("flight lock");
        if ring.len() == self.recent_cap {
            ring.pop_front();
        }
        ring.push_back(summary);
    }

    /// The ring's contents, oldest first.
    pub fn recent(&self) -> Vec<RequestSummary> {
        self.flight
            .lock()
            .expect("flight lock")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_summary_round_trips() {
        let s = RequestSummary {
            req_id: "c3.7".into(),
            endpoint: "triage".into(),
            outcome: "ok".into(),
            total_us: 1234,
            queue_wait_us: 56,
            synth_us: 900,
            store_us: 78,
        };
        let back: RequestSummary = mvm_json::from_str(&mvm_json::to_string(&s)).unwrap();
        assert_eq!(back, s);
        let norm = s.normalized();
        assert_eq!(norm.req_id, "c3.7");
        assert_eq!(
            (
                norm.total_us,
                norm.queue_wait_us,
                norm.synth_us,
                norm.store_us
            ),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn flight_ring_is_bounded_fifo() {
        let t = Telemetry::new(None, 2);
        for i in 0..5 {
            t.push_recent(RequestSummary {
                req_id: format!("c1.{i}"),
                endpoint: "triage".into(),
                outcome: "ok".into(),
                total_us: 0,
                queue_wait_us: 0,
                synth_us: 0,
                store_us: 0,
            });
        }
        let recent = t.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].req_id, "c1.3");
        assert_eq!(recent[1].req_id, "c1.4");
        let empty = Telemetry::new(None, 0);
        empty.push_recent(recent[0].clone());
        assert!(empty.recent().is_empty(), "cap 0 disables the ring");
    }

    #[test]
    fn rtt_routing_covers_every_endpoint() {
        let t = Telemetry::new(None, 4);
        t.rtt_for("triage").record(1);
        t.rtt_for("bucket_batch").record(2);
        t.rtt_for("hw_filter_batch").record(3);
        t.rtt_for("stats").record(4);
        let names: Vec<(String, u64)> = t
            .registry
            .snapshot()
            .into_iter()
            .map(|s| (s.name, s.count))
            .collect();
        for (name, count) in &names {
            if name.starts_with("serve.rtt.") {
                assert_eq!(*count, 1, "{name}");
            }
        }
        assert!(names.iter().any(|(n, _)| n == "serve.rtt.stats_us"));
    }
}
