//! The daemon's wire protocol: typed requests/responses over the
//! store's record framing.
//!
//! One message is one line: `<tag> <len> <fnv64-hex> <payload>\n`,
//! exactly the checksummed record convention `res-store` persists with
//! ([`res_store::encode_record`]/[`res_store::decode_record`]), under
//! two tags the store format reserves as unknown: `Q` for requests and
//! `R` for responses. Reusing the framing buys the protocol the store's
//! torn/corruption detection for free — a truncated or bit-flipped
//! message fails its length or checksum and is surfaced as an I/O
//! error instead of being half-parsed.
//!
//! Payloads are mvm-json: a [`WireRequest`] wraps the same
//! [`TriageRequest`] a library caller would construct, so the value a
//! daemon triages is *identical* to the value a direct
//! [`res_triage::triage`] call sees — the byte-identity contract the
//! lifecycle tests and `scripts/ci.sh` check is meaningful by
//! construction.
//!
//! Transport is a loopback TCP socket (`127.0.0.1:port`) or a unix
//! domain socket (`unix:/path`), chosen by address prefix.

use std::io::{self, BufRead, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

use mvm_json::{json_enum, json_struct};
use res_core::HwVerdict;
use res_obs::HistoSnapshot;
use res_store::{decode_record, encode_record, Tag};
use res_triage::{TriageRequest, TriageResponse};

use crate::telemetry::RequestSummary;

/// The framing tag of every request line.
pub const REQUEST_TAG: Tag = Tag::Unknown(b'Q');
/// The framing tag of every response line.
pub const RESPONSE_TAG: Tag = Tag::Unknown(b'R');

/// Everything a client can ask the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest {
    /// Triage one coredump (§3.1 key + suffixes + full accounting).
    Triage(TriageRequest),
    /// The §3.1 batch endpoint: bucket keys for a report batch, in
    /// order. The whole batch occupies one queue slot.
    BucketBatch(Vec<TriageRequest>),
    /// The §3.2 batch endpoint: hardware-filter verdicts (relaxation
    /// sweeps included) for a report batch, in order.
    HwFilterBatch(Vec<TriageRequest>),
    /// The telemetry snapshot: counters plus latency histograms
    /// and the flight recorder, shaped by [`StatsRequest`]. Answered
    /// inline by the connection thread — no solver work, no queue slot
    /// — so it succeeds even when the daemon is rejecting work under
    /// backpressure.
    StatsQuery(StatsRequest),
    /// Stop accepting connections and begin draining.
    Shutdown,
}

json_enum!(WireRequest {
    Triage(TriageRequest),
    BucketBatch(Vec<TriageRequest>),
    HwFilterBatch(Vec<TriageRequest>),
    StatsQuery(StatsRequest),
    Shutdown
});

/// Everything the daemon can answer.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// The triage result for one dump.
    Triage(TriageResponse),
    /// Bucket keys, one per batch item, in request order.
    BucketBatch(Vec<String>),
    /// §3.2 verdicts, one per batch item, in request order.
    HwFilterBatch(Vec<HwVerdict>),
    /// The telemetry snapshot ([`WireRequest::StatsQuery`]).
    StatsReport(StatsResponse),
    /// Admission control refused the request; nothing was queued. The
    /// well-formed backpressure signal — clients retry or shed load.
    Rejected {
        /// Why (`"queue full"`, or which budget dimension exceeded the
        /// daemon's ceiling).
        reason: String,
        /// Jobs queued at rejection time.
        queue_depth: u64,
    },
    /// The daemon acknowledged [`WireRequest::Shutdown`].
    ShuttingDown,
    /// The request could not be served (malformed payload, internal
    /// error); the connection stays usable.
    Error(String),
}

json_enum!(WireResponse {
    Triage(TriageResponse),
    BucketBatch(Vec<String>),
    HwFilterBatch(Vec<HwVerdict>),
    StatsReport(StatsResponse),
    Rejected { reason: String, queue_depth: u64 },
    ShuttingDown,
    Error(String)
});

/// What a [`WireRequest::StatsQuery`] should include. Both flags off
/// still returns the counters and request/connection totals — the
/// cheapest liveness probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsRequest {
    /// Include the latency histogram snapshots (quantiles + buckets).
    pub histograms: bool,
    /// Include the flight recorder's recent-request ring.
    pub recent: bool,
}

json_struct!(StatsRequest { histograms, recent });

impl Default for StatsRequest {
    fn default() -> Self {
        StatsRequest {
            histograms: true,
            recent: true,
        }
    }
}

/// The full telemetry snapshot a daemon serves. Timing fields carry
/// wall-clock-derived values and belong to telemetry only; everything
/// a fixed request sequence determines survives
/// [`normalized`](StatsResponse::normalized), which is what the
/// determinism tests compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsResponse {
    /// The counters.
    pub server: ServerStats,
    /// Microseconds since the daemon booted.
    pub uptime_us: u64,
    /// Requests read off the wire, all endpoints.
    pub requests: u64,
    /// Connections accepted.
    pub connections: u64,
    /// The `serve.slow` journaling threshold, µs (0 when disabled).
    pub slow_threshold_us: u64,
    /// Latency/fan-out histogram snapshots, sorted by name (empty when
    /// not requested).
    pub histograms: Vec<HistoSnapshot>,
    /// The flight recorder ring, oldest first (empty when not
    /// requested).
    pub recent: Vec<RequestSummary>,
}

json_struct!(StatsResponse {
    server,
    uptime_us,
    requests,
    connections,
    slow_threshold_us,
    histograms,
    recent
});

impl StatsResponse {
    /// This snapshot with every wall-clock-derived field zeroed:
    /// uptime, queue depth (scheduling-dependent), histogram timing
    /// fields and bucket shapes, and per-request durations. What
    /// remains — request counts, ids, endpoints, outcomes, histogram
    /// names and observation counts — is deterministic for a fixed
    /// request sequence, regardless of worker count or machine speed.
    pub fn normalized(&self) -> StatsResponse {
        let mut server = self.server;
        server.queue_depth = 0;
        StatsResponse {
            server,
            uptime_us: 0,
            requests: self.requests,
            connections: self.connections,
            slow_threshold_us: self.slow_threshold_us,
            histograms: self.histograms.iter().map(|h| h.normalized()).collect(),
            recent: self.recent.iter().map(|r| r.normalized()).collect(),
        }
    }
}

/// The daemon's counters, as served in [`StatsResponse::server`] and
/// by [`ServerHandle::stats`](crate::ServerHandle::stats). Mirrors the
/// `serve.*` gauges/counters in the trace journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Jobs waiting in the ingest queue right now.
    pub queue_depth: u64,
    /// The queue's capacity (admission rejects beyond it).
    pub queue_cap: u64,
    /// Worker threads serving the queue.
    pub workers: u64,
    /// Programs currently warm in the hot store.
    pub hot_programs: u64,
    /// Checkouts served by an already-warm store.
    pub hot_hits: u64,
    /// Checkouts that had to open (or create) a store.
    pub hot_misses: u64,
    /// Warm stores evicted (and committed) to honor the capacity.
    pub hot_evictions: u64,
    /// Jobs accepted into the queue.
    pub admitted: u64,
    /// Jobs refused because the queue was full.
    pub rejected_queue: u64,
    /// Jobs refused because their budget exceeded the daemon's ceiling.
    pub rejected_budget: u64,
    /// Jobs fully processed and answered.
    pub completed: u64,
}

json_struct!(ServerStats {
    queue_depth,
    queue_cap,
    workers,
    hot_programs,
    hot_hits,
    hot_misses,
    hot_evictions,
    admitted,
    rejected_queue,
    rejected_budget,
    completed
});

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one framed message and flushes it.
pub fn write_frame(w: &mut impl Write, tag: Tag, payload: &str) -> io::Result<()> {
    let mut line = Vec::with_capacity(payload.len() + 32);
    encode_record(tag, payload, &mut line);
    w.write_all(&line)?;
    w.flush()
}

/// The largest frame [`read_frame`] accepts, newline included. Far
/// above any message the daemon's clients send (a batch of 50 dumps is
/// under 1 MiB); it exists so a peer that never sends a newline cannot
/// grow a connection thread's buffer without bound.
const MAX_FRAME_BYTES: u64 = 64 << 20;

/// Reads one framed message, checking the expected `tag`. `Ok(None)`
/// is a clean EOF (peer closed between messages); a torn or corrupt
/// line, or one longer than 64 MiB, is an [`io::ErrorKind::InvalidData`]
/// error.
pub fn read_frame(r: &mut impl BufRead, tag: Tag) -> io::Result<Option<String>> {
    let mut line = String::new();
    if r.by_ref().take(MAX_FRAME_BYTES).read_line(&mut line)? == 0 {
        return Ok(None);
    }
    if line.len() as u64 == MAX_FRAME_BYTES && !line.ends_with('\n') {
        return Err(bad_data(format!("frame exceeds {MAX_FRAME_BYTES} bytes")));
    }
    let trimmed = line.trim_end_matches('\n');
    match decode_record(trimmed) {
        Some((got, payload)) if got == tag => Ok(Some(payload.to_string())),
        Some((got, _)) => Err(bad_data(format!("unexpected frame tag {got:?}"))),
        None => Err(bad_data("corrupt frame (framing or checksum)")),
    }
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, req: &WireRequest) -> io::Result<()> {
    write_frame(w, REQUEST_TAG, &mvm_json::to_string(req))
}

/// Reads one request frame (`Ok(None)` on clean EOF).
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<WireRequest>> {
    match read_frame(r, REQUEST_TAG)? {
        None => Ok(None),
        Some(payload) => mvm_json::from_str(&payload)
            .map(Some)
            .map_err(|e| bad_data(format!("request payload: {}", e.message))),
    }
}

/// Writes one response frame.
pub fn write_response(w: &mut impl Write, resp: &WireResponse) -> io::Result<()> {
    write_frame(w, RESPONSE_TAG, &mvm_json::to_string(resp))
}

/// Reads one response frame (`Ok(None)` on clean EOF).
pub fn read_response(r: &mut impl BufRead) -> io::Result<Option<WireResponse>> {
    match read_frame(r, RESPONSE_TAG)? {
        None => Ok(None),
        Some(payload) => mvm_json::from_str(&payload)
            .map(Some)
            .map_err(|e| bad_data(format!("response payload: {}", e.message))),
    }
}

/// A bound listening socket: loopback TCP, or unix-domain when the
/// address starts with `unix:`.
pub enum Listener {
    /// A TCP listener (addresses like `127.0.0.1:0`).
    Tcp(TcpListener),
    /// A unix-domain listener (`unix:/path/to.sock`); the path plus the
    /// listener, so the socket file can be reported back.
    #[cfg(unix)]
    Unix(PathBuf, UnixListener),
}

impl Listener {
    /// Binds `addr`. A stale unix socket file at the path is removed
    /// first (the daemon owns its socket path).
    pub fn bind(addr: &str) -> io::Result<Listener> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                let path = PathBuf::from(path);
                let _ = std::fs::remove_file(&path);
                return Ok(Listener::Unix(path.clone(), UnixListener::bind(path)?));
            }
            #[cfg(not(unix))]
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            ));
        }
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// The bound address, in the same syntax [`Listener::bind`] and
    /// [`Conn::connect`] accept (so `bind("127.0.0.1:0")` reports the
    /// actual port).
    pub fn local_addr(&self) -> io::Result<String> {
        match self {
            Listener::Tcp(l) => Ok(l.local_addr()?.to_string()),
            #[cfg(unix)]
            Listener::Unix(path, _) => Ok(format!("unix:{}", path.display())),
        }
    }

    /// Accepts one connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(_, l) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Unix(s))
            }
        }
    }
}

#[cfg(unix)]
impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(path, _) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connected stream, TCP or unix-domain.
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `addr` (same syntax as [`Listener::bind`]).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            return Ok(Conn::Unix(UnixStream::connect(path)?));
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not available on this platform",
                ));
            }
        }
        Ok(Conn::Tcp(TcpStream::connect(addr)?))
    }

    /// An independently-owned handle to the same stream (for split
    /// read/write halves).
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
            #[cfg(unix)]
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip_and_detect_corruption() {
        let req = WireRequest::Shutdown;
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let mut r = BufReader::new(&buf[..]);
        assert_eq!(read_request(&mut r).unwrap(), Some(req));
        assert_eq!(read_request(&mut r).unwrap(), None, "clean EOF");

        // Flip one payload byte: the checksum must catch it.
        let mut torn = buf.clone();
        let last = torn.len() - 2;
        torn[last] ^= 0x01;
        let err = read_request(&mut BufReader::new(&torn[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A response frame where a request is expected is rejected.
        let mut resp_bytes = Vec::new();
        write_response(&mut resp_bytes, &WireResponse::ShuttingDown).unwrap();
        let err = read_request(&mut BufReader::new(&resp_bytes[..])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_without_newline_is_rejected_at_the_cap() {
        let mut r = BufReader::new(io::repeat(b'Q').take(MAX_FRAME_BYTES + 1));
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The reader stopped at the cap: the byte past it is unread.
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn stats_query_and_report_round_trip() {
        let req = WireRequest::StatsQuery(StatsRequest::default());
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        assert_eq!(
            read_request(&mut BufReader::new(&buf[..])).unwrap(),
            Some(req)
        );

        let resp = WireResponse::StatsReport(StatsResponse {
            server: ServerStats {
                completed: 3,
                ..ServerStats::default()
            },
            uptime_us: 99,
            requests: 7,
            connections: 2,
            slow_threshold_us: 50_000,
            histograms: vec![HistoSnapshot {
                name: "serve.rtt.triage_us".into(),
                count: 3,
                sum: 30,
                min: 5,
                max: 20,
                p50: 7,
                p95: 20,
                p99: 20,
                buckets: vec![0, 0, 0, 1, 1, 1],
            }],
            recent: vec![RequestSummary {
                req_id: "c1.0".into(),
                endpoint: "triage".into(),
                outcome: "ok".into(),
                total_us: 10,
                queue_wait_us: 1,
                synth_us: 8,
                store_us: 1,
            }],
        });
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, Some(resp));
    }

    #[test]
    fn normalized_zeroes_only_timing_fields() {
        let resp = StatsResponse {
            server: ServerStats {
                queue_depth: 3,
                admitted: 5,
                ..ServerStats::default()
            },
            uptime_us: 12345,
            requests: 6,
            connections: 2,
            slow_threshold_us: 1000,
            histograms: vec![HistoSnapshot {
                name: "h".into(),
                count: 4,
                sum: 99,
                min: 1,
                max: 50,
                p50: 3,
                p95: 50,
                p99: 50,
                buckets: vec![1, 1, 2],
            }],
            recent: vec![RequestSummary {
                req_id: "c1.0".into(),
                endpoint: "triage".into(),
                outcome: "ok".into(),
                total_us: 77,
                queue_wait_us: 7,
                synth_us: 60,
                store_us: 10,
            }],
        };
        let n = resp.normalized();
        assert_eq!(n.server.queue_depth, 0, "scheduling-dependent");
        assert_eq!(n.server.admitted, 5, "deterministic counters survive");
        assert_eq!(n.uptime_us, 0);
        assert_eq!((n.requests, n.connections), (6, 2));
        assert_eq!(n.histograms[0].count, 4);
        assert_eq!(n.histograms[0].sum, 0);
        assert_eq!(n.recent[0].req_id, "c1.0");
        assert_eq!(n.recent[0].total_us, 0);
    }

    #[test]
    fn rejection_carries_reason_and_depth() {
        let resp = WireResponse::Rejected {
            reason: "queue full".into(),
            queue_depth: 8,
        };
        let mut buf = Vec::new();
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(back, Some(resp));
    }
}
