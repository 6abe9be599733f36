//! The typed client: one connection, framed request/response pairs.

use std::io::{self, BufReader};

use res_core::HwVerdict;
use res_triage::{TriageRequest, TriageResponse};

use crate::wire::{
    read_response, write_request, Conn, ServerStats, StatsRequest, StatsResponse, WireRequest,
    WireResponse,
};

fn unexpected(resp: WireResponse) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response: {resp:?}"),
    )
}

/// A connected triage client. Requests are answered in order on one
/// connection; open several clients for concurrent submission.
pub struct TriageClient {
    reader: BufReader<Conn>,
    writer: Conn,
}

impl TriageClient {
    /// Connects to a daemon at `addr` (`127.0.0.1:port` or
    /// `unix:/path`).
    pub fn connect(addr: &str) -> io::Result<TriageClient> {
        let conn = Conn::connect(addr)?;
        let reader = BufReader::new(conn.try_clone()?);
        Ok(TriageClient {
            reader,
            writer: conn,
        })
    }

    /// Sends one request without waiting for the answer (pipelining;
    /// pair with [`recv`](TriageClient::recv)).
    pub fn send(&mut self, req: &WireRequest) -> io::Result<()> {
        write_request(&mut self.writer, req)
    }

    /// Receives the next response; EOF is an error (a client that sent
    /// a request is owed an answer).
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        read_response(&mut self.reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// One request, one response.
    pub fn call(&mut self, req: &WireRequest) -> io::Result<WireResponse> {
        self.send(req)?;
        self.recv()
    }

    /// Triage one dump. A [`WireResponse::Rejected`] backpressure
    /// answer is returned as `Err(resp)` so callers must handle it.
    pub fn triage(
        &mut self,
        req: TriageRequest,
    ) -> io::Result<Result<TriageResponse, WireResponse>> {
        match self.call(&WireRequest::Triage(req))? {
            WireResponse::Triage(resp) => Ok(Ok(resp)),
            other @ (WireResponse::Rejected { .. } | WireResponse::ShuttingDown) => Ok(Err(other)),
            other => Err(unexpected(other)),
        }
    }

    /// §3.1 batch: bucket keys in request order.
    pub fn bucket_batch(
        &mut self,
        reqs: Vec<TriageRequest>,
    ) -> io::Result<Result<Vec<String>, WireResponse>> {
        match self.call(&WireRequest::BucketBatch(reqs))? {
            WireResponse::BucketBatch(keys) => Ok(Ok(keys)),
            other @ (WireResponse::Rejected { .. } | WireResponse::ShuttingDown) => Ok(Err(other)),
            other => Err(unexpected(other)),
        }
    }

    /// §3.2 batch: hardware-filter verdicts in request order.
    pub fn hw_filter_batch(
        &mut self,
        reqs: Vec<TriageRequest>,
    ) -> io::Result<Result<Vec<HwVerdict>, WireResponse>> {
        match self.call(&WireRequest::HwFilterBatch(reqs))? {
            WireResponse::HwFilterBatch(vs) => Ok(Ok(vs)),
            other @ (WireResponse::Rejected { .. } | WireResponse::ShuttingDown) => Ok(Err(other)),
            other => Err(unexpected(other)),
        }
    }

    /// The daemon's counters: a [`stats_query`](TriageClient::stats_query)
    /// without histograms or the flight recorder.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        let q = StatsRequest {
            histograms: false,
            recent: false,
        };
        Ok(self.stats_query(&q)?.server)
    }

    /// The full telemetry snapshot: counters, latency histograms, and
    /// the flight recorder, shaped by `q`. Answered inline by the
    /// daemon (no queue slot), so it works even under backpressure.
    pub fn stats_query(&mut self, q: &StatsRequest) -> io::Result<StatsResponse> {
        match self.call(&WireRequest::StatsQuery(*q))? {
            WireResponse::StatsReport(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to stop accepting work.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.call(&WireRequest::Shutdown)? {
            WireResponse::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}
