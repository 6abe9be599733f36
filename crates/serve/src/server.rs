//! The triage daemon: bounded ingest queue, worker pool, hot store,
//! admission control.
//!
//! ```text
//!            accept thread            worker pool (N threads)
//! client ──► conn thread ──try_send──► bounded queue ──► triage_in_store
//!               │   ▲                                        │
//!               │   └──────────── reply channel ◄────────────┘
//!               └── Rejected{...} when the queue is full or the
//!                   request's budget exceeds the daemon's ceiling
//! ```
//!
//! Each connection gets a thread that reads framed requests and writes
//! framed responses in order. Work requests pass admission control and
//! enter a bounded [`std::sync::mpsc::sync_channel`]; a full queue is
//! answered *immediately* with [`WireResponse::Rejected`] — the
//! backpressure contract — rather than blocking the client. Workers
//! drain the queue, route every store access through the shared
//! [`HotStore`], and answer through a per-job reply channel.
//!
//! Admission control never *clamps* a budget — a clamped budget would
//! change which suffixes a request finds, silently breaking the
//! byte-identity contract. A request either runs with exactly the
//! budget it asked for or is rejected with the reason. Batch requests
//! occupy one queue slot and their items run one after another, so
//! each item's ceiling is the daemon's per-request ceiling divided
//! across the batch.

use std::io::{self, BufReader, Write as _};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mvm_isa::Program;
use res_core::{Budget, ResConfig};
use res_obs::Recorder;
use res_store::SolverStore;
use res_triage::{hw_verdict_for, hw_verdict_for_in_store, triage, triage_in_store, TriageRequest};

use crate::hotstore::{lock_store, HotStore};
use crate::telemetry::{Phases, RequestSummary, Telemetry};
use crate::wire::{
    read_request, write_response, Conn, Listener, ServerStats, StatsRequest, StatsResponse,
    WireRequest, WireResponse,
};

/// Everything the daemon is configured with.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address: `127.0.0.1:0` (loopback TCP, port 0 picks a free
    /// one) or `unix:/path/to.sock`.
    pub addr: String,
    /// Worker threads draining the queue. `0` is allowed (nothing
    /// drains — the backpressure tests use it to fill the queue
    /// deterministically).
    pub workers: usize,
    /// Ingest queue capacity; admission rejects beyond it.
    pub queue_cap: usize,
    /// Programs kept warm in the hot store.
    pub hot_cap: usize,
    /// Hot-store directory (`None` serves store-less: every request
    /// pays a cold search).
    pub store_dir: Option<PathBuf>,
    /// Per-request budget ceiling. `None` admits everything; `Some`
    /// rejects any request whose effective budget exceeds a dimension.
    /// A batch's items run one after another in one queue slot, so each
    /// item must fit an equal share of the ceiling.
    pub ceiling: Option<Budget>,
    /// Base engine config requests inherit (and override per call).
    /// `cache_path`/`trace` are cleared at startup — the hot store owns
    /// store routing, and per-engine journals would truncate each
    /// other.
    pub config: ResConfig,
    /// The daemon's JSONL trace journal (`serve.*` and `store.*`
    /// metrics land here).
    pub trace: Option<PathBuf>,
    /// Requests slower than this (µs, wall time from frame read to
    /// reply flushed) journal a `serve.slow` mark naming their span
    /// tree. `None` disables slow-request marking.
    pub slow_us: Option<u64>,
    /// Flight-recorder capacity: how many recent request summaries the
    /// stats endpoint can serve. `0` disables the ring.
    pub recent_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            hot_cap: 8,
            store_dir: None,
            ceiling: None,
            config: ResConfig::default(),
            trace: None,
            slow_us: None,
            recent_cap: 64,
        }
    }
}

#[derive(Default)]
struct Counters {
    depth: AtomicU64,
    admitted: AtomicU64,
    rejected_queue: AtomicU64,
    rejected_budget: AtomicU64,
    completed: AtomicU64,
}

struct Shared {
    addr: String,
    config: ResConfig,
    queue_cap: usize,
    workers: usize,
    hot: Option<HotStore>,
    ceiling: Option<Budget>,
    rec: Recorder,
    serve_rec: Recorder,
    counters: Counters,
    telem: Telemetry,
    shutdown: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        let (hot_hits, hot_misses, hot_evictions) =
            self.hot.as_ref().map(|h| h.counters()).unwrap_or((0, 0, 0));
        ServerStats {
            queue_depth: self.counters.depth.load(Ordering::SeqCst),
            queue_cap: self.queue_cap as u64,
            workers: self.workers as u64,
            hot_programs: self.hot.as_ref().map(|h| h.len() as u64).unwrap_or(0),
            hot_hits,
            hot_misses,
            hot_evictions,
            admitted: self.counters.admitted.load(Ordering::SeqCst),
            rejected_queue: self.counters.rejected_queue.load(Ordering::SeqCst),
            rejected_budget: self.counters.rejected_budget.load(Ordering::SeqCst),
            completed: self.counters.completed.load(Ordering::SeqCst),
        }
    }

    /// Flushes the counters as `serve.*` gauges (queue depth, hot-set
    /// size, admissions, rejections) and journals a sample of each —
    /// called per request completion, so the journal carries a **time
    /// series** of queue depth and hot-set size, not just a final
    /// total (the shutdown [`Recorder::finish`] still writes the last
    /// word).
    fn publish_gauges(&self) {
        let s = self.stats();
        self.serve_rec.gauge("queue.depth", s.queue_depth);
        self.serve_rec.gauge("hot.programs", s.hot_programs);
        self.serve_rec.gauge("admitted", s.admitted);
        self.serve_rec.gauge("rejected.queue", s.rejected_queue);
        self.serve_rec.gauge("rejected.budget", s.rejected_budget);
        self.serve_rec.gauge("completed", s.completed);
        self.serve_rec.flush_gauges();
    }

    /// The full telemetry snapshot behind [`WireRequest::StatsQuery`].
    /// Reads only atomics, the registry's bucket counters, and the
    /// flight ring — no solver work, never blocks a worker.
    fn stats_response(&self, q: &StatsRequest) -> StatsResponse {
        StatsResponse {
            server: self.stats(),
            uptime_us: self.telem.started.elapsed().as_micros() as u64,
            requests: self.telem.requests.load(Ordering::SeqCst),
            connections: self.telem.conn_seq.load(Ordering::SeqCst),
            slow_threshold_us: self.telem.slow_us.unwrap_or(0),
            histograms: if q.histograms {
                self.telem.registry.snapshot()
            } else {
                Vec::new()
            },
            recent: if q.recent {
                self.telem.recent()
            } else {
                Vec::new()
            },
        }
    }
}

/// One queued job: the work, the channel its answer (plus worker-side
/// phase timings) goes back on, and the request's telemetry context —
/// the root span id so worker spans parent under the connection
/// thread's `serve.req`, and the enqueue instant for queue-wait
/// accounting.
struct Job {
    req: WireRequest,
    reply: mpsc::Sender<(WireResponse, Phases)>,
    parent: Option<u64>,
    enqueued: Instant,
}

/// A running daemon. Dropping the handle stops it ([`ServerHandle::stop`]).
pub struct ServerHandle {
    addr: String,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Dropped by [`stop`](ServerHandle::stop) so that with zero
    /// workers the queued jobs (and their reply senders) are released
    /// and blocked connections fail over to an error response.
    queue_rx: Option<Arc<Mutex<Receiver<Job>>>>,
    stopped: bool,
}

impl ServerHandle {
    /// The bound address, connectable by [`crate::TriageClient`].
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A stats snapshot without going over the wire.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Blocks until a client asks the daemon to shut down
    /// ([`WireRequest::Shutdown`]), then tears it down — the
    /// foreground `res-cli serve` path.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.stop();
    }

    /// Stops the daemon: refuses new connections, releases the queue,
    /// joins every thread, commits the hot store, and flushes the
    /// trace journal. Idempotent. Connections still open block the
    /// join until their client disconnects.
    pub fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // With zero workers this is the only receiver, so dropping it
        // here cancels queued jobs and releases conn threads blocked on
        // their reply channel — they must exit before the accept join
        // below can finish. With workers the receiver stays alive
        // through their Arc clones and they drain the queue as usual.
        self.queue_rx = None;
        // Unblock the accept loop; it checks the flag per iteration.
        let _ = Conn::connect(&self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(hot) = &self.shared.hot {
            let committed = hot.flush_all();
            self.shared.serve_rec.event_with("flush", || {
                vec![("committed".into(), committed.to_string())]
            });
        }
        self.shared.publish_gauges();
        // Journal the live latency distributions so `res-cli journal
        // --quantiles` works post-mortem from the file alone.
        self.shared.telem.registry.flush_to(&self.shared.rec);
        self.shared.rec.finish();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Boots the daemon and returns its handle (with the actual bound
/// address, for `addr`s like `127.0.0.1:0`).
pub fn serve(cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = Listener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let rec = cfg
        .trace
        .as_ref()
        .map(Recorder::journal)
        .unwrap_or_default();
    let serve_rec = rec.scoped("serve");
    let hot = cfg
        .store_dir
        .as_ref()
        .map(|dir| HotStore::new(dir, cfg.hot_cap, &rec));
    let mut config = cfg.config.clone();
    config.cache_path = None;
    config.trace = None;
    let shared = Arc::new(Shared {
        addr: addr.clone(),
        config,
        queue_cap: cfg.queue_cap,
        workers: cfg.workers,
        hot,
        ceiling: cfg.ceiling,
        rec,
        serve_rec,
        counters: Counters::default(),
        telem: Telemetry::new(cfg.slow_us, cfg.recent_cap),
        shutdown: AtomicBool::new(false),
    });
    let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..cfg.workers)
        .map(|w| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("res-serve-w{w}"))
                .spawn(move || worker_loop(&shared, &rx))
                .expect("spawn worker")
        })
        .collect();
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("res-serve-accept".into())
            .spawn(move || accept_loop(listener, shared, tx))
            .expect("spawn accept loop")
    };
    shared
        .serve_rec
        .event_with("start", || vec![("addr".into(), addr.clone())]);
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
        queue_rx: Some(rx),
        stopped: false,
    })
}

fn accept_loop(listener: Listener, shared: Arc<Shared>, tx: SyncSender<Job>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => break,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let shared = Arc::clone(&shared);
        let tx = tx.clone();
        let handle = std::thread::Builder::new()
            .name("res-serve-conn".into())
            .spawn(move || {
                let _ = handle_conn(conn, &shared, &tx);
            })
            .expect("spawn conn thread");
        conns.push(handle);
    }
    drop(tx);
    for h in conns {
        let _ = h.join();
    }
}

/// The wire endpoint name of a request (the flight recorder's and the
/// RTT histograms' label vocabulary).
fn endpoint_name(req: &WireRequest) -> &'static str {
    match req {
        WireRequest::Triage(_) => "triage",
        WireRequest::BucketBatch(_) => "bucket_batch",
        WireRequest::HwFilterBatch(_) => "hw_filter_batch",
        WireRequest::StatsQuery(_) => "stats",
        WireRequest::Shutdown => "shutdown",
    }
}

/// The flight-recorder outcome label of a response.
fn outcome_name(resp: &WireResponse) -> &'static str {
    match resp {
        WireResponse::Rejected { reason, .. } if reason == "queue full" => "rejected_queue",
        WireResponse::Rejected { .. } => "rejected_budget",
        WireResponse::ShuttingDown => "shutdown",
        WireResponse::Error(_) => "error",
        _ => "ok",
    }
}

fn handle_conn(conn: Conn, shared: &Shared, tx: &SyncSender<Job>) -> io::Result<()> {
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    // Connection numbers start at 1; request sequence numbers at 0.
    // One client issuing requests in order therefore sees the exact
    // same ids at any worker count — the determinism the request-id
    // tests pin.
    let conn_id = shared.telem.conn_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let mut seq: u64 = 0;
    while let Some(req) = read_request(&mut reader)? {
        let req_id = format!("c{conn_id}.{seq}");
        seq += 1;
        shared.telem.requests.fetch_add(1, Ordering::SeqCst);
        let endpoint = endpoint_name(&req);
        let started = Instant::now();
        // Root the request's span tree and journal the correlation
        // mark (`req` ↔ `span` ↔ `endpoint`) that `res-obs::query`
        // reconstructs requests from.
        let span = shared.serve_rec.span("req");
        shared.serve_rec.event_with("req.meta", || {
            vec![
                ("req".into(), req_id.clone()),
                (
                    "span".into(),
                    span.id().map(|id| id.to_string()).unwrap_or_default(),
                ),
                ("endpoint".into(), endpoint.into()),
            ]
        });
        let (mut resp, phases) = match req {
            // Stats reads are answered inline — no queue slot, no
            // solver work — so they succeed even under backpressure.
            WireRequest::StatsQuery(q) => (
                WireResponse::StatsReport(shared.stats_response(&q)),
                Phases::default(),
            ),
            WireRequest::Shutdown => {
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.serve_rec.event_with("shutdown", || vec![]);
                // Wake the accept loop so it notices the flag.
                let _ = Conn::connect(&shared.addr);
                (WireResponse::ShuttingDown, Phases::default())
            }
            work => dispatch(work, shared, tx, span.id()),
        };
        // Echo the request id in the wire answer. Only the verdict-
        // carrying payload has a field for it; the identity currency
        // (`verdict|deadlock|bucket_key|suffixes`) excludes it.
        if let WireResponse::Triage(t) = &mut resp {
            t.req_id = Some(req_id.clone());
        }
        {
            let _reply = span.child("req.reply");
            write_response(&mut writer, &resp)?;
            writer.flush()?;
        }
        let span_id = span.id();
        span.end();
        let total_us = started.elapsed().as_micros() as u64;
        shared.telem.rtt_for(endpoint).record(total_us);
        let summary = RequestSummary {
            req_id,
            endpoint: endpoint.into(),
            outcome: outcome_name(&resp).into(),
            total_us,
            queue_wait_us: phases.queue_wait_us,
            synth_us: phases.synth_us,
            store_us: phases.store_us,
        };
        if shared.telem.slow_us.is_some_and(|slow| total_us >= slow) {
            shared.serve_rec.event_with("slow", || {
                vec![
                    ("req".into(), summary.req_id.clone()),
                    (
                        "span".into(),
                        span_id.map(|id| id.to_string()).unwrap_or_default(),
                    ),
                    ("endpoint".into(), summary.endpoint.clone()),
                    ("total_us".into(), total_us.to_string()),
                    ("queue_wait_us".into(), summary.queue_wait_us.to_string()),
                    ("synth_us".into(), summary.synth_us.to_string()),
                    ("store_us".into(), summary.store_us.to_string()),
                ]
            });
        }
        shared.telem.push_recent(summary);
    }
    Ok(())
}

/// Admission + enqueue + wait for the worker's answer. `parent` is the
/// request's root span id; the admission span and the worker's phase
/// spans all parent under it, so the journal carries one reconcilable
/// tree per request.
fn dispatch(
    req: WireRequest,
    shared: &Shared,
    tx: &SyncSender<Job>,
    parent: Option<u64>,
) -> (WireResponse, Phases) {
    if shared.shutdown.load(Ordering::SeqCst) {
        return (WireResponse::ShuttingDown, Phases::default());
    }
    let admission = shared.serve_rec.span_under("req.admission", parent);
    let admitted = admit(&req, shared);
    drop(admission);
    if let Err(reason) = admitted {
        shared
            .counters
            .rejected_budget
            .fetch_add(1, Ordering::SeqCst);
        shared.serve_rec.counter("rejected.budget", 1);
        return (
            WireResponse::Rejected {
                reason,
                queue_depth: shared.counters.depth.load(Ordering::SeqCst),
            },
            Phases::default(),
        );
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        req,
        reply: reply_tx,
        parent,
        enqueued: Instant::now(),
    };
    // Count the job before handing it over: a worker may dequeue (and
    // decrement) the instant try_send returns.
    let depth = shared.counters.depth.fetch_add(1, Ordering::SeqCst) + 1;
    match tx.try_send(job) {
        Ok(()) => {
            shared.counters.admitted.fetch_add(1, Ordering::SeqCst);
            shared.serve_rec.counter("admitted", 1);
            shared.serve_rec.gauge("queue.depth", depth);
        }
        Err(TrySendError::Full(_)) => {
            let depth = shared.counters.depth.fetch_sub(1, Ordering::SeqCst) - 1;
            shared
                .counters
                .rejected_queue
                .fetch_add(1, Ordering::SeqCst);
            shared.serve_rec.counter("rejected.queue", 1);
            return (
                WireResponse::Rejected {
                    reason: "queue full".into(),
                    queue_depth: depth,
                },
                Phases::default(),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.counters.depth.fetch_sub(1, Ordering::SeqCst);
            return (WireResponse::ShuttingDown, Phases::default());
        }
    }
    reply_rx.recv().unwrap_or_else(|_| {
        (
            WireResponse::Error("server shut down before completing".into()),
            Phases::default(),
        )
    })
}

/// Each item's share of `ceiling` in a batch of `items`, which run one
/// after another on one worker. Node and solver-assignment caps divide
/// rounding up; the deadline divides rounding down, so the items'
/// deadlines together never exceed the ceiling's. The per-hypothesis
/// instruction cap is not divided: a hypothesis costs the same in any
/// item.
fn slice(ceiling: &Budget, items: usize) -> Budget {
    let n = items.max(1);
    Budget {
        max_nodes: ceiling.max_nodes.div_ceil(n as u64),
        hyp_max_steps: ceiling.hyp_max_steps,
        max_solver_assignments: ceiling.max_solver_assignments.map(|c| c.div_ceil(n as u64)),
        deadline: ceiling
            .deadline
            .map(|d| d / u32::try_from(n).unwrap_or(u32::MAX)),
    }
}

/// Checks a work request against the daemon's budget ceiling. Batches
/// share one queue slot, so each item must fit its [`slice`] of the
/// ceiling.
fn admit(req: &WireRequest, shared: &Shared) -> Result<(), String> {
    let Some(ceiling) = shared.ceiling else {
        return Ok(());
    };
    let items: Vec<&TriageRequest> = match req {
        WireRequest::Triage(r) => vec![r],
        WireRequest::BucketBatch(rs) | WireRequest::HwFilterBatch(rs) => rs.iter().collect(),
        WireRequest::StatsQuery(_) | WireRequest::Shutdown => return Ok(()),
    };
    let cap = slice(&ceiling, items.len());
    for (i, r) in items.iter().enumerate() {
        let b = r
            .synth_options(&shared.config)
            .effective_budget(&shared.config);
        if b.max_nodes > cap.max_nodes {
            return Err(format!(
                "item {i}: max_nodes {} exceeds admitted ceiling {}",
                b.max_nodes, cap.max_nodes
            ));
        }
        if b.hyp_max_steps > cap.hyp_max_steps {
            return Err(format!(
                "item {i}: hyp_max_steps {} exceeds admitted ceiling {}",
                b.hyp_max_steps, cap.hyp_max_steps
            ));
        }
        match (b.max_solver_assignments, cap.max_solver_assignments) {
            (_, None) => {}
            (None, Some(cap)) => {
                return Err(format!(
                    "item {i}: unlimited solver assignments exceed admitted ceiling {cap}"
                ));
            }
            (Some(b), Some(cap)) if b > cap => {
                return Err(format!(
                    "item {i}: max_solver_assignments {b} exceeds admitted ceiling {cap}"
                ));
            }
            _ => {}
        }
        if let Some(cap) = cap.deadline {
            match b.deadline {
                None => {
                    return Err(format!(
                        "item {i}: unbounded deadline exceeds admitted ceiling {}ms",
                        cap.as_millis()
                    ));
                }
                Some(d) if d > cap => {
                    return Err(format!(
                        "item {i}: deadline {}ms exceeds admitted ceiling {}ms",
                        d.as_millis(),
                        cap.as_millis()
                    ));
                }
                Some(_) => {}
            }
        }
    }
    Ok(())
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = {
            let rx = rx.lock().expect("queue lock");
            rx.recv()
        };
        let Ok(job) = job else { break };
        let depth = shared.counters.depth.fetch_sub(1, Ordering::SeqCst) - 1;
        shared.serve_rec.gauge("queue.depth", depth);
        let queue_wait_us = job.enqueued.elapsed().as_micros() as u64;
        shared.telem.queue_wait.record(queue_wait_us);
        // The worker's phases parent under the connection thread's
        // `serve.req` root via the id carried in the job — a span
        // hierarchy that crosses threads.
        let work = shared.serve_rec.span_under("req.work", job.parent);
        let started = Instant::now();
        // A job that panics (an input the engine does not handle) is
        // answered with an error instead of taking this worker down.
        let (resp, mut phases) =
            panic::catch_unwind(AssertUnwindSafe(|| process(job.req, shared, work.id())))
                .unwrap_or_else(|payload| {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("no message");
                    (
                        WireResponse::Error(format!("request panicked: {msg}")),
                        Phases::default(),
                    )
                });
        drop(work);
        phases.queue_wait_us = queue_wait_us;
        shared.telem.synth.record(phases.synth_us);
        shared
            .telem
            .latency
            .record(started.elapsed().as_micros() as u64);
        shared.counters.completed.fetch_add(1, Ordering::SeqCst);
        shared.serve_rec.counter("completed", 1);
        shared.publish_gauges();
        // The conn thread may have given up (client gone) — fine.
        let _ = job.reply.send((resp, phases));
    }
}

/// Runs one admitted job. Every store access goes through the hot
/// store; with no store dir configured the plain library entry points
/// run (same results, cold each time). `parent` is the worker's
/// `serve.req.work` span; store/synth phases open under it and their
/// durations accumulate in the returned [`Phases`].
fn process(req: WireRequest, shared: &Shared, parent: Option<u64>) -> (WireResponse, Phases) {
    let mut phases = Phases::default();
    let resp = match req {
        WireRequest::Triage(r) => WireResponse::Triage(run_triage(&r, shared, parent, &mut phases)),
        WireRequest::BucketBatch(rs) => {
            shared.telem.batch_fanout.record(rs.len() as u64);
            WireResponse::BucketBatch(
                rs.iter()
                    .map(|r| run_triage(r, shared, parent, &mut phases).bucket_key)
                    .collect(),
            )
        }
        WireRequest::HwFilterBatch(rs) => {
            shared.telem.batch_fanout.record(rs.len() as u64);
            WireResponse::HwFilterBatch(
                rs.iter()
                    .map(|r| {
                        in_store(
                            shared,
                            &r.program,
                            parent,
                            &mut phases,
                            |store| match store {
                                Some(store) => hw_verdict_for_in_store(r, &shared.config, store),
                                None => hw_verdict_for(r, &shared.config),
                            },
                        )
                    })
                    .collect(),
            )
        }
        WireRequest::StatsQuery(_) | WireRequest::Shutdown => {
            WireResponse::Error("not a queued request".into())
        }
    };
    (resp, phases)
}

fn run_triage(
    r: &TriageRequest,
    shared: &Shared,
    parent: Option<u64>,
    phases: &mut Phases,
) -> res_triage::TriageResponse {
    in_store(shared, &r.program, parent, phases, |store| match store {
        Some(store) => triage_in_store(r, &shared.config, store),
        None => triage(r, &shared.config),
    })
}

/// Runs `synth` against `program`'s hot store (`None` when the daemon
/// serves store-less) under the request's phase spans. `req.store`
/// covers the checkout, where evicting the LRU store commits it, and
/// the wait for the program's store lock, so same-program contention
/// is attributed to the store phase; `req.synth` covers `synth`.
fn in_store<T>(
    shared: &Shared,
    program: &Program,
    parent: Option<u64>,
    phases: &mut Phases,
    synth: impl FnOnce(Option<&mut SolverStore>) -> T,
) -> T {
    let Some(hot) = &shared.hot else {
        let _span = shared.serve_rec.span_under("req.synth", parent);
        let t = Instant::now();
        let out = synth(None);
        phases.synth_us += t.elapsed().as_micros() as u64;
        return out;
    };
    let span = shared.serve_rec.span_under("req.store", parent);
    let t = Instant::now();
    let store = hot.checkout(program);
    let mut store = lock_store(&store);
    phases.store_us += t.elapsed().as_micros() as u64;
    drop(span);
    let _span = shared.serve_rec.span_under("req.synth", parent);
    let t = Instant::now();
    let out = synth(Some(&mut store));
    phases.synth_us += t.elapsed().as_micros() as u64;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn slice_divides_whole_request_resources_across_a_batch() {
        let b = Budget {
            max_nodes: 10,
            hyp_max_steps: 4096,
            max_solver_assignments: Some(100),
            deadline: Some(Duration::from_secs(3)),
        };
        assert_eq!(slice(&b, 1), b, "one item keeps the full ceiling");
        let s = slice(&b, 4);
        assert_eq!(s.max_nodes, 3, "ceil(10/4)");
        assert_eq!(s.max_solver_assignments, Some(25));
        assert_eq!(s.hyp_max_steps, 4096, "per-hypothesis limit undivided");
        assert_eq!(s.deadline, Some(Duration::from_millis(750)));
        assert_eq!(slice(&b, 0), slice(&b, 1), "zero clamps to one");
        // The deadline rounds down: seven shares never exceed the whole.
        let share = slice(&b, 7).deadline.expect("deadline");
        assert!(share * 7 <= Duration::from_secs(3));
        assert!(share * 7 + Duration::from_nanos(7) > Duration::from_secs(3));
    }
}
