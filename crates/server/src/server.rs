//! The query server: admission control → worker pools → executor →
//! shared index snapshot.
//!
//! ```text
//! io workers ──(a query already in flight)──► query queue ─► query workers
//! (accept, parse, route,                      (bounded       (executor,
//!  health, 4xx; run the query                  admission)     respond)
//!  when nothing else is in flight)
//! ```
//!
//! Every io worker accepts on the one shared listener and answers one
//! request per connection. `/healthz`, `/metrics` and every error
//! response are answered on the io worker. So is a `/query` that finds
//! no other query queued or running: the common, idle-server request
//! crosses no thread. Any other query is *tried* onto the bounded query
//! queue; when that queue is full it is refused immediately with `503` +
//! `Retry-After` — so a saturated query pool sheds load in O(1) while
//! health checks and scrapes keep answering, which is exactly the
//! backpressure contract the load tests pin. A busy io worker does not
//! accept, so a burst of connections waits in the kernel's accept
//! backlog, not in server memory.
//!
//! A query run on an io worker holds the in-flight count above zero, so
//! at most one runs that way at a time: up to `query_workers + 1`
//! queries execute at once, and with two or more io workers one is
//! always free for control requests (with one, a control request can
//! wait for one query).
//!
//! Queries run against one shared [`SpatioTemporalIndex`]: reads are
//! `&self` end to end, so every worker shares a single `Arc` with no
//! writer coordination.

use crate::cli::parse_area;
use crate::http::{self, RecvError, Request, Response};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sti_core::{LeafMutex, QueryRequest, SpatioTemporalIndex};
use sti_geom::TimeInterval;
use sti_obs::{LatencyHistogram, MetricSet};

/// Most threads [`Server::start`] spawns for each pool (`query_workers`,
/// `io_workers`).
pub const MAX_WORKERS: usize = 64;

/// Largest `queue_depth` [`Server::start`] accepts: the query queue
/// allocates every slot up front.
pub const MAX_QUEUE_DEPTH: usize = 4096;

/// Tuning for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Threads executing the queries io workers hand off. One more query
    /// may run on an io worker, so up to `query_workers + 1` execute at
    /// once.
    pub query_workers: usize,
    /// Threads accepting connections, parsing requests and answering
    /// control endpoints and errors; one of them runs a query itself
    /// when no other query is in flight. With `io_workers = 1` a control
    /// request can wait for that query.
    pub io_workers: usize,
    /// Bound on admitted-but-unstarted queries; one more in-flight
    /// request beyond this is refused with 503.
    pub queue_depth: usize,
    /// Time allowed to receive a whole request head (→ 408), however
    /// the client paces its bytes. Must be non-zero.
    pub read_timeout: Duration,
    /// Socket write timeout while sending a response. Must be non-zero.
    pub write_timeout: Duration,
    /// Artificial per-query delay. Zero in production; load tests use
    /// it to saturate the admission bound deterministically.
    pub test_delay: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            query_workers: 2,
            io_workers: 2,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            test_delay: Duration::ZERO,
        }
    }
}

/// Shared atomic counters behind `/metrics`. Everything is `&self` and
/// relaxed: counters are independent monotonic cells read at scrape
/// time, where a torn cross-counter view is acceptable by contract.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Requests routed, by endpoint.
    requests_query: AtomicU64,
    requests_healthz: AtomicU64,
    requests_metrics: AtomicU64,
    requests_other: AtomicU64,
    /// Responses written, by status code (fixed vocabulary).
    responses: Vec<(u16, AtomicU64)>,
    /// `/query` requests refused because the admission queue was full.
    admission_rejected: AtomicU64,
    /// Queued queries answered 503 because the drain deadline passed
    /// during shutdown.
    drain_rejected: AtomicU64,
    /// Connections that vanished before a response could be written.
    disconnects: AtomicU64,
    /// Admitted queries not yet answered.
    inflight: AtomicU64,
    /// Queries an io worker sent to the query queue instead of running.
    handoffs: AtomicU64,
    /// End-to-end `/query` latency: admission to response written.
    latency: LatencyHistogram,
    /// Admission to dequeue, for handed-off queries only.
    queue_wait: LatencyHistogram,
    /// Sums of per-query [`sti_obs::QueryStats`] fields.
    q_disk_reads: AtomicU64,
    q_buffer_hits: AtomicU64,
    q_nodes_visited: AtomicU64,
    q_entries_scanned: AtomicU64,
    q_results: AtomicU64,
    /// Index shape, captured at startup (the served snapshot is
    /// immutable for the server's lifetime).
    index_pages: u64,
    index_records: u64,
    backend: String,
}

/// The status codes this server can send, for the fixed counter table.
const STATUS_VOCABULARY: [u16; 9] = [200, 400, 404, 405, 408, 414, 431, 500, 503];

impl ServerMetrics {
    fn new(index: &SpatioTemporalIndex) -> Self {
        Self {
            requests_query: AtomicU64::new(0),
            requests_healthz: AtomicU64::new(0),
            requests_metrics: AtomicU64::new(0),
            requests_other: AtomicU64::new(0),
            responses: STATUS_VOCABULARY
                .iter()
                .map(|&code| (code, AtomicU64::new(0)))
                .collect(),
            admission_rejected: AtomicU64::new(0),
            drain_rejected: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            handoffs: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            queue_wait: LatencyHistogram::new(),
            q_disk_reads: AtomicU64::new(0),
            q_buffer_hits: AtomicU64::new(0),
            q_nodes_visited: AtomicU64::new(0),
            q_entries_scanned: AtomicU64::new(0),
            q_results: AtomicU64::new(0),
            index_pages: index.num_pages() as u64,
            index_records: index.record_count() as u64,
            backend: index.backend().to_string(),
        }
    }

    /// Pages in the served index.
    pub fn index_pages(&self) -> u64 {
        self.index_pages
    }

    /// Records posted to the served index.
    pub fn index_records(&self) -> u64 {
        self.index_records
    }

    /// Human name of the served backend.
    pub fn backend_name(&self) -> &str {
        &self.backend
    }

    fn count_request(&self, path: &str) {
        let cell = match path {
            "/query" => &self.requests_query,
            "/healthz" => &self.requests_healthz,
            "/metrics" => &self.requests_metrics,
            _ => &self.requests_other,
        };
        // ordering: independent monotonic counter, scrape-tolerant.
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn count_response(&self, status: u16) {
        for (code, cell) in &self.responses {
            if *code == status {
                // ordering: independent monotonic counter.
                cell.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }

    fn count_disconnect(&self) {
        // ordering: independent monotonic counter.
        self.disconnects.fetch_add(1, Ordering::Relaxed);
    }

    fn absorb_query_stats(&self, stats: &sti_obs::QueryStats) {
        let pairs = [
            (&self.q_disk_reads, stats.disk_reads),
            (&self.q_buffer_hits, stats.buffer_hits),
            (&self.q_nodes_visited, stats.nodes_visited),
            (&self.q_entries_scanned, stats.entries_scanned),
            (&self.q_results, stats.results),
        ];
        for (cell, delta) in pairs {
            cell.fetch_add(delta, Ordering::Relaxed); // ordering: independent monotonic counter.
        }
    }

    /// `/query` requests answered so far (any status).
    pub fn queries_answered(&self) -> u64 {
        self.latency.count()
    }

    /// Admitted queries not yet answered.
    pub fn inflight(&self) -> u64 {
        // ordering: scrape-time read.
        self.inflight.load(Ordering::Relaxed)
    }

    /// Queries sent to the query queue; every other admitted query ran
    /// on the io worker that read it.
    pub fn handoffs(&self) -> u64 {
        // ordering: scrape-time read.
        self.handoffs.load(Ordering::Relaxed)
    }

    /// Handed-off queries a query worker has dequeued so far.
    pub fn queue_waits(&self) -> u64 {
        self.queue_wait.count()
    }

    /// `/query` requests refused at the admission bound.
    pub fn admission_rejected(&self) -> u64 {
        // ordering: scrape-time read.
        self.admission_rejected.load(Ordering::Relaxed)
    }

    /// Queued queries 503'd because shutdown's drain deadline passed.
    pub fn drain_rejected(&self) -> u64 {
        // ordering: scrape-time read.
        self.drain_rejected.load(Ordering::Relaxed)
    }

    /// Render everything as a fresh [`MetricSet`] (each `/metrics`
    /// scrape builds its own point-in-time copy).
    pub fn render(&self) -> MetricSet {
        let mut set = MetricSet::new();
        for (endpoint, cell) in [
            ("query", &self.requests_query),
            ("healthz", &self.requests_healthz),
            ("metrics", &self.requests_metrics),
            ("other", &self.requests_other),
        ] {
            set.push(sti_obs::Metric {
                name: "sti_http_requests_total".to_string(),
                help: "requests routed, by endpoint".to_string(),
                kind: sti_obs::MetricKind::Counter,
                labels: vec![("endpoint".to_string(), endpoint.to_string())],
                // ordering: scrape-time read.
                value: cell.load(Ordering::Relaxed) as f64,
                histogram: None,
            });
        }
        for (code, cell) in &self.responses {
            set.push(sti_obs::Metric {
                name: "sti_http_responses_total".to_string(),
                help: "responses written, by status code".to_string(),
                kind: sti_obs::MetricKind::Counter,
                labels: vec![("code".to_string(), code.to_string())],
                // ordering: scrape-time read.
                value: cell.load(Ordering::Relaxed) as f64,
                histogram: None,
            });
        }
        set.counter(
            "sti_admission_rejected_total",
            "queries refused with 503 at the admission bound",
            self.admission_rejected() as f64,
        );
        set.counter(
            "sti_drain_rejected_total",
            "queued queries 503'd past the shutdown drain deadline",
            self.drain_rejected() as f64,
        );
        set.counter(
            "sti_query_handoffs_total",
            "queries an io worker sent to the query queue instead of running",
            self.handoffs() as f64,
        );
        set.counter(
            "sti_http_disconnects_total",
            "connections lost before a response could be written",
            // ordering: scrape-time read.
            self.disconnects.load(Ordering::Relaxed) as f64,
        );
        set.gauge(
            "sti_http_inflight_requests",
            "admitted queries not yet answered",
            self.inflight() as f64,
        );
        set.histogram(
            "sti_request_seconds",
            "end-to-end query latency: admission to response written",
            self.latency.snapshot(),
        );
        set.histogram(
            "sti_query_queue_wait_seconds",
            "handed-off query wait: admission to dequeue",
            self.queue_wait.snapshot(),
        );
        for (name, help, cell) in [
            (
                "sti_query_disk_reads_total",
                "pages fetched from disk by queries",
                &self.q_disk_reads,
            ),
            (
                "sti_query_buffer_hits_total",
                "page requests served by the buffer pool",
                &self.q_buffer_hits,
            ),
            (
                "sti_query_nodes_visited_total",
                "tree nodes visited by queries",
                &self.q_nodes_visited,
            ),
            (
                "sti_query_entries_scanned_total",
                "node entries tested by queries",
                &self.q_entries_scanned,
            ),
            (
                "sti_query_results_total",
                "result ids returned by queries",
                &self.q_results,
            ),
        ] {
            // ordering: scrape-time read.
            set.counter(name, help, cell.load(Ordering::Relaxed) as f64);
        }
        set.gauge(
            "sti_index_pages",
            "pages in the served index",
            self.index_pages as f64,
        );
        set.gauge(
            "sti_index_records",
            "records posted to the served index",
            self.index_records as f64,
        );
        set
    }
}

/// One admitted query: the connection to answer on, the parsed request,
/// and the admission instant the latency histograms measure from.
struct QueryJob {
    stream: TcpStream,
    request: QueryRequest,
    admitted: Instant,
}

/// What every worker thread reads.
struct Shared {
    index: Arc<SpatioTemporalIndex>,
    metrics: Arc<ServerMetrics>,
    config: ServerConfig,
    /// Set by shutdown; an io worker that sees it after `accept` exits.
    stop: AtomicBool,
    /// Set by [`Server::shutdown_within`]: once this instant passes,
    /// query workers answer still-queued jobs with 503 instead of
    /// executing them.
    drain_deadline: LeafMutex<Option<Instant>>,
}

/// A running server. Dropping it does *not* stop the threads; call
/// [`Server::shutdown`] for an orderly stop or [`Server::join`] to
/// serve until the process dies.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    io_workers: Vec<JoinHandle<()>>,
    query_workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the pools, and start serving `index`.
    ///
    /// # Errors
    /// `InvalidInput` for a zero read or write timeout (the socket
    /// would otherwise be left with no timeout at all, and one stalled
    /// client could hold an io worker forever), or for a pool above
    /// [`MAX_WORKERS`] or a queue above [`MAX_QUEUE_DEPTH`] (a typo
    /// must not start thousands of threads or allocate a huge queue);
    /// the bind error when the address is unavailable.
    pub fn start(index: Arc<SpatioTemporalIndex>, config: ServerConfig) -> std::io::Result<Self> {
        let invalid = |msg: &str| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg));
        if config.read_timeout.is_zero() || config.write_timeout.is_zero() {
            return invalid("read and write timeouts must be non-zero");
        }
        if config.query_workers > MAX_WORKERS || config.io_workers > MAX_WORKERS {
            return invalid(&format!("a pool must have at most {MAX_WORKERS} workers"));
        }
        if config.queue_depth > MAX_QUEUE_DEPTH {
            return invalid(&format!("queue depth must be at most {MAX_QUEUE_DEPTH}"));
        }
        let listener = Arc::new(TcpListener::bind(&config.addr)?);
        let addr = listener.local_addr()?;
        let (query_tx, query_rx) =
            std::sync::mpsc::sync_channel::<QueryJob>(config.queue_depth.max(1));
        let query_rx = Arc::new(LeafMutex::new(query_rx));
        let shared = Arc::new(Shared {
            metrics: Arc::new(ServerMetrics::new(&index)),
            index,
            config,
            stop: AtomicBool::new(false),
            drain_deadline: LeafMutex::new(None),
        });

        // The io workers hold the only listener handles and senders that
        // outlive this call: the port closes, and the query channel with
        // it, as soon as they exit.
        let io_workers = (0..shared.config.io_workers.max(1))
            .map(|_| {
                let listener = Arc::clone(&listener);
                let query_tx = query_tx.clone();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || io_loop(&listener, &query_tx, &shared))
            })
            .collect();
        let query_workers = (0..shared.config.query_workers.max(1))
            .map(|_| {
                let query_rx = Arc::clone(&query_rx);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || query_loop(&query_rx, &shared))
            })
            .collect();

        Ok(Self {
            addr,
            shared,
            io_workers,
            query_workers,
        })
    }

    /// The bound address (the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics handle.
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Stop accepting, drain the pipeline, and join every thread: each
    /// io worker finishes its request (a query it runs itself included)
    /// and exits, which closes the listener and the query channel; the
    /// query workers answer what is still queued, then see the closed
    /// channel and exit.
    pub fn shutdown(self) {
        self.stop_and_drain(None);
    }

    /// [`Server::shutdown`] with a drain deadline: queries already
    /// running (or dequeued before the deadline passes) finish and
    /// answer normally; jobs still queued after `grace` are answered
    /// `503` instead of executed, so a backlog of slow queries cannot
    /// hold the process open indefinitely. Every admitted request gets
    /// *some* response either way.
    pub fn shutdown_within(self, grace: Duration) {
        self.stop_and_drain(Some(grace));
    }

    fn stop_and_drain(self, grace: Option<Duration>) {
        if let Some(grace) = grace {
            *self.shared.drain_deadline.lock() = Some(Instant::now() + grace);
        }
        // ordering: release pairs with the io workers' acquire load, so
        // a worker woken by a connection below observes the flag.
        self.shared.stop.store(true, Ordering::Release);
        // One wake-up connection per io worker: each worker exits on the
        // first connection it accepts after the flag, so every worker —
        // blocked in `accept` or still busy with a request — takes one.
        for _ in &self.io_workers {
            let _ = TcpStream::connect(self.addr);
        }
        for handle in self.io_workers.into_iter().chain(self.query_workers) {
            let _ = handle.join();
        }
    }

    /// Block this thread while the pools serve (until process death).
    pub fn join(self) {
        for handle in self.io_workers {
            let _ = handle.join();
        }
    }
}

/// Accept connections until the stop flag and answer one request on
/// each: control endpoints and every error here, `/query` through
/// [`admit_query`]. A worker busy with a request does not accept, so
/// overload backs up into the kernel's accept backlog instead of
/// growing server memory.
fn io_loop(listener: &TcpListener, query_tx: &SyncSender<QueryJob>, shared: &Shared) {
    let metrics = &*shared.metrics;
    // bounded: shutdown sets `stop` and then makes one wake-up
    // connection per io worker, so each worker's next accept breaks.
    loop {
        let accepted = listener.accept();
        // ordering: acquire pairs with shutdown's release store.
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        // Transient accept errors (aborted handshakes, fd pressure) must
        // not kill the server.
        let Ok((mut stream, _)) = accepted else {
            continue;
        };
        // `Server::start` refuses the zero timeouts these calls reject.
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let _ = stream.set_nodelay(true);
        match http::read_request(&mut stream, shared.config.read_timeout) {
            Ok(request) => handle_request(stream, request, query_tx, shared),
            Err(RecvError::Disconnected) => metrics.count_disconnect(),
            Err(e) => {
                let status = match &e {
                    RecvError::TimedOut => 408,
                    RecvError::LineTooLong => 414,
                    RecvError::HeadTooLarge => 431,
                    _ => 400,
                };
                let resp = Response::text(status, format!("{e}\n"));
                respond(&mut stream, resp, metrics);
            }
        }
    }
}

/// Route a parsed request.
fn handle_request(
    mut stream: TcpStream,
    request: Request,
    query_tx: &SyncSender<QueryJob>,
    shared: &Shared,
) {
    let metrics = &*shared.metrics;
    metrics.count_request(request.path());
    if request.method != "GET" {
        let resp = Response::text(405, format!("method {} not allowed\n", request.method))
            .header("Allow", "GET");
        respond(&mut stream, resp, metrics);
        return;
    }
    match request.path() {
        "/healthz" => respond(&mut stream, Response::text(200, "ok\n"), metrics),
        "/metrics" => {
            let body = metrics.render().to_prometheus();
            respond(&mut stream, Response::text(200, body), metrics);
        }
        "/query" => admit_query(stream, &request, query_tx, shared),
        other => respond(
            &mut stream,
            Response::text(404, format!("no such path {other}\n")),
            metrics,
        ),
    }
}

/// Validate `/query` parameters and admit the job: answer it here when
/// no other query is queued or running, else try to enqueue it; a full
/// queue is an immediate 503 with `Retry-After`.
fn admit_query(
    mut stream: TcpStream,
    request: &Request,
    query_tx: &SyncSender<QueryJob>,
    shared: &Shared,
) {
    let metrics = &*shared.metrics;
    let parsed = match parse_query_params(request) {
        Ok(p) => p,
        Err(why) => {
            let resp = Response::text(400, format!("{why}\n"));
            respond(&mut stream, resp, metrics);
            return;
        }
    };
    let job = QueryJob {
        stream,
        request: parsed,
        admitted: Instant::now(),
    };
    // ordering: read-modify-writes of one cell are totally ordered at
    // any ordering, so two io workers never both read 0 while a query
    // is unanswered; nothing else is published through the gauge.
    if metrics.inflight.fetch_add(1, Ordering::Relaxed) == 0 {
        answer(job, shared);
        return;
    }
    match query_tx.try_send(job) {
        Ok(()) => {
            // ordering: independent monotonic counter.
            metrics.handoffs.fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Full(mut job)) => {
            // ordering: a relaxed gauge update paired with the add above,
            // then an independent monotonic counter.
            metrics.inflight.fetch_sub(1, Ordering::Relaxed);
            metrics.admission_rejected.fetch_add(1, Ordering::Relaxed);
            let resp = Response::text(503, "admission queue full; retry shortly\n")
                .header("Retry-After", 1);
            respond(&mut job.stream, resp, metrics);
        }
        Err(TrySendError::Disconnected(mut job)) => {
            // ordering: relaxed gauge update, paired with the add above.
            metrics.inflight.fetch_sub(1, Ordering::Relaxed);
            let resp = Response::text(503, "server is shutting down\n");
            respond(&mut job.stream, resp, metrics);
        }
    }
}

/// `GET /query?area=x0,y0,x1,y1&time=T[&until=T2]` → a validated
/// [`QueryRequest`]. `until` defaults to `time + 1` (a snapshot).
fn parse_query_params(request: &Request) -> Result<QueryRequest, String> {
    let mut area: Option<&str> = None;
    let mut time: Option<&str> = None;
    let mut until: Option<&str> = None;
    for (key, value) in request.query_pairs() {
        match key {
            "area" if area.is_none() => area = Some(value),
            "time" if time.is_none() => time = Some(value),
            "until" if until.is_none() => until = Some(value),
            "area" | "time" | "until" => return Err(format!("duplicate parameter {key}")),
            other => {
                return Err(format!(
                    "unknown parameter {other} (valid: area, time, until)"
                ))
            }
        }
    }
    let area = parse_area(area.ok_or("missing parameter area=x0,y0,x1,y1")?)?;
    let time: u32 = time
        .ok_or("missing parameter time=T")?
        .parse()
        .map_err(|_| "time must be a non-negative integer".to_string())?;
    let until: u32 = match until {
        Some(raw) => raw
            .parse()
            .map_err(|_| "until must be a non-negative integer".to_string())?,
        None => time.saturating_add(1),
    };
    if until <= time {
        return Err("until must be after time".to_string());
    }
    Ok(QueryRequest {
        area,
        range: TimeInterval::new(time, until),
    })
}

/// Dequeue handed-off queries and answer each through [`answer`], the
/// path a query run on an io worker takes too.
fn query_loop(query_rx: &LeafMutex<Receiver<QueryJob>>, shared: &Shared) {
    let metrics = &*shared.metrics;
    // bounded: `recv` fails once the channel closes, which it does when
    // the io workers, its only senders, have exited.
    loop {
        let job = {
            // Holding the lock across `recv` is the point: it makes the
            // receiver single-consumer-at-a-time, which is all mpsc
            // offers anyway.
            let guard = query_rx.lock();
            guard.recv()
        };
        let Ok(job) = job else {
            break; // channel closed: io workers exited
        };
        metrics.queue_wait.observe(job.admitted.elapsed());
        // Past the shutdown drain deadline, stragglers get a response
        // but not an execution — the backlog flushes in O(queue) writes
        // instead of O(queue) queries.
        let expired = shared
            .drain_deadline
            .lock()
            .is_some_and(|deadline| Instant::now() >= deadline);
        if expired {
            // ordering: independent monotonic counter.
            metrics.drain_rejected.fetch_add(1, Ordering::Relaxed);
            let resp = Response::text(503, "server is shutting down\n");
            finish(job, resp, metrics);
        } else {
            answer(job, shared);
        }
    }
}

/// Execute an admitted query and answer it, on whichever thread holds
/// it, so outcomes are byte-identical to a one-at-a-time replay of the
/// same requests.
fn answer(job: QueryJob, shared: &Shared) {
    let metrics = &*shared.metrics;
    if !shared.config.test_delay.is_zero() {
        std::thread::sleep(shared.config.test_delay);
    }
    let outcome = shared
        .index
        .query_with_stats(&job.request.area, &job.request.range);
    let response = match outcome {
        Ok((ids, stats)) => {
            metrics.absorb_query_stats(&stats);
            let mut body = String::with_capacity(ids.len() * 8);
            for id in &ids {
                body.push_str(&id.to_string());
                body.push('\n');
            }
            Response::text(200, body)
                .header("X-Sti-Results", ids.len())
                .header("X-Sti-Disk-Reads", stats.disk_reads)
                .header("X-Sti-Buffer-Hits", stats.buffer_hits)
                .header("X-Sti-Nodes-Visited", stats.nodes_visited)
        }
        Err(e) => Response::text(500, format!("query failed: {e}\n")),
    };
    finish(job, response, metrics);
}

/// Write an admitted query's response, observe its latency, and release
/// its in-flight slot — before `job` drops and closes the connection, so
/// a client that reads to EOF and asks again finds the server idle.
fn finish(mut job: QueryJob, response: Response, metrics: &ServerMetrics) {
    respond(&mut job.stream, response, metrics);
    metrics.latency.observe(job.admitted.elapsed());
    // ordering: relaxed gauge update, paired with the admission add.
    metrics.inflight.fetch_sub(1, Ordering::Relaxed);
}

/// Write a response, counting its status or the disconnect.
fn respond(stream: &mut TcpStream, response: Response, metrics: &ServerMetrics) {
    match response.write_to(stream) {
        Ok(()) => metrics.count_response(response.status),
        Err(_) => metrics.count_disconnect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
        }
    }

    #[test]
    fn query_params_parse_snapshot_and_interval() {
        let p = parse_query_params(&req("/query?area=0.1,0.2,0.3,0.4&time=5")).unwrap();
        assert_eq!(p.range, TimeInterval::new(5, 6));
        let p = parse_query_params(&req("/query?area=0,0,1,1&time=5&until=9")).unwrap();
        assert_eq!(p.range, TimeInterval::new(5, 9));
    }

    #[test]
    fn query_param_errors_are_specific() {
        for (target, needle) in [
            ("/query", "missing parameter area"),
            ("/query?area=0,0,1,1", "missing parameter time"),
            ("/query?area=0,0,1&time=1", "exactly x0,y0,x1,y1"),
            ("/query?area=1,1,0,0&time=1", "reversed"),
            ("/query?area=a,b,c,d&time=1", "bad coordinate"),
            ("/query?area=0,0,1,1&time=x", "time must be"),
            ("/query?area=0,0,1,1&time=5&until=5", "until must be after"),
            (
                "/query?area=0,0,1,1&time=5&bogus=1",
                "unknown parameter bogus",
            ),
            (
                "/query?area=0,0,1,1&area=0,0,1,1&time=1",
                "duplicate parameter area",
            ),
            ("/query?area=inf,0,1,1&time=1", "finite"),
        ] {
            let err = parse_query_params(&req(target)).unwrap_err();
            assert!(err.contains(needle), "{target}: {err}");
        }
    }

    #[test]
    fn time_overflow_saturates_instead_of_wrapping() {
        let p = parse_query_params(&req("/query?area=0,0,1,1&time=4294967295"));
        // u32::MAX + 1 saturates; the range is then empty and refused.
        assert!(p.is_err());
    }
}
