//! `serve_http`: the paper's own pipeline (split planner, incremental
//! PPR-Tree build, save, open) behind `sti-server`, under an open loop of
//! 300 requests/s on two connections, each request timed from the
//! instant it was due. It is the only path through the server layer and
//! the only workload whose index comes from the split planner and
//! incremental inserts, so `setup_s` here is the paper's build cost.
//!
//! 300 req/s keeps the two query workers well under half busy: the tail
//! measures the server, not a backlog. Saturation is a traced probe, not
//! a gated number.
//!
//! The server and the two load threads share the one CPU the run is
//! pinned to (`host::pin_to_one_cpu`), and the load threads poll rather
//! than sleep (`wait_until`): a request's latency is then the server's
//! code path plus context switches on one CPU, and no longer the time
//! the host takes to wake a parked virtual CPU, which is most of what
//! an idle two-CPU run measures here (p50 112-211 us run to run against
//! 79-81 us pinned).

use crate::gen;
use crate::metrics::Report;
use crate::run::{overhead_pct, repeat_setup, run_passes, steps, Ctx};
use crate::stats::{ns_to_us, quantile_ns, ratio};
use crate::trace::Tracer;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sti_core::{
    DistributionAlgorithm, IndexBackend, IndexConfig, ObjectRecord, Parallelism, QueryExecutor,
    QueryRequest, SingleSplitAlgorithm, SpatioTemporalIndex, SplitBudget, SplitPlan,
};
use sti_datagen::Query;
use sti_obs::QueryStats;
use sti_server::{Server, ServerConfig};
use sti_storage::PAGE_SIZE;

/// Load connections: one per hardware thread of the recording host.
pub const CONNECTIONS: usize = 2;
const RATE_PER_S: f64 = 300.0;
const TIME_EXTENT: u32 = 1000;

struct Served {
    server: Option<Server>,
    index: Arc<SpatioTemporalIndex>,
    records: Vec<ObjectRecord>,
    objects: usize,
    file: PathBuf,
    /// Per-layer set-up numbers, by metric name.
    timings: Vec<(&'static str, f64)>,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Dataset, split plan, incremental build, save, open, serve, warm up.
fn serve(ctx: &Ctx) -> Served {
    let n = ctx.size(20_000, 1_000);
    let (objects, datagen_s) = timed(|| gen::paper_dataset(ctx.seed, n).generate());
    let plan = SplitPlan::build_with(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(50.0),
        None,
        Parallelism::Sequential,
    );
    let records = plan.records(&objects);
    let (mut built, build_s) = timed(|| {
        SpatioTemporalIndex::build(&records, &IndexConfig::paper(IndexBackend::PprTree))
            .expect("in-memory build")
    });
    let pages = built.num_pages();
    let file = ctx
        .scratch
        .subdir("index")
        .expect("scratch dir")
        .join("paper.stidx");
    let ((), save_s) = timed(|| {
        built
            .as_ppr_mut()
            .expect("ppr backend")
            .save_to_file(&file)
            .expect("save index");
    });
    drop(built);
    let file_bytes = std::fs::metadata(&file).map_or(0, |m| m.len());
    let (opened, open_s) = timed(|| SpatioTemporalIndex::open_file(&file).expect("open index"));
    let index = Arc::new(opened);
    let server = Server::start(Arc::clone(&index), ServerConfig::default()).expect("bind");
    let addr = server.addr();
    for i in 0..ctx.size(200, 20) {
        let (area, request) = gen::http_query(gen::derive(ctx.seed, 41), i, TIME_EXTENT);
        let _ = issue(addr, &path_of(&area, &request), &mut Tracer::off(), 0);
    }
    Served {
        server: Some(server),
        index,
        objects: n,
        file,
        timings: vec![
            ("datagen.generate_s", datagen_s),
            ("core.plan.curves_s", plan.stats().curve_time.as_secs_f64()),
            (
                "core.plan.distribute_s",
                plan.stats().distribute_time.as_secs_f64(),
            ),
            (
                "core.plan.records_per_object",
                records.len() as f64 / n as f64,
            ),
            ("pprtree.insert.build_s", build_s),
            ("pprtree.insert.pages", pages as f64),
            ("storage.persist.save_s", save_s),
            ("storage.persist.open_s", open_s),
            ("storage.persist.file_bytes", file_bytes as f64),
        ],
        records,
    }
}

fn path_of(area: &str, request: &QueryRequest) -> String {
    format!(
        "/query?area={area}&time={}&until={}",
        request.range.start, request.range.end
    )
}

/// One request on a fresh connection (the server answers one request per
/// connection). Returns the status and the body.
fn issue(
    addr: SocketAddr,
    path: &str,
    tracer: &mut Tracer,
    request: u64,
) -> Result<(u16, String), String> {
    let root = tracer.enter("server.request", request);
    let result = (|| {
        let span = tracer.enter("client.connect", request);
        let stream = TcpStream::connect(addr);
        tracer.exit(span);
        let mut stream = stream.map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| format!("timeout: {e}"))?;
        let _ = stream.set_nodelay(true);
        let head = format!("GET {path} HTTP/1.1\r\nHost: sti\r\nConnection: close\r\n\r\n");
        let span = tracer.enter("client.write", request);
        let sent = stream.write_all(head.as_bytes());
        tracer.exit(span);
        sent.map_err(|e| format!("send: {e}"))?;
        let mut raw = Vec::with_capacity(1024);
        let span = tracer.enter("client.read", request);
        let received = stream.read_to_end(&mut raw);
        tracer.exit(span);
        received.map_err(|e| format!("recv: {e}"))?;
        let text = String::from_utf8_lossy(&raw);
        let status = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("unparseable status line")?;
        let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        Ok((status, body.to_string()))
    })();
    tracer.exit(root);
    result
}

/// One open-loop window; every vector is indexed by request number.
struct Pass {
    latency_ns: Vec<u64>,
    /// How late each request left the generator.
    late_ns: Vec<u64>,
    outcomes: Vec<Result<(u16, String), String>>,
    wall_s: f64,
}

/// Wait for `due` without sleeping. A sleeping generator leaves its CPU
/// idle, the hypervisor parks an idle virtual CPU, and un-parking it
/// takes some tens of microseconds that land in the next request's
/// latency and differ from run to run with the host's other tenants. A
/// generator that polls the clock and yields keeps the CPU awake, and a
/// server thread that becomes runnable gets it at the next yield.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// One open-loop window: request `i` is due `i / rate` seconds after the
/// start, whatever the server is doing. Every window sends the same
/// `total` requests, so windows are identical work.
fn open_loop(addr: SocketAddr, seed: u64, total: usize, tracer: &mut Tracer) -> Pass {
    let next = AtomicUsize::new(0);
    // A little in the future, so thread start-up is not an initial backlog.
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples = Vec::with_capacity(total);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                let mut tracer = tracer.fork(4 * total);
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::with_capacity(total);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        let (area, request) = gen::http_query(seed, i, TIME_EXTENT);
                        let path = path_of(&area, &request);
                        let due = start + Duration::from_secs_f64(i as f64 / RATE_PER_S);
                        wait_until(due);
                        let late_ns = due.elapsed().as_nanos() as u64;
                        let outcome = issue(addr, &path, &mut tracer, i as u64);
                        samples.push((i, due.elapsed().as_nanos() as u64, late_ns, outcome));
                    }
                    (samples, tracer)
                })
            })
            .collect();
        for w in workers {
            let (part, forked) = w.join().expect("load thread");
            samples.extend(part);
            tracer.absorb(forked);
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    samples.sort_by_key(|&(i, ..)| i);
    let mut pass = Pass {
        latency_ns: Vec::with_capacity(total),
        late_ns: Vec::with_capacity(total),
        outcomes: Vec::with_capacity(total),
        wall_s,
    };
    for (_, latency_ns, late_ns, outcome) in samples {
        pass.latency_ns.push(latency_ns);
        pass.late_ns.push(late_ns);
        pass.outcomes.push(outcome);
    }
    pass
}

fn expected_body(ids: &[u64]) -> String {
    ids.iter().map(|id| format!("{id}\n")).collect()
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Tracer {
    let (mut served, setup_s) = repeat_setup(ctx, serve);
    report.set_best("setup_s", &setup_s);
    for &(name, value) in &served.timings {
        report.set(name, value);
    }
    let server = served.server.take().expect("server is up");
    let addr = server.addr();

    // One-second windows of the same requests.
    let per_pass = ctx.size(RATE_PER_S as usize, 100);
    let passes = run_passes(ctx, 4 * per_pass, |tracer| {
        open_loop(addr, ctx.seed, per_pass, tracer)
    });
    let rss = crate::host::rss_mb();

    // Every window sends the same requests: a request's latency is its
    // minimum across windows (`stats::stepwise_min`), which leaves the
    // cost of the request itself and takes out the host's hiccups. The
    // raw far tail is reported unfiltered below, ungated.
    let timed = &passes.untraced;
    let (lat, note) = steps(timed, |p| &p.latency_ns, "request latencies", report);
    let p50_us = ns_to_us(quantile_ns(&lat, 0.50));
    report.set_noted("op_p50_us", p50_us, note.clone());
    report.set_noted("op_tail_us", ns_to_us(quantile_ns(&lat, 0.90)), note);
    report.set_best(
        "ops_per_s",
        &timed
            .iter()
            .map(|p| per_pass as f64 / p.wall_s)
            .collect::<Vec<_>>(),
    );
    report.set(
        "index_bytes_per_object",
        (served.index.num_pages() * PAGE_SIZE) as f64 / served.objects as f64,
    );
    report.set("rss_mb", rss);
    let all: Vec<u64> = timed.iter().flat_map(|p| &p.latency_ns).copied().collect();
    report.set_with_samples(
        "server.http_p99_us",
        ns_to_us(quantile_ns(&all, 0.99)),
        all.len(),
    );
    report.set("server.http_max_us", ns_to_us(quantile_ns(&all, 1.0)));
    let late: Vec<u64> = timed.iter().flat_map(|p| &p.late_ns).copied().collect();
    report.set_with_samples(
        "server.gen_late_p99_us",
        ns_to_us(quantile_ns(&late, 0.99)),
        late.len(),
    );
    if ctx.trace {
        let (traced, _) = steps(
            &passes.traced,
            |p| &p.latency_ns,
            "traced latencies",
            report,
        );
        report.set(
            "bench.trace_overhead_pct",
            overhead_pct(p50_us, ns_to_us(quantile_ns(&traced, 0.50))),
        );
    }

    // Every body must equal the in-process answer for the same request;
    // timing the in-process calls gives the share of `op_p50_us` that is
    // not the server's.
    let executor = QueryExecutor::sequential();
    let requests: Vec<QueryRequest> = (0..per_pass)
        .map(|i| gen::http_query(ctx.seed, i, TIME_EXTENT).1)
        .collect();
    let mut want = Vec::new();
    let mut inproc_p50 = Vec::new();
    for _ in 0..ctx.size(5, 1) {
        let mut ns = Vec::with_capacity(per_pass);
        want = requests
            .iter()
            .map(|request| {
                let t0 = Instant::now();
                let outcome = executor.run(&served.index, &[*request]).pop();
                ns.push(t0.elapsed().as_nanos() as u64);
                match outcome {
                    Some(Ok((ids, _))) => expected_body(&ids),
                    _ => String::from("<in-process query failed>"),
                }
            })
            .collect();
        inproc_p50.push(ns_to_us(quantile_ns(&ns, 0.50)));
    }
    for pass in timed.iter().chain(&passes.traced) {
        for (i, outcome) in pass.outcomes.iter().enumerate() {
            let ok = matches!(outcome, Ok((200, body)) if *body == want[i]);
            report.check(ok, || match outcome {
                Ok((status, _)) => format!("request {i}: status {status} or a wrong body"),
                Err(why) => format!("request {i}: {why}"),
            });
        }
    }
    report.set_best("server.inproc_p50_us", &inproc_p50);
    report.set(
        "server.http_overhead_us",
        p50_us - report.get("server.inproc_p50_us").unwrap_or(0.0),
    );

    if ctx.trace {
        // Short on purpose: pinned, the loop closes ~13 k connections a
        // second, and each lingers in TIME_WAIT into the next run.
        let secs = if ctx.quick { 0.3 } else { 1.0 };
        report.set("server.closed_loop_rps", closed_loop(addr, ctx.seed, secs));
    }
    server_counters(&server, report);
    server.shutdown();

    paper_queries(ctx, &served, report);
    passes.tracer
}

/// `CONNECTIONS` clients back to back: the saturation probe.
fn closed_loop(addr: SocketAddr, seed: u64, secs: f64) -> f64 {
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..CONNECTIONS {
            let done = &done;
            scope.spawn(move || {
                let mut i = c;
                while start.elapsed().as_secs_f64() < secs {
                    let (area, request) = gen::http_query(gen::derive(seed, 42), i, TIME_EXTENT);
                    if issue(addr, &path_of(&area, &request), &mut Tracer::off(), 0).is_ok() {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    i += CONNECTIONS;
                }
            });
        }
    });
    done.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
}

/// What the server says about itself, read from its own `/metrics`
/// rendering as an operator would.
fn server_counters(server: &Server, report: &mut Report) {
    let metrics = server.metrics();
    let text = metrics.render().to_prometheus();
    let sample = |prefix: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(prefix))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or(0.0)
    };
    let rejected = metrics.admission_rejected();
    let busy = sample("sti_http_responses_total{code=\"503\"}");
    let disconnects = sample("sti_http_disconnects_total");
    report.set("server.admission_rejected", rejected as f64);
    report.set("server.status_503", busy);
    report.set("server.disconnects", disconnects);
    report.check(rejected == 0 && busy == 0.0, || {
        format!("the server refused work: {rejected} admission rejects, {busy} 503s")
    });

    // p50 of the server's own histogram: the upper bound of the first
    // bucket whose cumulative count reaches half the total.
    let count = sample("sti_request_seconds_count");
    let p50 = text
        .lines()
        .filter_map(|l| l.strip_prefix("sti_request_seconds_bucket{le=\""))
        .filter_map(|rest| {
            let (bound, cumulative) = rest.split_once("\"} ")?;
            Some((
                bound.parse::<f64>().ok()?,
                cumulative.trim().parse::<f64>().ok()?,
            ))
        })
        .find(|&(_, cumulative)| cumulative >= (count / 2.0).ceil().max(1.0))
        .map_or(0.0, |(bound, _)| bound * 1e6);
    report.set("server.hist_p50_us", p50);
}

/// The paper's methodology on the served index: the six query sets of
/// Table II, the buffer emptied before every query, exact reads per
/// query. Under `--trace 1` the 3D R*-Tree answers the same queries over
/// the same split records.
fn paper_queries(ctx: &Ctx, served: &Served, report: &mut Report) {
    let queries = gen::table2_sets(ctx.seed, ctx.size(1_000, 50));
    let cold_stats = |index: &mut SpatioTemporalIndex| -> (QueryStats, Vec<Vec<u64>>) {
        let mut sum = QueryStats::new();
        let answers = queries
            .iter()
            .map(|q: &Query| {
                index.reset_for_query();
                let (ids, stats) = index
                    .query_with_stats(&q.area, &q.range)
                    .expect("in-memory query");
                sum.merge(&stats);
                ids
            })
            .collect();
        (sum, answers)
    };
    let mut ppr = SpatioTemporalIndex::open_file(&served.file).expect("reopen index");
    let (stats, answers) = cold_stats(&mut ppr);
    let q = queries.len() as u64;
    report.set("storage.store.reads_per_query", ratio(stats.disk_reads, q));
    report.set("storage.buffer.hits_per_query", ratio(stats.buffer_hits, q));
    report.set(
        "storage.buffer.hit_ratio",
        ratio(stats.buffer_hits, stats.buffer_hits + stats.disk_reads),
    );
    report.set(
        "pprtree.query.nodes_per_query",
        ratio(stats.nodes_visited, q),
    );
    report.set(
        "pprtree.query.entries_per_query",
        ratio(stats.entries_scanned, q),
    );
    report.set(
        "pprtree.query.entries_per_result",
        ratio(stats.entries_scanned, stats.results),
    );
    report.set(
        "pprtree.query.dedup_candidates_per_query",
        ratio(stats.dedup_candidates, q),
    );
    let faults = ppr.fault_stats();
    report.set("storage.io.retries", faults.io_retries as f64);
    report.set(
        "storage.io.checksum_failures",
        faults.checksum_failures as f64,
    );

    // Split records answer exactly: a brute-force scan of the records
    // is the reference for every paper query.
    for (i, (q, got)) in queries.iter().zip(&answers).enumerate() {
        let mut want: Vec<u64> = served
            .records
            .iter()
            .filter(|r| r.stbox.matches(&q.area, &q.range))
            .map(|r| r.id)
            .collect();
        want.sort_unstable();
        want.dedup();
        report.check(*got == want, || {
            format!("paper query {i} disagrees with the brute-force scan")
        });
    }
    let start = Instant::now();
    let tree = ppr.as_ppr().expect("ppr backend");
    let violations = sti_pprtree::check::validate(tree).map_or_else(|v| v.len(), |_| 0);
    report.set("pprtree.check.validate_s", start.elapsed().as_secs_f64());
    report.set("pprtree.check.violations", violations as f64);
    report.check(violations == 0, || {
        format!("{violations} invariant violation(s) in the served tree")
    });

    if ctx.trace {
        let (mut rstar, build_s) = timed(|| {
            SpatioTemporalIndex::build(&served.records, &IndexConfig::paper(IndexBackend::RStar))
                .expect("in-memory build")
        });
        let (rstar_stats, rstar_answers) = cold_stats(&mut rstar);
        report.set("rstar.build_s", build_s);
        report.set("rstar.reads_per_query", ratio(rstar_stats.disk_reads, q));
        report.set(
            "rstar.ppr_io_ratio",
            ratio(rstar_stats.disk_reads, stats.disk_reads),
        );
        report.check(rstar_answers == answers, || {
            "the R*-Tree and the PPR-Tree disagree on a paper query".into()
        });
    }
}
