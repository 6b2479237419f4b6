//! Where a query runs, and what admission lets through.
//!
//! An io worker answers a `/query` itself when no other query is queued
//! or running, and hands it to the bounded query queue otherwise. These
//! cases pin both sides of that rule and the bound behind it, and they
//! synchronise on the server's own counters and gauges (`inflight`,
//! `handoffs`, `queue_waits`), never on a sleep: a step waits until the
//! server says the previous one happened.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sti_core::{IndexBackend, IndexConfig, SpatioTemporalIndex};
use sti_geom::{Point2, Rect2, TimeInterval};
use sti_server::{Server, ServerConfig, ServerMetrics, MAX_QUEUE_DEPTH, MAX_WORKERS};
use sti_trajectory::RasterizedObject;

/// A small deterministic index (same shape as the socket suite's).
fn build_index() -> Arc<SpatioTemporalIndex> {
    let objects: Vec<RasterizedObject> = (0..40u64)
        .map(|id| {
            let start = ((id * 17) % 600) as u32;
            let rects = (0..30)
                .map(|i| {
                    let x = 0.05 + 0.85 * ((id as f64 / 40.0) + 0.01 * f64::from(i)).fract();
                    Rect2::centered(Point2::new(x, 0.5), 0.03, 0.03)
                })
                .collect();
            RasterizedObject::new(id, start, rects)
        })
        .collect();
    let records = sti_core::unsplit_records(&objects);
    Arc::new(
        SpatioTemporalIndex::build(&records, &IndexConfig::paper(IndexBackend::PprTree)).unwrap(),
    )
}

fn config(io_workers: usize, query_workers: usize, queue_depth: usize) -> ServerConfig {
    ServerConfig {
        io_workers,
        query_workers,
        queue_depth,
        ..ServerConfig::default()
    }
}

const QUERY: &str = "/query?area=0,0,1,1&time=100";

/// One request on a fresh connection; the whole response as text.
fn get(addr: SocketAddr, target: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn spawn_get(addr: SocketAddr, target: &'static str) -> JoinHandle<String> {
    std::thread::spawn(move || get(addr, target))
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

fn body_of(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, b)| b)
}

/// Poll one of the server's counters until it reads `want`.
fn wait_for(metrics: &ServerMetrics, what: &str, read: fn(&ServerMetrics) -> u64, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while read(metrics) != want {
        assert!(
            Instant::now() < deadline,
            "{what} stuck at {} (wanted {want})",
            read(metrics)
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The in-process answer for a `/query` snapshot, rendered as the body
/// the server sends.
fn expected_body(index: &SpatioTemporalIndex, area: Rect2, time: u32) -> String {
    let ids = index
        .query(&area, &TimeInterval::new(time, time + 1))
        .unwrap();
    ids.iter().map(|id| format!("{id}\n")).collect()
}

#[test]
fn sequential_queries_run_inline_and_answer_like_the_executor() {
    let index = build_index();
    let server = Server::start(Arc::clone(&index), config(2, 2, 8)).unwrap();
    let metrics = server.metrics();
    let mut nonempty = 0;
    for i in 0..24u32 {
        let x0 = f64::from(i % 8) * 0.1;
        let time = (i * 37) % 600;
        let response = get(
            server.addr(),
            &format!("/query?area={x0},0.3,{},0.7&time={time}", x0 + 0.25),
        );
        assert_eq!(status_of(&response), 200, "{response:?}");
        let want = expected_body(&index, Rect2::from_bounds(x0, 0.3, x0 + 0.25, 0.7), time);
        assert_eq!(body_of(&response), want, "query {i}");
        nonempty += usize::from(!want.is_empty());
    }
    assert!(nonempty > 4, "the probes must hit something");
    // Each client read its answer to EOF before asking again, so no
    // query ever found another in flight.
    assert_eq!(metrics.handoffs(), 0);
    assert_eq!(metrics.queue_waits(), 0);
    assert_eq!(metrics.queries_answered(), 24);
    server.shutdown();
}

#[test]
fn an_overlapping_query_is_handed_off_and_control_stays_responsive() {
    let server = Server::start(
        build_index(),
        ServerConfig {
            test_delay: Duration::from_millis(300),
            ..config(2, 2, 8)
        },
    )
    .unwrap();
    let metrics = server.metrics();
    let addr = server.addr();

    let inline = spawn_get(addr, QUERY);
    wait_for(&metrics, "inflight", ServerMetrics::inflight, 1);
    let handed_off = spawn_get(addr, QUERY);
    wait_for(&metrics, "handoffs", ServerMetrics::handoffs, 1);

    // One io worker sleeps in the inline query; the other answers.
    for target in ["/healthz", "/metrics"] {
        let begun = Instant::now();
        let response = get(addr, target);
        let took = begun.elapsed();
        assert_eq!(status_of(&response), 200, "{target}: {response:?}");
        assert!(
            took < Duration::from_millis(75),
            "{target} took {took:?} behind a running query"
        );
        if target == "/metrics" {
            assert!(
                body_of(&response).contains("\nsti_query_handoffs_total 1\n"),
                "{response}"
            );
        }
    }

    let answers = [inline.join().unwrap(), handed_off.join().unwrap()];
    assert_eq!(body_of(&answers[0]), body_of(&answers[1]));
    for answer in &answers {
        assert_eq!(status_of(answer), 200, "{answer:?}");
    }
    assert_eq!(metrics.handoffs(), 1, "exactly the overlapping query");
    assert_eq!(metrics.queue_waits(), 1);
    let text = metrics.render().to_prometheus();
    assert!(
        text.contains("\nsti_query_queue_wait_seconds_count 1\n"),
        "{text}"
    );
    server.shutdown();
}

#[test]
fn the_admission_bound_is_exact() {
    // One query runs inline, one on the single query worker, one waits
    // in the one-slot queue; the fourth is refused.
    let server = Server::start(
        build_index(),
        ServerConfig {
            test_delay: Duration::from_millis(400),
            ..config(2, 1, 1)
        },
    )
    .unwrap();
    let metrics = server.metrics();
    let addr = server.addr();

    let first = spawn_get(addr, QUERY);
    wait_for(&metrics, "inflight", ServerMetrics::inflight, 1);
    let second = spawn_get(addr, QUERY);
    wait_for(&metrics, "queue waits", ServerMetrics::queue_waits, 1);
    let third = spawn_get(addr, QUERY);
    wait_for(&metrics, "handoffs", ServerMetrics::handoffs, 2);

    let refused = get(addr, QUERY);
    assert_eq!(status_of(&refused), 503, "{refused:?}");
    assert!(refused.contains("Retry-After: 1\r\n"), "{refused:?}");
    assert_eq!(metrics.admission_rejected(), 1);

    for (n, client) in [first, second, third].into_iter().enumerate() {
        let response = client.join().unwrap();
        assert_eq!(status_of(&response), 200, "client {}: {response:?}", n + 1);
    }
    assert_eq!(metrics.handoffs(), 2);
    assert_eq!(metrics.queue_waits(), 2);
    assert_eq!(metrics.inflight(), 0);
    server.shutdown();
}

#[test]
fn shutdown_joins_while_an_io_worker_runs_a_query() {
    let server = Server::start(
        build_index(),
        ServerConfig {
            test_delay: Duration::from_millis(200),
            ..config(8, 2, 8)
        },
    )
    .unwrap();
    let metrics = server.metrics();
    let addr = server.addr();

    let running = spawn_get(addr, QUERY);
    wait_for(&metrics, "inflight", ServerMetrics::inflight, 1);
    server.shutdown();

    // The inline query finished and answered before its worker left.
    let response = running.join().unwrap();
    assert_eq!(status_of(&response), 200, "{response:?}");
    assert_eq!(metrics.handoffs(), 0);
    assert_eq!(metrics.inflight(), 0);
    // Every io worker is gone and with them the listener.
    assert!(
        TcpStream::connect(addr).is_err(),
        "the port still accepts after shutdown"
    );
}

#[test]
fn zero_timeouts_are_refused_at_start() {
    let index = build_index();
    for config in [
        ServerConfig {
            read_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
        ServerConfig {
            write_timeout: Duration::ZERO,
            ..ServerConfig::default()
        },
    ] {
        match Server::start(Arc::clone(&index), config) {
            Ok(server) => {
                server.shutdown();
                panic!("a zero timeout was accepted");
            }
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        }
    }
}

/// A pool or queue one past its bound is refused before anything binds
/// or spawns (one past, so a missing check starts only a few threads).
#[test]
fn oversized_pools_and_queues_are_refused_at_start() {
    let index = build_index();
    for config in [
        config(MAX_WORKERS + 1, 2, 64),
        config(2, MAX_WORKERS + 1, 64),
        config(2, 2, MAX_QUEUE_DEPTH + 1),
    ] {
        match Server::start(Arc::clone(&index), config) {
            Ok(server) => {
                server.shutdown();
                panic!("an oversized pool or queue was accepted");
            }
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        }
    }
}

#[test]
fn cli_refuses_oversized_pools_and_queues() {
    let path = std::env::temp_dir().join(format!("sti-server-sizes-{}.idx", std::process::id()));
    build_index().as_ppr().unwrap().save_to_file(&path).unwrap();
    let workers = (MAX_WORKERS + 1).to_string();
    let queue = (MAX_QUEUE_DEPTH + 1).to_string();
    for (flag, value) in [
        ("--workers", &workers),
        ("--io-workers", &workers),
        ("--queue", &queue),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_sti-server"))
            .arg("--index")
            .arg(&path)
            // Were the value accepted, the closed stdin stops the server.
            .args(["--addr", "127.0.0.1:0", "--shutdown-on-stdin-close"])
            .args([flag, value.as_str()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("at most"), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cli_refuses_a_zero_read_timeout() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sti-server"))
        .args(["--index", "no-such.idx", "--read-timeout-ms", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--read-timeout-ms must be at least 1"),
        "{stderr}"
    );
}

/// An R\*-Tree image written by an older release — a PPR image whose
/// backend tag says `R`, under a re-stamped metadata checksum — is
/// refused at start, with the reason.
#[test]
fn cli_refuses_an_rstar_image() {
    const META: usize = 28 + 8; // the file header and its checksum
    let path = std::env::temp_dir().join(format!("sti-server-rstar-{}.idx", std::process::id()));
    let index = build_index();
    index.as_ppr().unwrap().save_to_file(&path).unwrap();
    let mut image = std::fs::read(&path).unwrap();
    let len = u32::from_le_bytes(image[16..20].try_into().unwrap()) as usize;
    image[META] = b'R';
    let sum = sti_storage::xxh64(&image[META..META + len]);
    image[META + len..META + len + 8].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, image).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_sti-server"))
        .arg("--index")
        .arg(&path)
        // Were the image accepted, the closed stdin stops the server.
        .args(["--addr", "127.0.0.1:0", "--shutdown-on-stdin-close"])
        .output()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(
        stderr.contains("R*-Tree images are no longer supported"),
        "{stderr}"
    );
}
