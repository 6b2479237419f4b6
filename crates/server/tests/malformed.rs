//! Socket-level hostile-client suite: split and partial writes,
//! oversized request lines and header blocks, unknown methods and
//! paths, bad query grammar, slowloris timeouts, and clients that
//! vanish before (or while) the server answers.
//!
//! Every case must map to a *typed* 4xx/5xx (or a counted disconnect),
//! never a panic, and the worker pools must come out the other side
//! intact: `inflight` drains back to zero and the same server keeps
//! answering queries and health checks afterwards.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sti_core::{IndexBackend, IndexConfig, SpatioTemporalIndex};
use sti_geom::{Point2, Rect2};
use sti_server::{Server, ServerConfig};
use sti_trajectory::RasterizedObject;

/// A small deterministic index (same shape as the executor tests).
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

fn start_server(config: ServerConfig) -> Server {
    Server::start(build_index(), config).unwrap()
}

fn small_config() -> ServerConfig {
    ServerConfig {
        query_workers: 2,
        io_workers: 2,
        queue_depth: 8,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    }
}

/// Write raw bytes, then read the whole response as text. The write is
/// best-effort: a server refusing mid-request closes the connection,
/// and the refusal (not a clean write) is what the test is after.
fn send_raw(server: &Server, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    read_response(&mut stream)
}

/// Drain the stream to EOF, treating a post-response reset as EOF.
fn read_response(stream: &mut TcpStream) -> String {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&buf).into_owned()
}

fn send_line(server: &Server, request_line: &str) -> String {
    send_raw(
        server,
        format!("{request_line}\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

fn body_of(response: &str) -> &str {
    response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or("")
}

/// Block until `inflight` drains to zero (bounded wait).
fn wait_for_drain(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.metrics().inflight() > 0 {
        assert!(Instant::now() < deadline, "inflight never drained to zero");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The pool must still answer health checks and real queries — the
/// "no worker leaked" check every hostile case ends with.
fn assert_pool_alive(server: &Server) {
    wait_for_drain(server);
    let health = send_line(server, "GET /healthz HTTP/1.1");
    assert_eq!(status_of(&health), 200, "{health:?}");
    // More queries than workers, so a single dead worker would show up
    // as a hang or a missing response.
    for _ in 0..6 {
        let resp = send_line(server, "GET /query?area=0,0,1,1&time=100 HTTP/1.1");
        assert_eq!(status_of(&resp), 200, "{resp:?}");
    }
    wait_for_drain(server);
}

#[test]
fn split_writes_parse_like_one_write() {
    let server = start_server(small_config());
    let whole = send_line(&server, "GET /query?area=0,0,1,1&time=100 HTTP/1.1");

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    for fragment in [
        "GET /query?area=0,0",
        ",1,1&time=100 HT",
        "TP/1.1\r\nHost: t\r\n",
        "Connection: close\r\n\r\n",
    ] {
        stream.write_all(fragment.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    let mut split = String::new();
    stream.read_to_string(&mut split).unwrap();

    assert_eq!(status_of(&split), 200, "{split:?}");
    assert_eq!(body_of(&split), body_of(&whole));
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_request_line_is_414() {
    let server = start_server(small_config());
    // Never finish the line: the server must diagnose the overrun from
    // the partial head, and the client must hear 414 rather than a
    // reset (no bytes are written after the server closes).
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let partial = format!("GET /query?area={}", "9,".repeat(3000));
    stream.write_all(partial.as_bytes()).unwrap();
    stream.flush().unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(status_of(&resp), 414, "{resp:?}");
    assert!(body_of(&resp).contains("request line over"), "{resp:?}");
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_header_block_is_431() {
    let server = start_server(small_config());
    // Push the head past the cap without ever sending the terminating
    // blank line, so no client write races the server's close.
    let mut req = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..300 {
        req.push_str(&format!("X-Padding-{i}: {}\r\n", "y".repeat(64)));
    }
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(req.as_bytes()).unwrap();
    stream.flush().unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(status_of(&resp), 431, "{resp:?}");
    assert!(body_of(&resp).contains("request head over"), "{resp:?}");
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn non_get_methods_are_405_with_allow() {
    let server = start_server(small_config());
    for method in ["POST", "PUT", "DELETE", "BREW"] {
        let resp = send_line(&server, &format!("{method} /query HTTP/1.1"));
        assert_eq!(status_of(&resp), 405, "{method}: {resp:?}");
        assert!(resp.contains("Allow: GET\r\n"), "{method}: {resp:?}");
    }
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn unknown_paths_are_404() {
    let server = start_server(small_config());
    for target in ["/", "/queryy", "/metrics/extra", "/favicon.ico"] {
        let resp = send_line(&server, &format!("GET {target} HTTP/1.1"));
        assert_eq!(status_of(&resp), 404, "{target}: {resp:?}");
    }
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn malformed_request_lines_are_400() {
    let server = start_server(small_config());
    for line in [
        "GET /healthz",               // missing version
        "GET /healthz HTTP/1.1 junk", // trailing token
        "GET /healthz FTP/1.0",       // wrong protocol
        "GET healthz HTTP/1.1",       // target without leading slash
        "one-single-token",
    ] {
        let resp = send_line(&server, line);
        assert_eq!(status_of(&resp), 400, "{line}: {resp:?}");
        assert!(body_of(&resp).contains("bad request"), "{line}: {resp:?}");
    }
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn bad_query_grammar_is_400() {
    let server = start_server(small_config());
    for (target, needle) in [
        ("/query", "missing parameter area"),
        ("/query?area=0,0,1,1", "missing parameter time"),
        ("/query?area=0,0,1,1&time=5&until=5", "until must be after"),
        ("/query?area=nope&time=5", "bad coordinate"),
        ("/query?area=0,0,1,1&time=5&extra=1", "unknown parameter"),
        (
            "/query?area=0,0,1,1&area=0,0,1,1&time=5",
            "duplicate parameter",
        ),
    ] {
        let resp = send_line(&server, &format!("GET {target} HTTP/1.1"));
        assert_eq!(status_of(&resp), 400, "{target}: {resp:?}");
        assert!(body_of(&resp).contains(needle), "{target}: {resp:?}");
    }
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn half_request_then_disconnect_is_counted_not_fatal() {
    let server = start_server(small_config());
    let before = disconnects(&server);
    for _ in 0..4 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /query?area=0,0").unwrap();
        drop(stream); // vanish mid-request-line
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while disconnects(&server) < before + 4 {
        assert!(
            Instant::now() < deadline,
            "disconnects stuck at {} (wanted {})",
            disconnects(&server),
            before + 4
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn empty_connection_is_a_quiet_disconnect() {
    let server = start_server(small_config());
    let before = disconnects(&server);
    drop(TcpStream::connect(server.addr()).unwrap()); // connect, say nothing, leave
    let deadline = Instant::now() + Duration::from_secs(5);
    while disconnects(&server) < before + 1 {
        assert!(Instant::now() < deadline, "empty connection never counted");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn slowloris_mid_head_times_out_as_408() {
    let server = start_server(ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..small_config()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"GET /healthz HTT").unwrap(); // ...and stall
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert_eq!(status_of(&resp), 408, "{resp:?}");
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn trickled_head_times_out_as_408_on_the_whole_head() {
    // Every byte arrives well inside the read timeout, so only a
    // deadline on the whole head can end this before the trickle does.
    let server = start_server(ServerConfig {
        read_timeout: Duration::from_millis(150),
        ..small_config()
    });
    let head = format!("GET /healthz HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(40));
    let trickle = Duration::from_millis(50) * head.len() as u32;
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let started = Instant::now();
    let trickler = std::thread::spawn(move || {
        for byte in head.bytes() {
            if writer.write_all(&[byte]).is_err() {
                return; // refused: the server closed the connection
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let resp = read_response(&mut stream);
    let took = started.elapsed();
    assert_eq!(status_of(&resp), 408, "{resp:?}");
    assert!(
        took < trickle / 2,
        "408 after {took:?}; the trickle takes {trickle:?}"
    );
    drop(stream);
    trickler.join().unwrap();
    assert_pool_alive(&server);
    server.shutdown();
}

#[test]
fn client_gone_before_response_does_not_leak_a_worker() {
    // Delay each query so the client is guaranteed to be gone before
    // the worker tries to answer.
    let server = start_server(ServerConfig {
        test_delay: Duration::from_millis(80),
        ..small_config()
    });
    for _ in 0..4 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"GET /query?area=0,0,1,1&time=100 HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        drop(stream); // gone while the query is still queued/running
    }
    // The workers must absorb the failed writes (counted as either a
    // late success or a disconnect — the race is the client's), drain
    // inflight back to zero, and keep serving.
    assert_pool_alive(&server);
    assert_eq!(server.metrics().inflight(), 0);
    server.shutdown();
}

#[test]
fn shutdown_joins_cleanly_after_hostile_traffic() {
    let server = start_server(small_config());
    let _ = send_line(&server, "GET /query?area=0,0,1,1&time=100 HTTP/1.1");
    let _ = send_line(&server, "BREW / HTTP/1.1");
    let mut half = TcpStream::connect(server.addr()).unwrap();
    half.write_all(b"GET /he").unwrap();
    drop(half);
    wait_for_drain(&server);
    server.shutdown(); // joins the io pool and the query pool
}

fn disconnects(server: &Server) -> u64 {
    let text = server.metrics().render().to_prometheus();
    text.lines()
        .find_map(|l| l.strip_prefix("sti_http_disconnects_total "))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .map(|v| v as u64)
        .unwrap_or(0)
}

/// Graceful shutdown under load: with a slow query pool saturated by
/// concurrent clients, `shutdown_within` must (1) stop accepting,
/// (2) finish what is in flight, (3) answer — not execute — stragglers
/// queued past the drain deadline with 503, and (4) join every thread,
/// leaving no admitted request unanswered and inflight at zero.
#[test]
fn shutdown_under_load_drains_with_deadline_and_503s_stragglers() {
    let server = start_server(ServerConfig {
        query_workers: 1,
        io_workers: 2,
        queue_depth: 16,
        test_delay: Duration::from_millis(40),
        ..small_config()
    });
    let metrics = server.metrics();
    let addr = server.addr();

    // Saturate: one worker at 40ms/query, 12 concurrent clients.
    let clients: Vec<_> = (0..12)
        .map(|_| {
            std::thread::spawn(move || {
                let Ok(mut stream) = TcpStream::connect(addr) else {
                    return String::new();
                };
                let _ = stream
                    .write_all(b"GET /query?area=0,0,1,1&time=100 HTTP/1.1\r\nHost: t\r\n\r\n");
                let _ = stream.flush();
                read_response(&mut stream)
            })
        })
        .collect();

    // Let the first queries land (some finish, the rest queue up), then
    // shut down with a deadline shorter than the remaining backlog.
    std::thread::sleep(Duration::from_millis(100));
    let begun = Instant::now();
    server.shutdown_within(Duration::from_millis(20));
    let drained_in = begun.elapsed();

    let responses: Vec<String> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let oks = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 200"))
        .count();
    let refused = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 503"))
        .count();
    let malformed = responses
        .iter()
        .filter(|r| {
            !r.is_empty() && !r.starts_with("HTTP/1.1 200") && !r.starts_with("HTTP/1.1 503")
        })
        .count();
    assert_eq!(malformed, 0, "only 200 or 503 may come back: {responses:?}");
    assert!(oks > 0, "queries before the deadline must succeed");
    assert!(
        refused > 0,
        "the saturated backlog must be shed with 503s (got {oks} oks)"
    );
    // The deadline turned the backlog into O(queue) response writes: a
    // full execution drain would need ~11 * 40ms of single-worker time.
    assert!(
        drained_in < Duration::from_millis(400),
        "drain took {drained_in:?}, deadline was ignored"
    );
    assert_eq!(metrics.inflight(), 0, "every admitted request answered");

    // The listener is gone: new clients are refused outright (or get an
    // immediate EOF if the OS raced the close), never silently queued.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
            assert_eq!(
                read_response(&mut stream),
                "",
                "server answered after shutdown"
            );
        }
    }
}
