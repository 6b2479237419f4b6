//! `sti-server` — serve a saved index over HTTP.
//!
//! ```text
//! sti-server --index index.stidx [--addr 127.0.0.1:7070]
//!            [--workers N] [--io-workers N] [--queue DEPTH]
//!            [--read-timeout-ms MS] [--test-delay-ms MS]
//! ```
//!
//! The index is a PPR-Tree saved by `stidx build`, `stidx ingest` or
//! `PprTree::save_to_file`; an R\*-Tree image from an older release is
//! refused at start.
//!
//! Endpoints:
//! - `GET /query?area=x0,y0,x1,y1&time=T[&until=T2]` — result ids, one
//!   per line (the same id lines `stidx query` prints), with per-query
//!   I/O stats in `X-Sti-*` headers.
//! - `GET /healthz` — liveness; stays responsive under query overload.
//! - `GET /metrics` — Prometheus text exposition of the server's
//!   counters, the request-latency histogram, and query I/O aggregates.
//!
//! Backpressure: at most `--queue` queries wait for the `--workers`
//! pool; one more is refused immediately with `503` + `Retry-After: 1`.
//!
//! `--test-delay-ms` inflates every query by a fixed sleep so tests can
//! saturate the admission bound deterministically; it has no production
//! use.

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use sti_server::cli::parse_flags;
use sti_server::{Server, ServerConfig};

const USAGE: &str = "usage:
  sti-server --index FILE [--addr HOST:PORT] [--workers N]
             [--io-workers N] [--queue DEPTH]
             [--read-timeout-ms MS] [--test-delay-ms MS]
             [--shutdown-on-stdin-close] [--drain-ms MS]

  With --shutdown-on-stdin-close the server drains gracefully when its
  stdin reaches end-of-file (close the pipe to stop it): it stops
  accepting, finishes in-flight queries, answers anything still queued
  after --drain-ms (default 5000) with 503, and exits 0.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let _ = writeln!(std::io::stderr(), "sti-server: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "index",
            "addr",
            "workers",
            "io-workers",
            "queue",
            "read-timeout-ms",
            "test-delay-ms",
            "drain-ms",
        ],
        &["shutdown-on-stdin-close"],
    )?;
    let index_path = std::path::PathBuf::from(flags.need("index")?);
    let mut config = ServerConfig {
        addr: flags.get("addr").unwrap_or("127.0.0.1:7070").to_string(),
        ..ServerConfig::default()
    };
    if let Some(n) = flags.parsed("workers")? {
        config.query_workers = n;
    }
    if let Some(n) = flags.parsed("io-workers")? {
        config.io_workers = n;
    }
    if let Some(n) = flags.parsed("queue")? {
        config.queue_depth = n;
    }
    if let Some(ms) = flags.parsed::<u64>("read-timeout-ms")? {
        // A zero timeout would leave a stalled client holding a worker.
        if ms == 0 {
            return Err("--read-timeout-ms must be at least 1".to_string());
        }
        config.read_timeout = Duration::from_millis(ms);
        config.write_timeout = Duration::from_millis(ms);
    }
    if let Some(ms) = flags.parsed::<u64>("test-delay-ms")? {
        config.test_delay = Duration::from_millis(ms);
    }

    let index = sti_core::SpatioTemporalIndex::open_file(&index_path)
        .map_err(|e| format!("opening {}: {e}", index_path.display()))?;
    let server =
        Server::start(Arc::new(index), config).map_err(|e| format!("starting the server: {e}"))?;
    println!(
        "sti-server: serving {} ({} backend, {} records, {} pages) on http://{}",
        index_path.display(),
        server.metrics().backend_name(),
        server.metrics().index_records(),
        server.metrics().index_pages(),
        server.addr()
    );
    if flags.has("shutdown-on-stdin-close") {
        let drain = Duration::from_millis(flags.parsed::<u64>("drain-ms")?.unwrap_or(5000));
        // Block on stdin until the other end closes it — the graceful
        // stop signal available without any OS signal machinery. An
        // operator (or CI script) holds a pipe open for the server's
        // lifetime and closes it to stop.
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin().lock(), &mut sink);
        println!("sti-server: stdin closed; draining (deadline {drain:?})");
        server.shutdown_within(drain);
        println!("sti-server: drained, exiting");
        return Ok(());
    }
    // Serve until the process is killed (CI and operators send SIGTERM).
    server.join();
    Ok(())
}
