//! `sti-load` — open-loop load generator for `sti-server`.
//!
//! ```text
//! sti-load --addr 127.0.0.1:7070 [--rate 200] [--requests 1000]
//!          [--concurrency 4] [--seed 1] [--time-extent 1000]
//!          [--json FILE] [--allow-errors]
//! ```
//!
//! Open-loop means arrivals are *scheduled*, not reactive: request `i`
//! is due at `i / rate` seconds after start, and its latency is
//! measured from that scheduled instant — so when the server slows
//! down, the generator does not slow down with it, and queueing delay
//! lands in the tail instead of being coordinated away (the classic
//! closed-loop measurement bug).
//!
//! The workload is a seeded stream of snapshot and interval queries
//! over the unit square. `--json` writes the run in the `sti-bench/1`
//! report shape (`p50_secs`/`p95_secs`/`p99_secs` latency profile), so
//! `scripts/check_regression.py` can gate it against a committed
//! baseline.
//!
//! Exits non-zero when any request failed (transport error or non-200),
//! unless `--allow-errors` is given (saturation tests expect 503s).

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use sti_obs::{JsonValue, LatencyHistogram};
use sti_server::cli::parse_flags;

const USAGE: &str = "usage:
  sti-load --addr HOST:PORT [--rate R] [--requests N] [--concurrency C]
           [--seed S] [--time-extent T] [--json FILE] [--allow-errors]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            let _ = writeln!(std::io::stderr(), "sti-load: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// What one issued request came back with.
enum Outcome {
    Status(u16),
    Transport(String),
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(
        args,
        &[
            "addr",
            "rate",
            "requests",
            "concurrency",
            "seed",
            "time-extent",
            "json",
        ],
        &["allow-errors"],
    )?;
    let addr = flags.need("addr")?.to_string();
    let rate: f64 = flags.parsed("rate")?.unwrap_or(200.0);
    let requests: usize = flags.parsed("requests")?.unwrap_or(1000);
    let concurrency: usize = flags.parsed("concurrency")?.unwrap_or(4).max(1);
    let seed: u64 = flags.parsed("seed")?.unwrap_or(1);
    let time_extent: u32 = flags.parsed("time-extent")?.unwrap_or(1000);
    if !(rate.is_finite() && rate > 0.0) {
        return Err("--rate must be a positive number".into());
    }
    if requests == 0 {
        return Err("--requests must be at least 1".into());
    }

    let histogram = LatencyHistogram::new();
    let statuses: Mutex<BTreeMap<u16, u64>> = Mutex::new(BTreeMap::new());
    let transport_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);

    // Schedule the first arrival slightly in the future so thread
    // spawn time cannot create an artificial initial backlog.
    let start = Instant::now() + Duration::from_millis(50);
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests {
                    break;
                }
                let (area, time, until) = synth_query(seed, i, time_extent);
                let path = format!("/query?area={area}&time={time}&until={until}");
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let outcome = issue(&addr, &path);
                // Latency from the *scheduled* arrival: queueing delay
                // caused by a slow server belongs in the measurement.
                histogram.observe(due.elapsed());
                match outcome {
                    Outcome::Status(code) => {
                        *statuses.lock().unwrap().entry(code).or_insert(0) += 1;
                    }
                    Outcome::Transport(why) => {
                        let mut errs = transport_errors.lock().unwrap();
                        if errs.len() < 16 {
                            errs.push(why);
                        } else {
                            errs.push(String::new()); // count only
                        }
                    }
                }
            });
        }
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let statuses = statuses.into_inner().unwrap();
    let transport = transport_errors.into_inner().unwrap();
    let ok = statuses.get(&200).copied().unwrap_or(0);
    let errors = requests as u64 - ok;
    let p50 = histogram.quantile(0.50);
    let p95 = histogram.quantile(0.95);
    let p99 = histogram.quantile(0.99);

    println!("sti-load: {requests} requests at {rate}/s, {concurrency} connections");
    println!(
        "  p50 {:.3} ms   p95 {:.3} ms   p99 {:.3} ms   wall {wall_secs:.2} s",
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3
    );
    for (code, count) in &statuses {
        println!("  HTTP {code}: {count}");
    }
    if !transport.is_empty() {
        println!("  transport errors: {}", transport.len());
        for why in transport.iter().filter(|w| !w.is_empty()).take(4) {
            println!("    {why}");
        }
    }

    if let Some(json_path) = flags.get("json") {
        let report = render_report(
            requests,
            rate,
            concurrency,
            wall_secs,
            errors,
            p50,
            p95,
            p99,
            &statuses,
        );
        std::fs::write(json_path, report).map_err(|e| format!("writing {json_path}: {e}"))?;
    }

    if errors > 0 && !flags.has("allow-errors") {
        return Err(format!(
            "{errors} of {requests} requests failed (non-200 or transport error)"
        ));
    }
    Ok(())
}

/// Deterministic query for request `i`: mostly snapshots, every fourth
/// an interval, windows sized like the paper's query mix.
fn synth_query(seed: u64, i: usize, time_extent: u32) -> (String, u32, u32) {
    let mut s = splitmix(seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let x0 = 0.85 * next_unit(&mut s);
    let y0 = 0.85 * next_unit(&mut s);
    let x1 = (x0 + 0.05 + 0.10 * next_unit(&mut s)).min(1.0);
    let y1 = (y0 + 0.05 + 0.10 * next_unit(&mut s)).min(1.0);
    let horizon = time_extent.max(2);
    let time = (next_unit(&mut s) * f64::from(horizon - 1)) as u32;
    let until = if i.is_multiple_of(4) {
        (time + 2 + (next_unit(&mut s) * 20.0) as u32).min(horizon)
    } else {
        time + 1
    };
    let until = until.max(time + 1);
    (format!("{x0:.4},{y0:.4},{x1:.4},{y1:.4}"), time, until)
}

/// splitmix64 step.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Advance the state and map to [0, 1).
fn next_unit(state: &mut u64) -> f64 {
    *state = splitmix(*state);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Issue one request on a fresh connection; return the status or the
/// transport failure.
fn issue(addr: &str, path: &str) -> Outcome {
    match issue_inner(addr, path) {
        Ok(status) => Outcome::Status(status),
        Err(why) => Outcome::Transport(why),
    }
}

fn issue_inner(addr: &str, path: &str) -> Result<u16, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("timeout: {e}"))?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: sti\r\nConnection: close\r\n\r\n");
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    text.split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            format!(
                "unparseable response: {:?}",
                text.chars().take(40).collect::<String>()
            )
        })
}

/// The `sti-bench/1` report shape `scripts/check_regression.py` gates.
#[allow(clippy::too_many_arguments)]
fn render_report(
    requests: usize,
    rate: f64,
    concurrency: usize,
    wall_secs: f64,
    errors: u64,
    p50: f64,
    p95: f64,
    p99: f64,
    statuses: &BTreeMap<u16, u64>,
) -> String {
    let row = vec![
        JsonValue::str("http"),
        JsonValue::str(requests.to_string()),
        JsonValue::str(errors.to_string()),
        JsonValue::str(format!("{:.3}", p50 * 1e3)),
        JsonValue::str(format!("{:.3}", p95 * 1e3)),
        JsonValue::str(format!("{:.3}", p99 * 1e3)),
    ];
    let profile = JsonValue::object([
        ("row", JsonValue::str("load")),
        ("series", JsonValue::str("http")),
        ("queries", JsonValue::UInt(requests as u64)),
        ("errors", JsonValue::UInt(errors)),
        ("wall_secs", JsonValue::Num(wall_secs)),
        ("p50_secs", JsonValue::Num(p50)),
        ("p95_secs", JsonValue::Num(p95)),
        ("p99_secs", JsonValue::Num(p99)),
    ]);
    let table = JsonValue::object([
        ("title", JsonValue::str("Open-loop load")),
        (
            "headers",
            JsonValue::array([
                JsonValue::str("series"),
                JsonValue::str("queries"),
                JsonValue::str("errors"),
                JsonValue::str("p50 (ms)"),
                JsonValue::str("p95 (ms)"),
                JsonValue::str("p99 (ms)"),
            ]),
        ),
        ("rows", JsonValue::array([JsonValue::Arr(row)])),
        ("profiles", JsonValue::array([profile])),
    ]);
    let mut scale = JsonValue::object([
        ("requests", JsonValue::UInt(requests as u64)),
        ("rate", JsonValue::Num(rate)),
        ("concurrency", JsonValue::UInt(concurrency as u64)),
    ]);
    let http = JsonValue::Obj(
        statuses
            .iter()
            .map(|(code, count)| (code.to_string(), JsonValue::UInt(*count)))
            .collect(),
    );
    let mut root = JsonValue::object([
        ("schema", JsonValue::str("sti-bench/1")),
        ("bench", JsonValue::str("load")),
    ]);
    root.push_field("scale", std::mem::replace(&mut scale, JsonValue::Null));
    root.push_field("wall_secs", JsonValue::Num(wall_secs));
    root.push_field("http", http);
    root.push_field("tables", JsonValue::array([table]));
    root.render_pretty()
}
