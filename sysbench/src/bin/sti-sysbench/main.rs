//! `sti-sysbench`: one seeded harness, four workloads, named end-to-end
//! and per-layer metrics for query, ingest and serve.
//!
//! ```text
//! sti-sysbench --workload query_cold|query_hot|ingest_durable|serve_http
//!              [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! `sti-sysbench --list` prints the metric registry (kind, name, unit,
//! direction, what it should move) and runs nothing.
//!
//! Inputs come from `--seed` alone; the public APIs of `sti-core`,
//! `sti-pprtree`, `sti-storage` and `sti-server` are driven from this one
//! process with at most `nproc` load threads; every answer is checked.
//! The run prints every metric it measured by name and unit, writes
//! `out/result_<workload>.json` (and `out/trace_<workload>.json` under
//! `--trace 1`), and ends with one JSON line: the end-to-end metrics of
//! an untraced run, or the per-layer metrics of a traced one. A wrong
//! answer, a refused or failed operation, or a violated invariant makes
//! the exit code non-zero.

mod gen;
mod host;
mod ingest;
mod metrics;
mod query;
mod run;
mod serve;
mod stats;
mod trace;

use metrics::{Better, MetricDef, Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use sti_obs::JsonValue;

/// The workloads, with why each exists (repeated in `BENCHMARK.json`).
pub const WORKLOADS: [&str; 4] = ["query_cold", "query_hot", "ingest_durable", "serve_http"];

const USAGE: &str =
    "usage: sti-sysbench --workload query_cold|query_hot|ingest_durable|serve_http \
[--seed N] [--seconds S] [--trace 0|1] [--quick]
       sti-sysbench --list";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?.to_string(),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", out.workload));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw == ["--list"] {
        for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for def in defs {
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                println!("{kind}\t{}\t{}\t{better}\t{}", def.name, def.unit, def.note);
            }
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("sti-sysbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match host::Scratch::create(&args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sti-sysbench: scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Count the CPUs before giving all but one of them up.
    host::nproc();
    let ctx = run::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        scratch,
        cpus: host::pin_to_one_cpu(),
    };
    let pinned = ctx.cpus.map(|(cpu, _)| cpu);
    let mut report = Report::default();
    let tracer = match args.workload.as_str() {
        "query_cold" => query::run(&ctx, false, &mut report),
        "query_hot" => query::run(&ctx, true, &mut report),
        "ingest_durable" => ingest::run(&ctx, &mut report),
        _ => serve::run(&ctx, &mut report),
    };
    // The scratch directory goes before anything is printed, so a run
    // that printed a result has already cleaned up.
    drop(ctx);

    if args.trace {
        let path = host::out_dir().join(format!("trace_{}.json", args.workload));
        match tracer.write(&path, &args.workload, args.seed) {
            Ok(spans) => report.set("bench.trace_spans", spans as f64),
            Err(why) => report.check(false, || format!("trace: {why}")),
        }
    }
    finish(&args, pinned, &report)
}

/// Print the report, write the result file, print the contract line.
fn finish(args: &Args, pinned: Option<usize>, report: &Report) -> ExitCode {
    let declared: &[MetricDef] = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "sti-sysbench {}  seed={} seconds={} trace={} quick={}  [{}; nproc={}; {}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick,
        host::HOST_LABEL,
        host::nproc(),
        pinned.map_or_else(
            || "not pinned".to_string(),
            |cpu| format!("pinned to cpu {cpu}")
        ),
    );
    for (title, defs) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        println!("--- {title} ---");
        for def in defs {
            let Some(value) = report.get(def.name) else {
                continue;
            };
            let note = report
                .note(def.name)
                .map_or_else(String::new, |n| format!("  ({n})"));
            println!("{:<44} {:>16.4} {}{note}", def.name, value, def.unit);
        }
    }
    if let (Some(exact), Some(bucketed)) =
        (report.get("op_p50_us"), report.get("server.hist_p50_us"))
    {
        println!(
            "http p50: {exact:.1} us exact (raw samples, client side, from the due instant); \
             {bucketed:.1} us in the server's own admission-to-written histogram, whose buckets \
             step by 19 % -- a one-bucket move there is the grid, not drift"
        );
    }
    println!(
        "ops attempted {}  failed {}",
        report.attempted, report.failed
    );
    for why in &report.failures {
        println!("FAILED: {why}");
    }

    // An end-to-end metric that was not measured is a benchmark bug; a
    // per-layer metric a workload never reaches reads 0.
    let mut missing = Vec::new();
    let metrics = JsonValue::Obj(
        declared
            .iter()
            .map(|def| {
                let value = report.get(def.name).unwrap_or_else(|| {
                    if !args.trace {
                        missing.push(def.name);
                    }
                    0.0
                });
                let entry = JsonValue::object([
                    ("value", JsonValue::Num(value)),
                    ("unit", JsonValue::str(def.unit)),
                ]);
                (def.name.to_string(), entry)
            })
            .collect(),
    );
    for name in &missing {
        println!("FAILED: end-to-end metric {name} was not measured");
    }
    let correct = report.failed == 0 && missing.is_empty();

    let mut result = JsonValue::object([
        ("workload", JsonValue::str(args.workload.clone())),
        ("seed", JsonValue::UInt(args.seed)),
        ("seconds", JsonValue::Num(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("quick", JsonValue::Bool(args.quick)),
        ("host", JsonValue::str(host::HOST_LABEL)),
        ("nproc", JsonValue::UInt(host::nproc() as u64)),
        ("host_threads", JsonValue::UInt(host::nproc() as u64)),
        (
            "pinned_cpu",
            pinned.map_or(JsonValue::Null, |cpu| JsonValue::UInt(cpu as u64)),
        ),
        (
            "load_threads",
            JsonValue::UInt(load_threads(&args.workload) as u64),
        ),
        ("git_revision", JsonValue::str(host::git_revision())),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::UInt(report.attempted)),
        ("failed", JsonValue::UInt(report.failed)),
    ]);
    let all = END_TO_END.iter().chain(PER_LAYER).filter_map(|def| {
        let value = report.get(def.name)?;
        let mut entry = JsonValue::object([
            ("value", JsonValue::Num(value)),
            ("unit", JsonValue::str(def.unit)),
        ]);
        if let Some(note) = report.note(def.name) {
            entry.push_field("note", JsonValue::str(note));
        }
        Some((def.name.to_string(), entry))
    });
    result.push_field("metrics", JsonValue::Obj(all.collect()));
    let path = host::out_dir().join(format!("result_{}.json", args.workload));
    if let Err(e) = std::fs::write(&path, result.render_pretty()) {
        eprintln!("sti-sysbench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }

    let line = JsonValue::object([
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::UInt(report.attempted.max(1))),
        ("failed", JsonValue::UInt(report.failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Load-generating threads or connections a workload uses; never more
/// than the two hardware threads the recording host has.
fn load_threads(workload: &str) -> usize {
    if workload == "serve_http" {
        serve::CONNECTIONS
    } else {
        1
    }
}
