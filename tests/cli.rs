//! End-to-end tests of the `stidx` command-line tool: generate → stats →
//! build → query, plus error handling.

use std::path::PathBuf;
use std::process::Command;

fn stidx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_stidx"))
}

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sti-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn full_pipeline() {
    let data = temp("data.stdat");
    let out = stidx()
        .args(["generate", "--kind", "random", "--n", "300", "--out"])
        .arg(&data)
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = stidx()
        .args(["stats", "--data"])
        .arg(&data)
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("Total Objects              300"),
        "stats output: {text}"
    );

    let idx = temp("index.ppr");
    let out = stidx()
        .args(["build", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&idx)
        .args(["--splits", "100%"])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = stidx()
        .args(["query", "--index"])
        .arg(&idx)
        .args(["--area", "0.0,0.0,1.0,1.0", "--time", "500"])
        .output()
        .expect("run query");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let first = text.lines().next().expect("summary line");
    assert!(
        first.contains("objects") && first.contains("disk reads"),
        "{first}"
    );
    // The whole-space snapshot finds a plausible number of objects
    // (~ objects-per-instant = 300 * 50 / 1000 = 15).
    let found: usize = first
        .split_whitespace()
        .next()
        .expect("count")
        .parse()
        .expect("int");
    assert!((3..=60).contains(&found), "implausible hit count {found}");
    std::fs::remove_file(&idx).ok();
    std::fs::remove_file(&data).ok();
}

#[test]
fn interval_queries_return_supersets_of_snapshots() {
    let data = temp("interval.stdat");
    let idx = temp("interval.ppr");
    assert!(stidx()
        .args(["generate", "--kind", "railway", "--n", "200", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    assert!(stidx()
        .args(["build", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&idx)
        .status()
        .expect("build")
        .success());

    let run = |args: &[&str]| -> usize {
        let out = stidx()
            .args(["query", "--index"])
            .arg(&idx)
            .args(args)
            .output()
            .expect("query");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .expect("summary")
            .split_whitespace()
            .next()
            .expect("count")
            .parse()
            .expect("int")
    };
    let snap = run(&["--area", "0.0,0.0,1.0,1.0", "--time", "400"]);
    let span = run(&[
        "--area",
        "0.0,0.0,1.0,1.0",
        "--time",
        "400",
        "--until",
        "440",
    ]);
    assert!(
        span >= snap,
        "interval ({span}) must contain snapshot ({snap})"
    );
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&idx).ok();
}

#[test]
fn stats_describes_index_files_and_metrics_flag_writes_counters() {
    let data = temp("obs.stdat");
    let idx = temp("obs.ppr");
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "200", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    assert!(stidx()
        .args(["build", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&idx)
        .status()
        .expect("build")
        .success());

    // `stats` sniffs the magic: bare positional works for both kinds.
    let out = stidx().arg("stats").arg(&data).output().expect("stats");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Total Objects"));

    let out = stidx().arg("stats").arg(&idx).output().expect("stats");
    assert!(
        out.status.success(),
        "index stats failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in ["backend", "ppr", "pages", "records posted", "height"] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    // Global --metrics flag, any position: Prometheus text for a query.
    let prom = temp("query.prom");
    let out = stidx()
        .args(["--metrics"])
        .arg(&prom)
        .args(["query", "--index"])
        .arg(&idx)
        .args(["--area", "0.0,0.0,1.0,1.0", "--time", "500"])
        .output()
        .expect("query with metrics");
    assert!(
        out.status.success(),
        "query --metrics failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let reads: u64 = String::from_utf8_lossy(&out.stdout)
        .lines()
        .next()
        .expect("summary")
        .split_whitespace()
        .nth(2)
        .expect("reads field")
        .parse()
        .expect("int");
    let metrics = std::fs::read_to_string(&prom).expect("metrics file written");
    assert!(metrics.contains("# TYPE stidx_query_disk_reads counter"));
    assert!(
        metrics.contains(&format!("stidx_query_disk_reads {reads}")),
        "metrics disagree with the printed read count {reads}:\n{metrics}"
    );
    // The fault/retry counters from the storage layer ride along on
    // every query; a healthy file-backed run pins them all at zero.
    for counter in [
        "stidx_query_io_retries",
        "stidx_query_io_faults_injected",
        "stidx_query_checksum_failures",
    ] {
        assert!(
            metrics.contains(&format!("# TYPE {counter} counter"))
                && metrics.contains(&format!("{counter} 0")),
            "missing fault counter {counter}:\n{metrics}"
        );
    }
    // One eviction policy, no readahead: no gauges for either.
    for gone in [
        "buffer_scan_evictions_avoided",
        "readahead_pages_hit",
        "readahead_pages_wasted",
    ] {
        assert!(!metrics.contains(gone), "stale gauge {gone}:\n{metrics}");
    }

    // `.json` extension switches the serializer.
    let json = temp("stats.json");
    assert!(stidx()
        .arg(format!("--metrics={}", json.display()))
        .arg("stats")
        .arg(&idx)
        .status()
        .expect("stats with metrics")
        .success());
    let text = std::fs::read_to_string(&json).expect("json metrics written");
    assert!(
        text.trim_start().starts_with('[') && text.contains("\"stidx_index_pages\""),
        "not the JSON serializer:\n{text}"
    );

    for p in [&data, &idx, &prom, &json] {
        std::fs::remove_file(p).ok();
    }
}

/// A bulk build large enough to spill its sort reports its four phase
/// times, as `--scale-stats` lines and as `--metrics` gauges: each one
/// positive, the page writes inside the leaf pass and the directory,
/// and all four together within the build's wall time.
#[test]
fn a_spilled_bulk_build_reports_its_phase_seconds() {
    let data = temp("phases.stdat");
    let idx = temp("phases.stidx");
    let prom = temp("phases.prom");
    // More objects than one 64Ki-record sort chunk holds.
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "70000", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    let start = std::time::Instant::now();
    let out = stidx()
        .arg("--metrics")
        .arg(&prom)
        .args(["build", "--bulk", "--scale-stats", "--data"])
        .arg(&data)
        .arg("--out")
        .arg(&idx)
        .output()
        .expect("bulk build");
    let wall = start.elapsed().as_secs_f64();
    assert!(
        out.status.success(),
        "bulk build failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let metrics = std::fs::read_to_string(&prom).expect("metrics file written");
    let gauge = |name: &str| -> f64 {
        let line = metrics
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("no gauge {name}:\n{metrics}"));
        line[name.len()..].trim().parse().expect("gauge value")
    };
    assert!(gauge("bulk_spilled_runs") >= 1.0, "the sort must spill");
    let mut seconds = Vec::new();
    for phase in ["sort", "leaf", "directory", "write"] {
        let printed: f64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{phase} phase")))
            .and_then(|rest| rest.trim().strip_suffix(" s"))
            .unwrap_or_else(|| panic!("no {phase} line in:\n{text}"))
            .parse()
            .expect("seconds");
        let exported = gauge(&format!("bulk_{phase}_seconds"));
        assert!(exported > 0.0 && printed > 0.0, "{phase}: {exported} s");
        assert!(
            (printed - exported).abs() < 1e-4,
            "{phase}: {printed} vs {exported}"
        );
        seconds.push(exported);
    }
    let [sort, leaf, directory, write] = seconds[..] else {
        unreachable!()
    };
    assert!(
        write <= leaf + directory,
        "writes happen inside those passes"
    );
    assert!(
        sort + leaf + directory + write <= wall,
        "phases {seconds:?} exceed the {wall:.3} s build"
    );
    for p in [&data, &idx, &prom] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn check_profile_prints_one_finite_row_per_level() {
    let data = temp("profile.stdat");
    let idx = temp("profile.stidx");
    let prom = temp("profile.prom");
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "4000", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    let out = stidx()
        .args(["build", "--bulk", "--scale-stats", "--data"])
        .arg(&data)
        .arg("--out")
        .arg(&idx)
        .output()
        .expect("bulk build");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let height: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("levels"))
        .expect("levels line")
        .trim()
        .parse()
        .expect("levels");

    let out = stidx()
        .arg("--metrics")
        .arg(&prom)
        .arg("check")
        .arg(&idx)
        .arg("--profile")
        .output()
        .expect("check --profile");
    assert!(
        out.status.success(),
        "check --profile failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let nodes: f64 = text
        .split(" node(s)")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .expect("node count")
        .parse()
        .expect("node count");
    let rows: Vec<Vec<f64>> = text
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("level"))
        .skip(1)
        .map(|l| l.split_whitespace().map(|v| v.parse().unwrap()).collect())
        .collect();
    assert_eq!(rows.len(), height + 1, "one row per level:\n{text}");
    for (level, row) in rows.iter().enumerate() {
        let [lvl, mean, max, area, overlap] = row[..] else {
            panic!("row {row:?}")
        };
        assert_eq!(lvl, level as f64);
        assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
        assert!(
            0.0 < mean && mean <= max && max <= nodes,
            "{row:?} of {nodes}"
        );
        assert!(area >= 0.0 && overlap >= 0.0, "{row:?}");
    }
    let metrics = std::fs::read_to_string(&prom).expect("metrics file written");
    for level in 0..=height {
        let gauge = format!("check_profile_nodes_alive_mean{{level=\"{level}\"}} ");
        assert!(metrics.contains(&gauge), "no {gauge} in:\n{metrics}");
    }
    for p in [&data, &idx, &prom] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn helpful_errors() {
    let out = stidx().args(["frobnicate"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = stidx()
        .args([
            "query",
            "--index",
            "/nonexistent",
            "--area",
            "0,0,1,1",
            "--time",
            "5",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());

    // Every index is a PPR-Tree: no kNN command, no backend to name.
    let out = stidx().args(["nearest"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command nearest"));

    let out = stidx()
        .args([
            "generate", "--kind", "martian", "--n", "5", "--out", "/tmp/x",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown dataset kind"));

    // A non-finite corner is refused before any index is opened.
    for area in ["nan,0,1,1", "0,0,inf,1"] {
        let out = stidx()
            .args(["query", "--index", "/nonexistent", "--area", area])
            .args(["--time", "3"])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{area}: {stderr}");
        assert!(stderr.contains("must be finite"), "{area}: {stderr}");
        assert!(!stderr.contains("panicked"), "{area}: {stderr}");
    }

    // `query` answers one query on one thread: there is no reader count
    // to ask for.
    let out = stidx()
        .args(["query", "--index", "/nonexistent", "--area", "0,0,1,1"])
        .args(["--time", "3", "--threads", "2"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag --threads"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Two fsync policies, and `recover` appends nothing to sync.
    let d = "/nonexistent";
    for (args, why) in [
        (
            vec![
                "ingest", "--data", d, "--out", d, "--wal", d, "--fsync", "8",
            ],
            "--fsync takes always or commit",
        ),
        (
            vec!["recover", "--wal", d, "--out", d, "--fsync", "always"],
            "unknown flag --fsync",
        ),
    ] {
        let out = stidx().args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// An error report that meets a closed stderr is lost, not a panic: the
/// exit code still says the command failed.
#[test]
fn a_closed_stderr_leaves_the_exit_code_alone() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let status = stidx()
        .arg("frobnicate")
        .stderr(writer)
        .status()
        .expect("run");
    assert_eq!(status.code(), Some(1));
}

/// `sti-server` and `stidx query` answer from the same saved index: a
/// seeded mix of snapshot and interval `/query` requests gets, for each
/// 200, exactly the id lines `stidx query` prints below its header.
#[test]
fn served_bodies_replay_through_stidx_query() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use spatiotemporal_index::core::SpatioTemporalIndex;
    use spatiotemporal_index::server::{Server, ServerConfig};
    use std::io::{Read, Write};
    use std::sync::Arc;

    let data = temp("served.stdat");
    let idx = temp("served.idx");
    let run = |cmd: &mut Command| {
        let out = cmd.output().expect("run");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    run(stidx()
        .args([
            "generate", "--kind", "random", "--n", "2000", "--seed", "7", "--out",
        ])
        .arg(&data));
    run(stidx()
        .args(["build", "--data"])
        .arg(&data)
        .arg("--out")
        .arg(&idx));
    let index = SpatioTemporalIndex::open_file(&idx).expect("open the built index");
    let server = Server::start(Arc::new(index), ServerConfig::default()).expect("start");

    let mut rng = StdRng::seed_from_u64(7);
    let (mut checked, mut nonempty) = (0, 0);
    for i in 0..40 {
        let (x0, y0) = (0.85 * rng.random::<f64>(), 0.85 * rng.random::<f64>());
        let (x1, y1) = (x0 + 0.05 + 0.1 * rng.random::<f64>(), y0 + 0.1);
        let area = format!("{x0:.4},{y0:.4},{x1:.4},{y1:.4}");
        let time = rng.random_range(0..990u32);
        let until = if i % 4 == 0 {
            time + rng.random_range(2..10)
        } else {
            time + 1
        };
        let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
        let target = format!("/query?area={area}&time={time}&until={until}");
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        if !response.starts_with("HTTP/1.1 200") {
            continue;
        }
        let served = response.split_once("\r\n\r\n").map_or("", |(_, b)| b);
        let printed = run(stidx()
            .args(["query", "--index"])
            .arg(&idx)
            .args(["--area", &area, "--time", &time.to_string()])
            .args(["--until", &until.to_string()]));
        let printed = String::from_utf8(printed).expect("utf-8");
        let (_header, ids) = printed.split_once('\n').expect("a header line");
        assert_eq!(served, ids, "{target}");
        checked += 1;
        nonempty += usize::from(!ids.is_empty());
    }
    server.shutdown();
    std::fs::remove_file(&idx).ok();
    std::fs::remove_file(&data).ok();
    assert!(checked > 0, "no request was answered 200");
    assert!(nonempty > 0, "every replayed answer was empty");
}

/// `--time` at the last instant leaves no room for the default
/// one-instant range: the end saturates and the query is refused with
/// an error, not an overflow panic.
#[test]
fn a_query_at_the_last_instant_is_refused_not_a_panic() {
    let out = stidx()
        .args(["query", "--index", "/nonexistent", "--area", "0,0,1,1"])
        .args(["--time", "4294967295"])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--until must be after --time"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn unknown_and_duplicate_flags_are_refused_with_suggestions() {
    // A typo'd flag used to be silently dropped (and its default used);
    // now the parser refuses and names the nearest valid flag.
    let out = stidx()
        .args([
            "ingest",
            "--data",
            "/tmp/x",
            "--out",
            "/tmp/y",
            "--commit-evry",
            "4",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown flag --commit-evry (did you mean --commit-every?)"),
        "{err}"
    );

    // A flag from a *different* subcommand is just as unknown here.
    let out = stidx()
        .args(["query", "--index", "/tmp/x", "--kind", "random"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --kind"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The buffer pool has one eviction policy and no readahead, and an
    // index has one tree kind, so there is no flag to select any of them.
    for removed in [
        &["--policy", "2q"][..],
        &["--readahead"],
        &["--backend", "rstar"],
    ] {
        let out = stidx()
            .args(["query", "--index", "/tmp/x"])
            .args(["--area", "0,0,1,1", "--time", "1"])
            .args(removed)
            .output()
            .expect("run");
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {}", removed[0])),
            "{err}"
        );
    }

    // Duplicates are ambiguous, not last-one-wins.
    let out = stidx()
        .args([
            "generate", "--kind", "random", "--kind", "railway", "--n", "5", "--out", "/tmp/x",
        ])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("duplicate flag --kind"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stalled_seal_fails_the_ingest_run() {
    let data = temp("stall.stdat");
    let idx = temp("stall.ppr");
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "60", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());

    // The hidden wedge hook forces seal() onto its genuine stalled exit;
    // the run must fail loudly instead of saving a partial index.
    let out = stidx()
        .env("STIDX_TEST_WEDGE_SEAL", "1")
        .args(["ingest", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&idx)
        .output()
        .expect("run ingest");
    assert!(
        !out.status.success(),
        "a stalled seal must be a non-zero exit"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("sealing stalled"), "{err}");
    assert!(
        err.contains("pending") && err.contains("queued"),
        "diagnostics must quote the undrained queue/pending counts: {err}"
    );
    assert!(
        !idx.exists(),
        "no index file may be written for a stalled stream"
    );

    // Control: the same dataset without the wedge ingests fine.
    let out = stidx()
        .args(["ingest", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&idx)
        .output()
        .expect("run ingest");
    assert!(
        out.status.success(),
        "unwedged ingest failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&idx).ok();
}

#[test]
fn stale_temp_from_a_killed_save_is_cleaned_before_the_next_run() {
    let data = temp("staletmp.stdat");
    let idx = temp("staletmp.ppr");
    let tmp = {
        let mut os = idx.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "40", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());

    // A process killed between temp-write and rename leaves the torn
    // temp behind (no destructors run); the next run must sweep it.
    std::fs::write(&tmp, b"torn partial index from a killed process").expect("plant stale temp");
    let out = stidx()
        .args(["ingest", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&idx)
        .output()
        .expect("run ingest");
    assert!(
        out.status.success(),
        "ingest failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("removed stale temp"),
        "the sweep must be announced: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!tmp.exists(), "stale temp must be gone after the run");
    assert!(idx.exists());
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&idx).ok();
}

#[test]
fn failed_save_leaves_no_temp_file_behind() {
    let data = temp("failsave.stdat");
    let out_dir = temp("failsave.dir");
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "40", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());

    // Renaming the finished temp onto a directory fails, so the save
    // errors out after writing its temp — which must then be removed,
    // not stranded next to the target.
    std::fs::create_dir_all(&out_dir).expect("create blocking directory");
    let out = stidx()
        .args(["ingest", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&out_dir)
        .output()
        .expect("run ingest");
    assert!(!out.status.success(), "saving onto a directory must fail");
    let tmp = {
        let mut os = out_dir.as_os_str().to_os_string();
        os.push(".tmp");
        PathBuf::from(os)
    };
    assert!(
        !tmp.exists(),
        "a failed save must clean up its own temp file"
    );
    std::fs::remove_file(&data).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

/// A durable ingest killed after its third commit recovers from the WAL
/// into an index that passes `stidx check` and answers like an
/// uninterrupted run, under both fsync policies: `--fsync commit` and
/// `--fsync always`.
#[test]
fn durable_ingest_crash_and_recover_round_trip() {
    crash_and_recover("durable-commit", &["--fsync", "commit"]);
    crash_and_recover("durable-always", &["--fsync", "always"]);
}

fn crash_and_recover(name: &str, fsync: &[&str]) {
    let data = temp(&format!("{name}.stdat"));
    let control = temp(&format!("{name}-control.ppr"));
    let recovered = temp(&format!("{name}-recovered.ppr"));
    let crashed = temp(&format!("{name}-crashed.ppr"));
    let wal = temp(&format!("{name}-wal"));
    let metrics = temp(&format!("{name}-recover.prom"));
    std::fs::remove_dir_all(&wal).ok();
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "60", "--seed", "11", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());

    // Control: the same stream ingested without interruption.
    assert!(stidx()
        .args(["ingest", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&control)
        .status()
        .expect("control ingest")
        .success());

    // Durable run, killed (abort — no cleanup) right after commit 3.
    let out = stidx()
        .env("STIDX_TEST_CRASH_AFTER_COMMITS", "3")
        .args(["ingest", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&crashed)
        .args(["--wal"])
        .arg(&wal)
        .args(fsync)
        .args(["--checkpoint-every", "2"])
        .output()
        .expect("crashed ingest");
    assert!(!out.status.success(), "the crash hook must kill the run");
    assert!(!crashed.exists(), "a killed run must not leave an index");
    assert!(wal.is_dir(), "the WAL directory must survive the crash");

    // Recover: replay the log tail, seal, save — and export the
    // restored backlog, which must be visibly non-zero (a recovered
    // process does not report itself as a fresh one).
    let out = stidx()
        .arg("--metrics")
        .arg(&metrics)
        .args(["recover", "--wal"])
        .arg(&wal)
        .args(["--out"])
        .arg(&recovered)
        .output()
        .expect("recover");
    assert!(
        out.status.success(),
        "recover failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("recovered from checkpoint generation"),
        "{stdout}"
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    let gauge = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing, metrics:\n{text}"))
            .trim()
            .parse()
            .expect("gauge numeric")
    };
    assert!(
        gauge("ingest_queue_depth") > 0.0,
        "restored queue depth must be non-zero, metrics:\n{text}"
    );
    assert!(
        gauge("recovery_wal_records_replayed") > 0.0,
        "recovery must replay the WAL tail, metrics:\n{text}"
    );
    gauge("recovery_checkpoint_generation");

    // The recovered index passes the invariant checker...
    assert!(stidx()
        .arg("check")
        .arg(&recovered)
        .status()
        .expect("check")
        .success());

    // ...and answers queries exactly like the uninterrupted control —
    // within the horizon the crashed run had acknowledged. (The tail of
    // the stream was never submitted, so it is legitimately absent; the
    // crash hook fires after commit 3 = instant 23 at the default
    // cadence, and every acked op below that must have survived.)
    for (t, until) in [("10", None), ("2", Some("16"))] {
        let mut answers = Vec::new();
        for idx in [&control, &recovered] {
            let mut cmd = stidx();
            cmd.args(["query", "--index"])
                .arg(idx)
                .args(["--area", "0,0,1,1", "--time", t]);
            if let Some(u) = until {
                cmd.args(["--until", u]);
            }
            let out = cmd.output().expect("query");
            assert!(
                out.status.success(),
                "query failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            answers.push(String::from_utf8_lossy(&out.stdout).into_owned());
        }
        assert_eq!(
            answers[0], answers[1],
            "recovered index diverges from the control at t={t}"
        );
    }

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&control).ok();
    std::fs::remove_file(&recovered).ok();
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_dir_all(&wal).ok();
}

/// A checkpoint generation is an ordinary index image with the pipeline
/// state in its metadata region: `stidx check` passes it and `stidx
/// query` answers from it.
#[test]
fn a_checkpoint_image_is_a_saved_index() {
    let data = temp("ckpt-image.stdat");
    let out = temp("ckpt-image.ppr");
    let wal = temp("ckpt-image-wal");
    std::fs::remove_dir_all(&wal).ok();
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "60", "--seed", "11", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    assert!(stidx()
        .args(["ingest", "--data"])
        .arg(&data)
        .arg("--out")
        .arg(&out)
        .arg("--wal")
        .arg(&wal)
        .args(["--checkpoint-every", "2"])
        .status()
        .expect("ingest")
        .success());
    let image = std::fs::read_dir(&wal)
        .expect("list wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".idx"))
        })
        .max()
        .expect("a checkpoint image");
    let check = stidx().arg("check").arg(&image).output().expect("check");
    assert!(
        check.status.success(),
        "check failed: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let query = stidx()
        .args(["query", "--index"])
        .arg(&image)
        .args(["--area", "0,0,1,1", "--time", "10"])
        .output()
        .expect("query");
    assert!(
        query.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&query.stderr)
    );
    assert!(!query.stdout.is_empty(), "the query printed no answer");
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&out).ok();
    std::fs::remove_dir_all(&wal).ok();
}

/// `stidx check` passes an intact image and fails the torn `.tmp`
/// sibling a re-save that died mid-write leaves next to it (the atomic
/// save protocol never touches the current image).
#[test]
fn check_fails_a_torn_temp_image_beside_an_intact_one() {
    let data = temp("torn.stdat");
    let idx = temp("torn.idx");
    let torn = temp("torn.idx.tmp");
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "400", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    assert!(stidx()
        .args(["build", "--data"])
        .arg(&data)
        .arg("--out")
        .arg(&idx)
        .status()
        .expect("build")
        .success());
    let bytes = std::fs::read(&idx).expect("read image");
    assert!(bytes.len() > 1000, "{} bytes", bytes.len());
    std::fs::write(&torn, &bytes[..1000]).expect("write torn prefix");
    let check = |path: &PathBuf| stidx().arg("check").arg(path).output().expect("check");
    let intact = check(&idx);
    assert!(
        intact.status.success(),
        "intact image failed: {}",
        String::from_utf8_lossy(&intact.stderr)
    );
    let out = check(&torn);
    assert!(!out.status.success(), "torn temp image passed fsck");
    assert_ne!(out.status.code(), Some(101), "check panicked");
    for path in [&data, &idx, &torn] {
        std::fs::remove_file(path).ok();
    }
}

/// A live stream through `stidx ingest`: every op admitted, every batch
/// published once, and each commit's fork copies some pages but never
/// more than the tree, nor more than it writes.
#[test]
fn live_ingestion_round_trip_publishes_every_commit() {
    let data = temp("live.stdat");
    let idx = temp("live.ppr");
    let prom = temp("live.prom");
    assert!(stidx()
        .args(["generate", "--kind", "random", "--n", "400", "--seed", "11", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    let out = stidx()
        .arg("--metrics")
        .arg(&prom)
        .args(["ingest", "--data"])
        .arg(&data)
        .args(["--out"])
        .arg(&idx)
        .args(["--commit-every", "16"])
        .output()
        .expect("ingest");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ingest failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stidx()
        .arg("check")
        .arg(&idx)
        .status()
        .expect("check")
        .success());

    let text = std::fs::read_to_string(&prom).expect("metrics file");
    let metric = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing:\n{text}"))
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} not an integer:\n{text}"))
    };
    for zero in [
        "ingest_rejected_ops_total",
        "ingest_rollbacks_total",
        "ingest_pending_events",
    ] {
        assert_eq!(metric(zero), 0, "{zero}:\n{text}");
    }
    let commits = metric("ingest_commits_total");
    assert!(commits > 0, "{text}");
    assert_eq!(commits, metric("ingest_published_version"), "{text}");

    let pages: u64 = stdout
        .lines()
        .find_map(|l| {
            l.strip_prefix("wrote ")?
                .strip_suffix(&format!(" pages to {}", idx.display()))
        })
        .expect("a `wrote N pages` line")
        .parse()
        .expect("page count");
    // Each commit forks the published tree and copies a page at its
    // first write: some pages, never more than the tree per commit.
    let copied = metric("ingest_pages_copied_total");
    assert!(
        0 < copied && copied <= pages * commits,
        "{pages} pages:\n{text}"
    );
    // A commit copies a page only at a write, and writes a page only
    // when its bytes change: every page of the tree was written at
    // least once, and no commit copies more pages than it writes.
    let written = metric("ingest_pages_written_total");
    assert!(
        copied <= written && pages <= written,
        "{pages} pages:\n{text}"
    );

    for p in [&data, &idx, &prom] {
        std::fs::remove_file(p).ok();
    }
}
