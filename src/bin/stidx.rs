//! `stidx` — command-line front end for the spatiotemporal index.
//!
//! ```text
//! stidx generate --kind random --n 10000 --out data.stdat [--seed 7]
//! stidx stats    --data data.stdat
//! stidx build    --data data.stdat --out index.stidx
//!                [--splits 150%|--splits 5000]
//!                [--single merge|dp] [--dist lagreedy|greedy|optimal]
//!                [--threads auto|seq|N]
//! stidx query    --index index.stidx
//!                --area x0,y0,x1,y1 --time T [--until T2]
//! stidx ingest   --data data.stdat --out index.stidx [--commit-every 8]
//! ```
//!
//! Datasets use the `STDAT1` format (`sti_datagen::io`); indexes use the
//! `STIDX2` page-store format with PPR-Tree metadata. Every index is a
//! PPR-Tree: an R\*-Tree image written by an older release fails to
//! open with an error saying so.

use spatiotemporal_index::core::{
    DistributionAlgorithm, IndexBackend, IndexConfig, IngestOp, IngestPipeline, ObjectRecord,
    OnlineSplitConfig, Parallelism, SingleSplitAlgorithm, SpatioTemporalIndex, SplitBudget,
};
use spatiotemporal_index::datagen::{
    load_dataset, save_dataset, DatasetReader, DatasetStats, DatasetWriter, OrbitDatasetSpec,
    RailwayDatasetSpec, RandomDatasetSpec, RegionDatasetSpec, TIME_EXTENT,
};
use spatiotemporal_index::geom::{Rect2, StBox, TimeInterval};
use spatiotemporal_index::obs::MetricSet;
use spatiotemporal_index::pprtree::{PprParams, PprTree};
use spatiotemporal_index::server::cli::{parse_area, parse_flags, Flags};
use spatiotemporal_index::storage::{FileBackend, FsyncPolicy, PageStore, WalConfig};
use spatiotemporal_index::trajectory::RasterizedObject;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  stidx [--metrics FILE] COMMAND ...
  stidx generate --kind random|railway|orbits|regions --n N --out FILE [--seed S]
  stidx generate --kind random --scale mid|big --out FILE [--n N] [--seed S]
  stidx stats    FILE | --data FILE | --index FILE
  stidx build    --data FILE --out FILE
                 [--splits P% | --splits N] [--single merge|dp]
                 [--dist lagreedy|greedy|optimal] [--threads auto|seq|N]
  stidx build    --data FILE --out FILE --bulk [--scale-stats]
  stidx query    --index FILE --area x0,y0,x1,y1 --time T [--until T2]
  stidx ingest   --data FILE --out FILE [--commit-every N]
                 [--wal DIR] [--fsync always|commit] [--checkpoint-every N]
  stidx recover  --wal DIR --out FILE
  stidx check    FILE | --index FILE [--profile]

  --wal DIR makes ingest durable: every accepted operation is logged
  (fsynced per --fsync: every append, or at commit only) and a
  checkpoint is taken every N commits. After a crash, stidx recover
  rebuilds from DIR, replays the log tail, seals, and writes the
  index.

  --scale mid|big streams the scale-tier random dataset (100k / 1M
  objects) straight to disk — nothing is materialized in memory, so the
  big tier generates in constant space.

  --bulk streams the dataset through the external-sort bulk loader into
  a file-backed PPR-Tree: sort the piece centers into STR tiles (x
  slabs, y within each), cut that order into spatial regions that each
  replay the whole timeline, pack pages bottom-up. Never holds the
  dataset in memory. --scale-stats prints pages written / slabs / peak
  resident / fill factor and the seconds spent sorting, in the leaf
  pass, in the directory and writing pages (a part of the leaf pass and
  the directory).

  --profile adds one row per tree level: nodes alive (mean and max over
  16 evenly spaced instants), their mean MBR area, and the mean overlap
  area of siblings alive at the same instant. Pages are peeked, so the
  profile reads nothing through the buffer pool.

  --metrics FILE (any position) writes counters from the run — per-query
  I/O, build phase timings, index gauges — in Prometheus text format, or
  JSON when FILE ends in .json. A --bulk build exports
  bulk_pages_written and bulk_{sort,leaf,directory,write}_seconds.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, metrics_path) = match strip_metrics_flag(args) {
        Ok(v) => v,
        Err(msg) => {
            let _ = writeln!(std::io::stderr(), "stidx: {msg}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut metrics = MetricSet::new();
    match run(&args, &mut metrics) {
        Ok(()) => {
            if let Some(path) = metrics_path {
                if let Err(msg) = write_metrics(&path, &metrics) {
                    let _ = writeln!(std::io::stderr(), "stidx: {msg}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            let _ = writeln!(std::io::stderr(), "stidx: {msg}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Pull the global `--metrics FILE` / `--metrics=FILE` flag out of the
/// argument list (any position) so subcommand parsers never see it.
fn strip_metrics_flag(args: Vec<String>) -> Result<(Vec<String>, Option<PathBuf>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut path = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--metrics" {
            let v = it.next().ok_or("--metrics needs a file path")?;
            path = Some(PathBuf::from(v));
        } else if let Some(v) = arg.strip_prefix("--metrics=") {
            path = Some(PathBuf::from(v));
        } else {
            rest.push(arg);
        }
    }
    Ok((rest, path))
}

fn write_metrics(path: &Path, metrics: &MetricSet) -> Result<(), String> {
    let text = if path.extension().is_some_and(|e| e == "json") {
        metrics.to_json()
    } else {
        metrics.to_prometheus()
    };
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn run(args: &[String], metrics: &mut MetricSet) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    // `check` and `stats` take their file as a bare positional too
    // (`stidx stats index.stidx`), matching fsck-style tools.
    if cmd == "check" {
        let (positional, flags) = match rest.split_first() {
            Some((path, flags)) if !path.starts_with("--") => (Some(path), flags),
            _ => (None, rest),
        };
        let vocabulary: &[&str] = if positional.is_some() {
            &[]
        } else {
            &["index"]
        };
        let opts = parse_flags(flags, vocabulary, &["profile"])?;
        let path = match positional {
            Some(path) => PathBuf::from(path),
            None => PathBuf::from(opts.need("index")?),
        };
        return check(&path, opts.has("profile"), metrics);
    }
    if cmd == "stats" {
        if let [path] = rest {
            if !path.starts_with("--") {
                return stats(&PathBuf::from(path), metrics);
            }
        }
        let opts = parse_flags(rest, &["data", "index"], &[])?;
        let path = opts
            .get("data")
            .or_else(|| opts.get("index"))
            .ok_or("stats needs a file: positional, --data, or --index")?;
        return stats(&PathBuf::from(path), metrics);
    }
    // Each subcommand declares its flag vocabulary; the shared strict
    // parser (`sti_server::cli`) then refuses unknown and duplicated
    // flags instead of silently dropping a typo onto a default.
    let (vocabulary, switches): (&[&str], &[&str]) = match cmd.as_str() {
        "generate" => (&["kind", "n", "out", "seed", "scale"], &[]),
        "build" => (
            &["data", "out", "splits", "single", "dist", "threads"],
            &["bulk", "scale-stats"],
        ),
        "query" => (&["index", "area", "time", "until"], &[]),
        "ingest" => (
            &[
                "data",
                "out",
                "commit-every",
                "wal",
                "fsync",
                "checkpoint-every",
            ],
            &[],
        ),
        "recover" => (&["wal", "out"], &[]),
        other => return Err(format!("unknown command {other}")),
    };
    let opts = parse_flags(rest, vocabulary, switches)?;
    match cmd.as_str() {
        "generate" => generate(&opts),
        "build" => build(&opts, metrics),
        "query" => query(&opts, metrics),
        "ingest" => ingest(&opts, metrics),
        "recover" => recover(&opts, metrics),
        other => Err(format!("unknown command {other}")),
    }
}

/// Open a saved PPR-Tree index and run the full-history invariant
/// sanitizer over it ([`spatiotemporal_index::pprtree::check`]); with
/// `profile`, print and export its per-level profile too.
fn check(path: &Path, profile: bool, metrics: &mut MetricSet) -> Result<(), String> {
    use spatiotemporal_index::pprtree::check::validate;
    let tree = PprTree::open_file(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    match validate(&tree) {
        Ok(report) => {
            println!("{}: ok — {report}", path.display());
            if profile {
                print_profile(&tree, metrics);
            }
            Ok(())
        }
        Err(violations) => {
            for v in &violations {
                println!("{}: {v}", path.display());
            }
            Err(format!(
                "{} invariant violation(s) in {}",
                violations.len(),
                path.display()
            ))
        }
    }
}

fn generate(opts: &Flags) -> Result<(), String> {
    let kind = opts.need("kind")?;
    let out = PathBuf::from(opts.need("out")?);
    let seed: Option<u64> = match opts.get("seed") {
        Some(s) => Some(s.parse().map_err(|_| "--seed must be an integer")?),
        None => None,
    };
    if let Some(scale) = opts.get("scale") {
        return generate_scale(kind, scale, opts.get("n"), seed, &out);
    }
    let n: usize = opts
        .need("n")?
        .parse()
        .map_err(|_| "--n must be an integer")?;
    let objects: Vec<RasterizedObject> = match kind {
        "random" => {
            let mut spec = RandomDatasetSpec::paper(n);
            if let Some(s) = seed {
                spec.seed = s;
            }
            spec.generate()
        }
        "railway" => {
            let mut spec = RailwayDatasetSpec::paper(n);
            if let Some(s) = seed {
                spec.seed = s;
            }
            spec.generate_rasterized()
        }
        "orbits" => {
            let mut spec = OrbitDatasetSpec::standard(n);
            if let Some(s) = seed {
                spec.seed = s;
            }
            spec.generate()
        }
        "regions" => {
            let mut spec = RegionDatasetSpec::standard(n);
            if let Some(s) = seed {
                spec.seed = s;
            }
            spec.generate_rasterized()
        }
        other => return Err(format!("unknown dataset kind {other}")),
    };
    save_dataset(&out, &objects).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {} objects to {}", objects.len(), out.display());
    Ok(())
}

/// `stidx generate --scale mid|big`: stream the scale-tier random
/// dataset to disk one object at a time. The spec (and therefore the
/// file) is byte-identical to what the benches generate in process, so
/// a CI-cached dataset and an in-process run build the same tree.
fn generate_scale(
    kind: &str,
    scale: &str,
    n: Option<&str>,
    seed: Option<u64>,
    out: &Path,
) -> Result<(), String> {
    if kind != "random" {
        return Err(format!(
            "--scale only applies to the random dataset (got --kind {kind})"
        ));
    }
    let default_n = match scale {
        "mid" => 100_000,
        "big" => 1_000_000,
        other => return Err(format!("unknown scale {other} (expected mid or big)")),
    };
    let n: usize = match n {
        Some(s) => s.parse().map_err(|_| "--n must be an integer")?,
        None => default_n,
    };
    let mut spec = RandomDatasetSpec::big(n);
    if let Some(s) = seed {
        spec.seed = s;
    }
    let mut w =
        DatasetWriter::create(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    for obj in spec.iter() {
        w.append(&obj)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    w.finish()
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {n} objects ({scale} tier) to {}", out.display());
    Ok(())
}

/// `stidx stats FILE` — sniff the 8-byte magic and describe either a
/// dataset (`STDAT1`) or a saved index (`STIDX2`).
fn stats(path: &Path, metrics: &mut MetricSet) -> Result<(), String> {
    let mut magic = [0u8; 8];
    {
        let mut f =
            std::fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        f.read_exact(&mut magic)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
    }
    if &magic == spatiotemporal_index::datagen::io::DATASET_MAGIC {
        let objects = load_dataset(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        print_or_pipe(&format!(
            "{}\n",
            DatasetStats::compute(&objects, TIME_EXTENT)
        ))?;
        metrics.gauge(
            "stidx_dataset_objects",
            "objects in the dataset file",
            objects.len() as f64,
        );
        return Ok(());
    }
    if &magic != spatiotemporal_index::storage::persist::MAGIC {
        return Err(format!(
            "{}: neither an STDAT dataset nor an STIDX index file",
            path.display()
        ));
    }
    index_stats(path, metrics)
}

/// Describe a saved index: backend, size on disk, record counts, shape.
fn index_stats(path: &Path, metrics: &mut MetricSet) -> Result<(), String> {
    let bytes = std::fs::metadata(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?
        .len();
    let tree = PprTree::open_file(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let height = tree.roots().iter().map(|r| r.level + 1).max().unwrap_or(0);
    let detail = [
        ("records posted", tree.total_records()),
        ("records alive", tree.alive_records()),
        ("root log spans", tree.roots().len() as u64),
        ("height", u64::from(height)),
        ("clock (now)", u64::from(tree.now())),
    ];
    let mut out = format!(
        "backend          ppr (partially persistent R-Tree)\nfile             {} ({bytes} bytes)\npages            {}\n",
        path.display(),
        tree.num_pages()
    );
    for (label, value) in detail {
        out.push_str(&format!("{label:<17}{value}\n"));
    }
    print_or_pipe(&out)?;
    metrics.gauge(
        "stidx_index_pages",
        "pages in the index",
        tree.num_pages() as f64,
    );
    metrics.gauge(
        "stidx_index_records",
        "records posted to the index",
        tree.total_records() as f64,
    );
    metrics.gauge("stidx_index_height", "tree height", f64::from(height));
    Ok(())
}

fn build(opts: &Flags, metrics: &mut MetricSet) -> Result<(), String> {
    let data = PathBuf::from(opts.need("data")?);
    let out = PathBuf::from(opts.need("out")?);
    remove_stale_temp(&out)?;
    if opts.has("bulk") {
        for flag in ["splits", "single", "dist", "threads"] {
            if opts.get(flag).is_some() {
                return Err(format!(
                    "--{flag} does not apply to --bulk (the bulk loader indexes \
                     whole lifetimes, no split planning)"
                ));
            }
        }
        return bulk_build(&data, &out, metrics, opts.has("scale-stats"));
    }
    if opts.has("scale-stats") {
        return Err("--scale-stats needs --bulk".into());
    }
    let budget = match opts.get("splits") {
        None => SplitBudget::Percent(150.0),
        Some(s) => match s.strip_suffix('%') {
            Some(p) => {
                let pct: f64 = p
                    .parse()
                    .map_err(|_| "--splits percentage must be a number")?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err("--splits percentage must be a non-negative number".into());
                }
                SplitBudget::Percent(pct)
            }
            None => SplitBudget::Count(s.parse().map_err(|_| "--splits must be N or P%")?),
        },
    };
    let single = match opts.get("single").unwrap_or("merge") {
        "merge" => SingleSplitAlgorithm::MergeSplit,
        "dp" => SingleSplitAlgorithm::DpSplit,
        other => return Err(format!("unknown single-object algorithm {other}")),
    };
    let dist = match opts.get("dist").unwrap_or("lagreedy") {
        "lagreedy" => DistributionAlgorithm::LaGreedy,
        "greedy" => DistributionAlgorithm::Greedy,
        "optimal" => DistributionAlgorithm::Optimal,
        other => return Err(format!("unknown distribution algorithm {other}")),
    };

    let threads = match opts.get("threads") {
        Some(t) => Parallelism::parse(t).map_err(|e| format!("--threads: {e}"))?,
        None => Parallelism::Auto,
    };

    let objects = load_dataset(&data).map_err(|e| format!("reading {}: {e}", data.display()))?;
    println!(
        "planning splits for {} objects ({single} + {dist}, threads={threads})...",
        objects.len()
    );
    let (index, stats) = SpatioTemporalIndex::build_from_objects(
        &objects,
        single,
        dist,
        budget,
        None,
        &IndexConfig::paper(IndexBackend::PprTree),
        threads,
    )
    .map_err(|e| format!("building the index: {e}"))?;
    println!("build stats: {stats}");
    metrics.record_spans("stidx_build", &stats.spans());
    metrics.gauge(
        "stidx_build_records_emitted",
        "records the split plan emitted",
        stats.records_emitted as f64,
    );
    metrics.gauge(
        "stidx_index_pages",
        "pages in the index",
        index.num_pages() as f64,
    );
    index
        .as_ppr()
        .expect("ppr backend")
        .save_to_file(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {} pages to {}", index.num_pages(), out.display());
    Ok(())
}

/// `stidx check --profile`: one row per level, leaf first, printed and
/// exported as gauges labelled by level.
fn print_profile(tree: &PprTree, metrics: &mut MetricSet) {
    use spatiotemporal_index::pprtree::check::{profile, PROFILE_INSTANTS};
    let rows = profile(tree);
    println!(
        "profile over {PROFILE_INSTANTS} instants:\n{:>5} {:>10} {:>9} {:>12} {:>12}",
        "level", "nodes_mean", "nodes_max", "mean_area", "mean_overlap"
    );
    for row in &rows {
        println!(
            "{:>5} {:>10.2} {:>9} {:>12.6} {:>12.6}",
            row.level, row.nodes_mean, row.nodes_max, row.mean_area, row.mean_overlap
        );
    }
    let gauges = [
        (
            "check_profile_nodes_alive_mean",
            "nodes alive at a sampled instant, mean over the instants",
        ),
        (
            "check_profile_nodes_alive_max",
            "nodes alive at a sampled instant, max over the instants",
        ),
        (
            "check_profile_mean_area",
            "mean MBR area of the nodes alive at a sampled instant",
        ),
        (
            "check_profile_mean_overlap",
            "mean overlap area of two siblings alive at the same instant",
        ),
    ];
    for (k, (name, help)) in gauges.into_iter().enumerate() {
        for row in &rows {
            let values = [
                row.nodes_mean,
                row.nodes_max as f64,
                row.mean_area,
                row.mean_overlap,
            ];
            let level = row.level.to_string();
            metrics.gauge_with(name, help, &[("level", &level)], values[k]);
        }
    }
}

/// `stidx build --bulk`: stream the dataset through the external-sort
/// bulk loader into a file-backed PPR-Tree, then persist it in the
/// standard `STIDX2` format (so `stidx check` / `query` / `stats` work
/// on it unchanged). The dataset is never materialized: objects flow
/// from [`DatasetReader`] straight into the loader's spill files, and
/// the tree pages land in a scratch `FileBackend` as they are packed.
fn bulk_build(
    data: &Path,
    out: &Path,
    metrics: &mut MetricSet,
    scale_stats: bool,
) -> Result<(), String> {
    let reader =
        DatasetReader::open(data).map_err(|e| format!("reading {}: {e}", data.display()))?;
    let expected = reader.remaining() as u64;
    println!("bulk-loading {expected} objects from {}...", data.display());

    // Scratch directory beside the output for the backing page file and
    // the sort spool; removed whether or not the build succeeds.
    let scratch = out.with_extension("bulk-scratch");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("creating scratch dir {}: {e}", scratch.display()))?;
    let result = bulk_build_in(reader, expected, &scratch, out, metrics, scale_stats);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn bulk_build_in(
    reader: DatasetReader,
    expected: u64,
    scratch: &Path,
    out: &Path,
    metrics: &mut MetricSet,
    scale_stats: bool,
) -> Result<(), String> {
    let backend = FileBackend::create(&scratch.join("tree.pages"))
        .map_err(|e| format!("creating the backing page file: {e}"))?;
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let store = PageStore::with_backend(Box::new(backend), config.ppr.buffer_pages);

    // Surface a mid-stream dataset read error through the iterator
    // without panicking: stash it, stop the stream, and check after.
    let read_err = std::cell::RefCell::new(None);
    let records = reader.map_while(|r| match r {
        Ok(o) => Some(ObjectRecord {
            id: o.id(),
            stbox: StBox::new(o.mbr_range(0, o.len()), o.lifetime()),
        }),
        Err(e) => {
            *read_err.borrow_mut() = Some(e);
            None
        }
    });
    let (mut index, stats) = SpatioTemporalIndex::bulk_build_ppr(records, &config, store, scratch)
        .map_err(|e| format!("bulk build failed: {e}"))?;
    if let Some(e) = read_err.into_inner() {
        return Err(format!("reading the dataset mid-stream: {e}"));
    }
    if stats.pieces != expected {
        return Err(format!(
            "dataset promised {expected} objects but yielded {}",
            stats.pieces
        ));
    }

    metrics.gauge(
        "bulk_pages_written",
        "pages the bulk loader wrote (all levels plus the root chain)",
        stats.pages_written as f64,
    );
    metrics.gauge(
        "bulk_peak_resident_pages",
        "peak node-sized working set held in memory during the build",
        stats.peak_resident_pages as f64,
    );
    metrics.gauge(
        "bulk_fill_factor",
        "entries recorded / (pages written x fanout)",
        stats.fill_factor,
    );
    metrics.gauge(
        "bulk_spilled_runs",
        "sorted runs spooled to disk by the external sort",
        stats.spilled_runs as f64,
    );
    // Write is the time spent appending page runs, a part of the leaf
    // and directory phases.
    let phases = [
        ("sort", stats.sort_s),
        ("leaf", stats.leaf_s),
        ("directory", stats.directory_s),
        ("write", stats.write_s),
    ];
    for (phase, seconds) in phases {
        metrics.gauge(
            &format!("bulk_{phase}_seconds"),
            &format!("seconds in the bulk build's {phase} phase"),
            seconds,
        );
    }
    if scale_stats {
        println!("pages written     {}", stats.pages_written);
        println!("  leaf pages      {}", stats.leaf_pages);
        println!("levels            {}", stats.levels);
        println!("slabs             {}", stats.slabs);
        println!("peak resident     {} pages", stats.peak_resident_pages);
        println!("fill factor       {:.3}", stats.fill_factor);
        println!("spilled runs      {}", stats.spilled_runs);
        for (phase, seconds) in phases {
            println!("{:<18}{seconds:.4} s", format!("{phase} phase"));
        }
    }

    let tree = index.as_ppr_mut().expect("bulk build is ppr-only");
    tree.save_to_file(out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "bulk-loaded {} pieces into {} pages; wrote {}",
        stats.pieces,
        stats.pages_written,
        out.display()
    );
    Ok(())
}

/// Replay a dataset as a live stream through the single-writer commit
/// pipeline: updates arrive in time order, a batch commits every
/// `--commit-every` instants (atomic snapshot publication each time),
/// and the sealed published version is saved as a PPR-Tree index. The
/// online splitter decides piece boundaries as the stream arrives, so
/// the resulting index is what a live deployment would have built — not
/// the offline split plan `stidx build` computes with full hindsight.
fn ingest(opts: &Flags, metrics: &mut MetricSet) -> Result<(), String> {
    let data = PathBuf::from(opts.need("data")?);
    let out = PathBuf::from(opts.need("out")?);
    remove_stale_temp(&out)?;
    let commit_every: u32 = match opts.get("commit-every") {
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err("--commit-every must be a positive integer".into()),
        },
        None => 8,
    };
    let wal_dir = opts.get("wal").map(PathBuf::from);
    let fsync = parse_fsync(opts.get("fsync"))?;
    let checkpoint_every: u64 = match opts.get("checkpoint-every") {
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => return Err("--checkpoint-every must be a positive integer".into()),
        },
        None => 4,
    };
    if wal_dir.is_none() && (opts.get("fsync").is_some() || opts.get("checkpoint-every").is_some())
    {
        return Err("--fsync and --checkpoint-every need --wal DIR".into());
    }

    let objects = load_dataset(&data).map_err(|e| format!("reading {}: {e}", data.display()))?;
    let mut updates: Vec<(u32, u64, Rect2)> = Vec::new();
    let mut finishes: Vec<(u32, u64)> = Vec::new();
    for obj in &objects {
        for (i, r) in obj.rects().iter().enumerate() {
            updates.push((obj.start() + i as u32, obj.id(), *r));
        }
        finishes.push((obj.lifetime().end, obj.id()));
    }
    updates.sort_by_key(|&(t, id, _)| (t, id));
    finishes.sort_unstable_by_key(|&(end, id)| (end, id));
    let horizon = finishes.iter().map(|&(end, _)| end).max().unwrap_or(0);

    println!(
        "replaying {} updates across {} objects as a live stream (commit every {commit_every} instants)...",
        updates.len(),
        objects.len()
    );
    let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    // Hidden fault-injection hook so the CLI tests can pin the stalled
    // exit path without a dataset that genuinely wedges the splitter.
    if std::env::var("STIDX_TEST_WEDGE_SEAL").as_deref() == Ok("1") {
        pipeline.wedge_seal_for_test();
    }
    if let Some(dir) = &wal_dir {
        let config = WalConfig {
            fsync,
            ..WalConfig::default()
        };
        pipeline
            .attach_durability(dir, config)
            .map_err(|e| format!("attaching WAL at {}: {e}", dir.display()))?;
    }
    // Hidden crash hook for the crash-matrix CI job: abort (no cleanup,
    // no destructors — a genuine crash) right after the Nth commit.
    let crash_after_commits: Option<u64> = std::env::var("STIDX_TEST_CRASH_AFTER_COMMITS")
        .ok()
        .and_then(|s| s.parse().ok());
    let durable = wal_dir.is_some();
    // Checkpoint cadence counts commit *calls*, not published versions:
    // a stream whose objects are all still open pins the watermark and
    // makes most commits publish nothing, yet the WAL keeps growing.
    let mut commit_calls: u64 = 0;
    let (mut ui, mut fi) = (0usize, 0usize);
    for t in 0..horizon {
        while ui < updates.len() && updates[ui].0 == t {
            let (t, id, rect) = updates[ui];
            enqueue_cli_op(&mut pipeline, durable, IngestOp::Update { id, rect, t })?;
            ui += 1;
        }
        while fi < finishes.len() && finishes[fi].0 == t + 1 {
            let (end, id) = finishes[fi];
            enqueue_cli_op(&mut pipeline, durable, IngestOp::Finish { id, end })?;
            fi += 1;
        }
        if (t + 1) % commit_every == 0 {
            let report = pipeline.commit();
            if let Some(r) = report.rejected.first() {
                return Err(format!("dataset operation rejected: {}", r.error));
            }
            if let Some(e) = report.durability {
                return Err(format!("commit at instant {t} could not sync the WAL: {e}"));
            }
            if let Some(e) = report.error {
                return Err(format!("commit at instant {t} failed: {e}"));
            }
            commit_calls += 1;
            if crash_after_commits == Some(commit_calls) {
                std::process::abort();
            }
            if durable && commit_calls.is_multiple_of(checkpoint_every) {
                pipeline
                    .checkpoint()
                    .map_err(|e| format!("checkpoint after instant {t}: {e}"))?;
            }
        }
    }
    seal_and_save(pipeline, &out, metrics, true)
}

/// Route one operation through the durable or volatile enqueue path.
fn enqueue_cli_op(
    pipeline: &mut IngestPipeline,
    durable: bool,
    op: IngestOp,
) -> Result<(), String> {
    if durable {
        pipeline
            .enqueue_durable(op)
            .map(|_| ())
            .map_err(|e| format!("logging an operation to the WAL: {e}"))
    } else {
        pipeline.enqueue(op);
        Ok(())
    }
}

/// Rebuild a pipeline from a WAL directory written by a durable
/// `stidx ingest` run that crashed, replaying the log tail, then seal
/// and save the index exactly as an uninterrupted run would have.
fn recover(opts: &Flags, metrics: &mut MetricSet) -> Result<(), String> {
    let dir = PathBuf::from(opts.need("wal")?);
    let out = PathBuf::from(opts.need("out")?);
    remove_stale_temp(&out)?;
    let (pipeline, report) = IngestPipeline::recover(
        &dir,
        OnlineSplitConfig::default(),
        PprParams::default(),
        WalConfig::default(),
    )
    .map_err(|e| format!("recovering from {}: {e}", dir.display()))?;
    match report.checkpoint_generation {
        Some(g) => println!(
            "recovered from checkpoint generation {g} at {}; replayed {} WAL record(s){}",
            report.stamp,
            report.wal_records_replayed,
            if report.torn_tail {
                " (torn tail truncated)"
            } else {
                ""
            }
        ),
        None => println!(
            "no checkpoint yet; replayed {} WAL record(s) onto an empty pipeline",
            report.wal_records_replayed
        ),
    }
    // Snapshot the gauges NOW, before sealing drains the restored queue:
    // non-zero ingest_queue_depth / ingest_pending_events alongside the
    // recovery_* counters are how a dashboard tells a recovered process
    // from a fresh one.
    pipeline.record_metrics(metrics);
    report.record_metrics(metrics);
    seal_and_save(pipeline, &out, metrics, false)
}

/// The common tail of `ingest` and `recover`: drain and finish every
/// stream, publish the final version, and save it as a PPR index.
fn seal_and_save(
    mut pipeline: IngestPipeline,
    out: &Path,
    metrics: &mut MetricSet,
    record: bool,
) -> Result<(), String> {
    let report = pipeline.seal();
    if let Some(r) = report.rejected.first() {
        return Err(format!("dataset operation rejected: {}", r.error));
    }
    if let Some(e) = report.durability {
        return Err(format!("sealing could not sync the WAL: {e}"));
    }
    if let Some(e) = report.error {
        return Err(format!("sealing the stream failed: {e}"));
    }
    // A stalled seal publishes nothing new: the stream was NOT fully
    // indexed, and saving the partial snapshot as if it were complete
    // would silently lose the tail of the data.
    if report.stalled {
        return Err(format!(
            "sealing stalled without forward progress: {} queued op(s) and {} pending \
             event(s) were never committed; the index on disk would be missing them",
            pipeline.queue_len(),
            pipeline.pending_events()
        ));
    }
    if pipeline.pending_events() > 0 {
        return Err("sealing left events uncommitted".into());
    }
    println!(
        "published {} after {} commits ({} records posted)",
        report.stamp,
        pipeline.commits(),
        pipeline.published().tree().total_records()
    );
    if record {
        pipeline.record_metrics(metrics);
    }

    let tree = pipeline.into_published_tree();
    tree.save_to_file(out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("wrote {} pages to {}", tree.num_pages(), out.display());
    Ok(())
}

/// `--fsync always|commit`.
fn parse_fsync(arg: Option<&str>) -> Result<FsyncPolicy, String> {
    match arg {
        None | Some("always") => Ok(FsyncPolicy::Always),
        Some("commit") => Ok(FsyncPolicy::Commit),
        Some(_) => Err("--fsync takes always or commit".into()),
    }
}

/// Drop the torn temp file a killed process may have left beside `out`.
/// The save path writes `out.tmp`, fsyncs, then renames, so the temp is
/// never the live index — a leftover is pure garbage from a crash
/// between those steps and would otherwise accumulate forever.
fn remove_stale_temp(out: &Path) -> Result<(), String> {
    let tmp = spatiotemporal_index::storage::persist::temp_sibling(out);
    match std::fs::remove_file(&tmp) {
        Ok(()) => {
            let _ = writeln!(
                std::io::stderr(),
                "note: removed stale temp file {} from an interrupted save",
                tmp.display()
            );
            Ok(())
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing stale temp {}: {e}", tmp.display())),
    }
}

fn query(opts: &Flags, metrics: &mut MetricSet) -> Result<(), String> {
    let path = PathBuf::from(opts.need("index")?);
    let area = parse_area(opts.need("area")?)?;
    let t: u32 = opts
        .need("time")?
        .parse()
        .map_err(|_| "--time must be an integer")?;
    let until: u32 = match opts.get("until") {
        Some(s) => s.parse().map_err(|_| "--until must be an integer")?,
        None => t.saturating_add(1),
    };
    if until <= t {
        return Err("--until must be after --time".into());
    }
    let range = TimeInterval::new(t, until);

    let mut index = SpatioTemporalIndex::open_file(&path)
        .map_err(|e| format!("opening {}: {e}", path.display()))?;
    index.reset_for_query();
    let (ids, qs) = index
        .query_with_stats(&area, &range)
        .map_err(|e| format!("querying {}: {e}", path.display()))?;
    let reads = qs.disk_reads;
    qs.record_metrics(metrics, "stidx_query");
    let mut out = String::with_capacity(ids.len() * 8 + 64);
    out.push_str(&format!("{} objects, {reads} disk reads\n", ids.len()));
    for id in ids {
        out.push_str(&format!("{id}\n"));
    }
    print_or_pipe(&out)
}

/// Write to stdout, treating a closed pipe (`stidx query | head`) as a
/// normal early exit instead of a panic.
fn print_or_pipe(text: &str) -> Result<(), String> {
    match std::io::stdout().lock().write_all(text.as_bytes()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing to stdout: {e}")),
    }
}
