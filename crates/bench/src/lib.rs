//! Shared harness for the `sti-bench` registry binary.
//!
//! Every entry of `sti-bench` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the experiment index). By default the
//! datasets are scaled down (500–4000 objects instead of 10k–80k) so the
//! whole suite runs in minutes; pass `--paper` for the published sizes,
//! or `--sizes=a,b,c` for custom ones.

use std::path::PathBuf;
use std::time::Instant;
use sti_core::{
    DistributionAlgorithm, IndexBackend, IndexConfig, ObjectRecord, Parallelism,
    SingleSplitAlgorithm, SpatioTemporalIndex, SplitBudget, SplitPlan,
};
use sti_datagen::{Query, RailwayDatasetSpec, RandomDatasetSpec};
use sti_obs::{JsonValue, QueryStats};
use sti_trajectory::RasterizedObject;

/// Dataset sizes used when an entry is invoked without flags. The ratios
/// mirror the paper's 10k/30k/50k/80k ladder.
pub const DEFAULT_SIZES: [usize; 4] = [500, 1000, 2000, 4000];

/// The paper's dataset sizes (Table I).
pub const PAPER_SIZES: [usize; 4] = [10_000, 30_000, 50_000, 80_000];

/// Default ladder for the I/O figures (15–18, railway, ablations): these
/// never run the quadratic dynamic programs, so they afford enough
/// density for page-level effects to show.
pub const IO_SIZES: [usize; 4] = [2_500, 5_000, 10_000, 20_000];

/// Scale tier beyond the paper ladder. `--scale=mid|big` switches the
/// tier-aware entries (`fig15`, `throughput`) from the in-memory
/// incremental build onto the out-of-core bulk-loaded `FileBackend`
/// path, with a warm shared buffer — at a million objects the paper's
/// reset-per-query methodology measures nothing but compulsory misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// The paper-shaped figure runs (no `--scale=` flag).
    #[default]
    Paper,
    /// 100k-object smoke tier: same code path as `Big`, minutes cheaper.
    Mid,
    /// The million-object scale gate tier.
    Big,
}

impl Tier {
    /// Parse a tier name (`mid` / `big`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "mid" => Some(Tier::Mid),
            "big" => Some(Tier::Big),
            _ => None,
        }
    }

    /// Objects in the tier's generated dataset (0 for `Paper`, whose
    /// entries use their own size ladders).
    pub fn objects(self) -> usize {
        match self {
            Tier::Paper => 0,
            Tier::Mid => 100_000,
            Tier::Big => 1_000_000,
        }
    }

    /// Flag-spelling of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Paper => "paper",
            Tier::Mid => "mid",
            Tier::Big => "big",
        }
    }
}

/// Parsed command-line scale options.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Dataset sizes to sweep.
    pub sizes: Vec<usize>,
    /// True when running at published scale.
    pub paper: bool,
    /// Queries per set (paper: 1000).
    pub queries: usize,
    /// Worker threads for the split-planning phase
    /// (`--threads=auto|seq|N`; output is identical for every setting).
    pub threads: Parallelism,
    /// Machine-readable output: `--json <path>` / `--json=<path>` writes
    /// a `BENCH_<name>.json` record next to the printed tables. A bare
    /// `--json` (empty path) uses the default `BENCH_<name>.json` in the
    /// working directory.
    pub json: Option<PathBuf>,
    /// Scale tier (`--scale=mid|big`); [`Tier::Paper`] without the flag.
    pub tier: Tier,
    /// Pre-generated STDAT dataset for the scale tier (`--data=PATH`,
    /// written by `stidx generate`); the tier generates its dataset in
    /// process when absent.
    pub data: Option<PathBuf>,
}

impl Scale {
    /// Parse `--paper`, `--sizes=a,b,c`, `--queries=n`, `--threads=t`,
    /// `--json[=path]`, `--scale=mid|big` and `--data=path`, with
    /// `defaults` as the unscaled size ladder.
    ///
    /// # Panics
    /// On an unknown or malformed flag.
    pub fn parse(defaults: &[usize], args: Vec<String>) -> Self {
        let mut scale = Scale {
            sizes: defaults.to_vec(),
            paper: false,
            queries: 1000,
            threads: Parallelism::Sequential,
            json: None,
            tier: Tier::Paper,
            data: None,
        };
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            if arg == "--paper" {
                scale.paper = true;
                scale.sizes = PAPER_SIZES.to_vec();
            } else if let Some(list) = arg.strip_prefix("--sizes=") {
                scale.sizes = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes takes integers"))
                    .collect();
            } else if let Some(n) = arg.strip_prefix("--queries=") {
                scale.queries = n.parse().expect("--queries takes an integer");
            } else if let Some(t) = arg.strip_prefix("--threads=") {
                scale.threads = Parallelism::parse(t).expect("--threads takes auto, seq, or N");
            } else if arg == "--json" {
                // Optional value: `--json out.json` or a bare `--json`
                // (empty path = the entry's default BENCH_<name>.json).
                if let Some(next) = args.get(i + 1).filter(|a| !a.starts_with("--")) {
                    scale.json = Some(PathBuf::from(next));
                    i += 1;
                } else {
                    scale.json = Some(PathBuf::new());
                }
            } else if let Some(p) = arg.strip_prefix("--json=") {
                scale.json = Some(PathBuf::from(p));
            } else if let Some(t) = arg.strip_prefix("--scale=") {
                scale.tier =
                    Tier::parse(t).unwrap_or_else(|| panic!("--scale takes mid or big, not {t:?}"));
            } else if let Some(p) = arg.strip_prefix("--data=") {
                scale.data = Some(PathBuf::from(p));
            } else {
                panic!(
                    "unknown argument {arg} \
                     (expected --paper, --sizes=.., --queries=.., --threads=.., --json[=path], \
                      --scale=mid|big, --data=path)"
                );
            }
            i += 1;
        }
        scale
    }

    /// Human-readable label for a size (e.g. "10k").
    pub fn label(n: usize) -> String {
        if n.is_multiple_of(1000) && n > 0 {
            format!("{}k", n / 1000)
        } else {
            n.to_string()
        }
    }
}

/// Generate (deterministically) the random dataset of `n` objects.
pub fn random_dataset(n: usize) -> Vec<RasterizedObject> {
    RandomDatasetSpec::paper(n).generate()
}

/// Generate (deterministically) the railway dataset of `n` trains.
pub fn railway_dataset(n: usize) -> Vec<RasterizedObject> {
    RailwayDatasetSpec::paper(n).generate_rasterized()
}

/// The unsplit record of one object: its MBR over its whole lifetime.
/// The scale tiers index raw pieces — at a million short-lived objects
/// the split planner is not the subject under test.
pub fn object_record(o: &RasterizedObject) -> ObjectRecord {
    ObjectRecord {
        id: o.id(),
        stbox: sti_geom::StBox::new(o.mbr_range(0, o.len()), o.lifetime()),
    }
}

/// Stream a scale tier's records: from an STDAT dataset file when
/// `--data` was given (the CI cache path, written by `stidx generate`),
/// else straight from the deterministic generator — both orders are
/// identical, so the built tree is too.
///
/// # Panics
/// On an unreadable or corrupt `--data` file (a bench run on the wrong
/// dataset must die loudly, not silently regenerate).
pub fn tier_records(
    tier: Tier,
    data: Option<&std::path::Path>,
) -> Box<dyn Iterator<Item = ObjectRecord>> {
    assert!(tier != Tier::Paper, "tier_records needs --scale=mid|big");
    match data {
        Some(path) => {
            let reader = sti_datagen::DatasetReader::open(path)
                .unwrap_or_else(|e| panic!("--data={}: {e}", path.display()));
            Box::new(reader.map(|o| object_record(&o.expect("corrupt dataset object"))))
        }
        None => {
            // The spec iterator borrows the spec; a bench run builds
            // exactly one, so leaking it buys a 'static stream.
            let spec: &'static _ = Box::leak(Box::new(RandomDatasetSpec::big(tier.objects())));
            Box::new(spec.iter().map(|o| object_record(&o)))
        }
    }
}

/// Buffer pool size for the warm scale-tier runs: large enough to keep
/// the directory hot, far too small to cache the leaf level.
pub const TIER_BUFFER_PAGES: usize = 256;

/// Bulk-load a tier's records into a PPR-Tree backed by a fresh
/// `FileBackend` under a scratch directory (which also hosts the sort
/// spool). Returns the index, the loader's stats, and the scratch dir —
/// callers remove it when the index is dropped.
pub fn bulk_tier_index(
    records: impl IntoIterator<Item = ObjectRecord>,
    tag: &str,
) -> (SpatioTemporalIndex, sti_pprtree::BulkStats, PathBuf) {
    let dir = std::env::temp_dir().join(format!("sti-bench-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let backend =
        sti_storage::FileBackend::create(&dir.join("tree.pages")).expect("create backing file");
    let store = sti_storage::PageStore::with_backend(Box::new(backend), TIER_BUFFER_PAGES);
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let (index, stats) = SpatioTemporalIndex::bulk_build_ppr(records, &config, store, &dir)
        .expect("bulk build failed");
    (index, stats, dir)
}

/// The scale-tier query mix: small snapshot probes with every eighth
/// query a medium interval scan: one-shot leaf floods washing through a
/// pool that the probes' hot directory traffic wants to keep.
/// Deterministic: same cardinality, same mix.
pub fn tier_queries(cardinality: usize) -> Vec<Query> {
    let mut scan_spec = sti_datagen::QuerySetSpec::medium_range();
    scan_spec.cardinality = cardinality / 8;
    let mut probe_spec = sti_datagen::QuerySetSpec::small_snapshot();
    probe_spec.cardinality = cardinality - scan_spec.cardinality;
    let scans = scan_spec.generate();
    let probes = probe_spec.generate();
    let mut out = Vec::with_capacity(cardinality);
    let (mut scan, mut probe) = (scans.into_iter(), probes.into_iter());
    for i in 0..cardinality {
        let q = if i % 8 == 7 {
            scan.next().or_else(|| probe.next())
        } else {
            probe.next().or_else(|| scan.next())
        };
        out.extend(q);
    }
    out
}

/// Warm-buffer query profile: per-query stats are deltas from the
/// tree's own probes, and residency persists across the whole set — the
/// opposite of [`query_io_profile`]'s reset-per-query methodology.
pub fn warm_query_io_profile(index: &SpatioTemporalIndex, queries: &[Query]) -> IoProfile {
    profile_queries(queries, |q| {
        index
            .query_with_stats(&q.area, &q.range)
            .expect("query failed")
            .1
    })
}

/// Plan splits and materialize the records.
pub fn split_records(
    objects: &[RasterizedObject],
    single: SingleSplitAlgorithm,
    dist: DistributionAlgorithm,
    budget: SplitBudget,
) -> Vec<ObjectRecord> {
    SplitPlan::build(objects, single, dist, budget, None).records(objects)
}

/// Build an index with the paper's parameters.
pub fn build_index(records: &[ObjectRecord], backend: IndexBackend) -> SpatioTemporalIndex {
    SpatioTemporalIndex::build(records, &IndexConfig::paper(backend))
        .expect("in-memory build cannot fail")
}

/// Per-query-set I/O distribution, measured via `sti-obs` deltas: the
/// paper's average plus percentiles and the summed [`QueryStats`].
///
/// `avg` is total disk reads over query count, so a table cell printed
/// from it matches the JSON field digit for digit.
#[derive(Debug, Clone, PartialEq)]
pub struct IoProfile {
    /// Average disk reads per query (the paper's figure of merit).
    pub avg: f64,
    /// Median disk reads (nearest-rank on the sorted per-query counts).
    pub p50: u64,
    /// 95th-percentile disk reads.
    pub p95: u64,
    /// Worst single query.
    pub max: u64,
    /// Number of queries measured.
    pub queries: usize,
    /// Wall-clock for the whole query set, in seconds.
    pub wall_secs: f64,
    /// Summed per-query deltas (nodes visited, entries scanned, ...).
    pub totals: QueryStats,
}

impl IoProfile {
    /// Aggregate a batch of per-query deltas.
    pub fn from_stats(per_query: &[QueryStats], wall_secs: f64) -> IoProfile {
        assert!(!per_query.is_empty(), "profile of an empty query set");
        let mut reads: Vec<u64> = per_query.iter().map(|s| s.disk_reads).collect();
        reads.sort_unstable();
        let total: u64 = reads.iter().sum();
        let rank = |pct: usize| reads[(reads.len() - 1) * pct / 100];
        IoProfile {
            avg: total as f64 / per_query.len() as f64,
            p50: rank(50),
            p95: rank(95),
            max: reads[reads.len() - 1],
            queries: per_query.len(),
            wall_secs,
            totals: per_query.iter().copied().sum(),
        }
    }

    /// Structured form for `BENCH_*.json`. `avg_formatted` repeats `avg`
    /// through the `{:.2}` formatting the tables print, so the JSON can
    /// be diffed against the human output verbatim.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("avg", JsonValue::Num(self.avg)),
            ("avg_formatted", JsonValue::str(format!("{:.2}", self.avg))),
            ("p50", JsonValue::UInt(self.p50)),
            ("p95", JsonValue::UInt(self.p95)),
            ("max", JsonValue::UInt(self.max)),
            ("queries", JsonValue::UInt(self.queries as u64)),
            ("wall_secs", JsonValue::Num(self.wall_secs)),
            ("io", self.totals.to_json()),
        ])
    }
}

/// One measured series of a table: which row it belongs to, the series
/// (column) name, and the measured profile.
#[derive(Debug, Clone)]
pub struct SeriesProfile {
    /// Row label, e.g. a split budget ("150%") or a size ("10k").
    pub row: String,
    /// Series name, e.g. "ppr" or "rstar".
    pub series: String,
    /// The measured I/O distribution.
    pub profile: IoProfile,
}

/// Convenience constructor for [`SeriesProfile`].
pub fn series(
    row: impl Into<String>,
    name: impl Into<String>,
    profile: IoProfile,
) -> SeriesProfile {
    SeriesProfile {
        row: row.into(),
        series: name.into(),
        profile,
    }
}

/// Run one [`QueryStats`]-returning closure per query (the closure is in
/// charge of the per-query buffer reset) and aggregate the deltas.
fn profile_queries(queries: &[Query], mut run: impl FnMut(&Query) -> QueryStats) -> IoProfile {
    assert!(!queries.is_empty());
    let start = Instant::now();
    let per: Vec<QueryStats> = queries.iter().map(&mut run).collect();
    IoProfile::from_stats(&per, start.elapsed().as_secs_f64())
}

/// Run a query set with the buffer reset before every query, as in §V,
/// and return its [`IoProfile`]; `profile.avg` is the paper's average
/// number of disk accesses.
pub fn query_io_profile(index: &mut SpatioTemporalIndex, queries: &[Query]) -> IoProfile {
    profile_queries(queries, |q| {
        index.reset_for_query();
        index
            .query_with_stats(&q.area, &q.range)
            .expect("in-memory query cannot fail")
            .1
    })
}

/// [`query_io_profile`] for a raw [`sti_rstar::RStarTree`] (outside the
/// facade): queries are converted with [`sti_geom::Rect3::from_query`]
/// at `time_scale`, and the buffer is reset per query.
pub fn rstar_query_io_profile(
    tree: &mut sti_rstar::RStarTree,
    queries: &[Query],
    time_scale: f64,
) -> IoProfile {
    profile_queries(queries, |q| {
        tree.reset_for_query();
        let mut out = Vec::new();
        tree.query(
            &sti_geom::Rect3::from_query(&q.area, &q.range, time_scale),
            &mut out,
        )
        .expect("in-memory query cannot fail")
    })
}

/// Accumulates everything an entry prints — tables, measured
/// profiles, free-form notes — and optionally serializes it
/// as a `BENCH_<name>.json` record when the entry was invoked with
/// `--json`.
///
/// Usage: create one per entry, route every `print_table` call through
/// [`BenchReport::table`] / [`BenchReport::table_with_profiles`], and
/// call [`BenchReport::finish`] last.
pub struct BenchReport {
    name: String,
    out_path: Option<PathBuf>,
    scale_json: JsonValue,
    tables: Vec<JsonValue>,
    notes: Vec<(String, JsonValue)>,
    started: Instant,
}

impl BenchReport {
    /// Start a report for the entry `name` (e.g. "fig15").
    pub fn new(name: &str, scale: &Scale) -> BenchReport {
        let out_path = scale.json.as_ref().map(|p| {
            if p.as_os_str().is_empty() {
                PathBuf::from(format!("BENCH_{name}.json"))
            } else {
                p.clone()
            }
        });
        let scale_json = JsonValue::object([
            ("paper", JsonValue::Bool(scale.paper)),
            (
                "sizes",
                JsonValue::array(scale.sizes.iter().map(|&n| JsonValue::UInt(n as u64))),
            ),
            ("queries", JsonValue::UInt(scale.queries as u64)),
            ("threads", JsonValue::str(format!("{:?}", scale.threads))),
            ("tier", JsonValue::str(scale.tier.name())),
        ]);
        BenchReport {
            name: name.to_string(),
            out_path,
            scale_json,
            tables: Vec::new(),
            notes: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Print a table and record it (headers and cells verbatim).
    pub fn table(&mut self, title: &str, headers: &[&str], rows: &[Vec<String>]) {
        self.table_with_profiles(title, headers, rows, Vec::new());
    }

    /// Print a table and record it together with the measured I/O
    /// profiles behind its cells.
    pub fn table_with_profiles(
        &mut self,
        title: &str,
        headers: &[&str],
        rows: &[Vec<String>],
        profiles: Vec<SeriesProfile>,
    ) {
        print_table(title, headers, rows);
        let mut table = JsonValue::object([
            ("title", JsonValue::str(title)),
            (
                "headers",
                JsonValue::array(headers.iter().map(|&h| JsonValue::str(h))),
            ),
            (
                "rows",
                JsonValue::array(
                    rows.iter()
                        .map(|row| JsonValue::array(row.iter().map(|c| JsonValue::str(c.clone())))),
                ),
            ),
        ]);
        if !profiles.is_empty() {
            table.push_field(
                "profiles",
                JsonValue::array(profiles.iter().map(|sp| {
                    let mut obj = JsonValue::object([
                        ("row", JsonValue::str(sp.row.clone())),
                        ("series", JsonValue::str(sp.series.clone())),
                    ]);
                    if let JsonValue::Obj(fields) = sp.profile.to_json() {
                        for (k, v) in fields {
                            obj.push_field(k, v);
                        }
                    }
                    obj
                })),
            );
        }
        self.tables.push(table);
    }

    /// Attach a free-form key/value to the record.
    pub fn note(&mut self, key: &str, value: JsonValue) {
        self.notes.push((key.to_string(), value));
    }

    /// Record the process's resident set right now as `rss_mb` — call
    /// it after the timed query phase, so what is on record is the
    /// memory the index serves from and not the loader's working set.
    pub fn note_rss(&mut self) {
        if let Some(mib) = proc_status_mib("VmRSS") {
            self.note("rss_mb", JsonValue::Num(mib));
        }
    }

    /// Serialize the record if `--json` was given. Call once, last.
    /// Every record carries the host's hardware thread count (wall-time
    /// numbers mean nothing without it) and, where the OS reports it,
    /// the process's peak resident set, which `check_regression.py`
    /// gates.
    pub fn finish(mut self) {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        self.note("host_threads", JsonValue::UInt(host as u64));
        if let Some(mib) = proc_status_mib("VmHWM") {
            self.note("peak_rss_mb", JsonValue::Num(mib));
        }
        let Some(path) = self.out_path else {
            return;
        };
        let mut doc = JsonValue::object([
            ("schema", JsonValue::str("sti-bench/1")),
            ("bench", JsonValue::str(self.name.clone())),
            ("scale", self.scale_json),
            (
                "wall_secs",
                JsonValue::Num(self.started.elapsed().as_secs_f64()),
            ),
            ("tables", JsonValue::Arr(self.tables)),
        ]);
        if !self.notes.is_empty() {
            doc.push_field("notes", JsonValue::Obj(self.notes));
        }
        match std::fs::write(&path, doc.render_pretty()) {
            Ok(()) => println!("\nwrote {}", path.display()),
            Err(e) => {
                eprintln!("error: could not write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`) in MiB;
/// `None` where there is no such file.
fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Print a simple aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Format seconds for the CPU-time figures (log-scale in the paper).
pub fn fmt_secs(s: f64) -> String {
    if s < 0.001 {
        format!("{:.0}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_datagen::QuerySetSpec;

    #[test]
    fn datasets_are_deterministic() {
        let a = random_dataset(50);
        let b = random_dataset(50);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[7], b[7]);
    }

    #[test]
    fn avg_query_io_is_positive() {
        let objs = random_dataset(200);
        let records = split_records(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            SplitBudget::Percent(50.0),
        );
        let mut idx = build_index(&records, IndexBackend::PprTree);
        let mut spec = QuerySetSpec::mixed_snapshot();
        spec.cardinality = 20;
        let queries = spec.generate();
        let profile = query_io_profile(&mut idx, &queries);
        let io = profile.avg;
        assert!(io >= 1.0, "every query reads at least the root: {io}");
        assert_eq!(profile.queries, queries.len());
        assert!(profile.max >= profile.p95 && profile.p95 >= profile.p50);
        assert_eq!(profile.totals.disk_writes, 0, "queries are read-only");
        assert!(profile.totals.nodes_visited > 0);
        // The formatted average is what the tables print.
        let cell = format!("{io:.2}");
        match profile.to_json() {
            JsonValue::Obj(fields) => {
                let formatted = fields
                    .iter()
                    .find(|(k, _)| k == "avg_formatted")
                    .map(|(_, v)| v.clone());
                assert_eq!(formatted, Some(JsonValue::str(cell)));
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn scale_parses_json_flag_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let s = Scale::parse(&DEFAULT_SIZES, args(&["--json", "out.json"]));
        assert_eq!(s.json, Some(PathBuf::from("out.json")));
        let s = Scale::parse(&DEFAULT_SIZES, args(&["--json=x.json", "--queries=5"]));
        assert_eq!(s.json, Some(PathBuf::from("x.json")));
        assert_eq!(s.queries, 5);
        // Bare --json followed by another flag: default path sentinel.
        let s = Scale::parse(&DEFAULT_SIZES, args(&["--json", "--paper"]));
        assert_eq!(s.json, Some(PathBuf::new()));
        assert!(s.paper);
        let s = Scale::parse(&DEFAULT_SIZES, args(&[]));
        assert_eq!(s.json, None);
    }

    #[test]
    fn io_profile_percentiles_nearest_rank() {
        let per: Vec<QueryStats> = (1..=100u64)
            .map(|n| QueryStats {
                disk_reads: n,
                ..QueryStats::new()
            })
            .collect();
        let p = IoProfile::from_stats(&per, 0.0);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p95, 95);
        assert_eq!(p.max, 100);
        assert_eq!(p.avg.to_bits(), 50.5f64.to_bits());
    }

    #[test]
    fn label_formatting() {
        assert_eq!(Scale::label(10_000), "10k");
        assert_eq!(Scale::label(512), "512");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(0.0000005).ends_with("µs"));
        assert!(fmt_secs(0.05).ends_with("ms"));
        assert!(fmt_secs(2.0).ends_with('s'));
    }
}
