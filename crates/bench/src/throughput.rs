//! Concurrent query throughput over one shared index.
//!
//! The paper's figures reset the buffer before every query to reproduce
//! §V's cold-cache methodology; this bench does the opposite. It keeps
//! one index (and its buffer pool) shared and warm, fans the
//! whole query set across worker threads with
//! [`SpatioTemporalIndex::query_batch_with_stats`], and reports queries
//! per second as the thread count grows.
//!
//! Every parallel pass is self-checked against the sequential baseline:
//! result sets must be byte-identical (determinism) and the summed
//! per-query [`sti_obs::QueryStats`] must equal the global I/O counter
//! delta (conservation). A run that breaks either aborts loudly — a
//! throughput number from a wrong answer is worse than no number.
//!
//! `--threads=N` sets the widest fan-out measured (a 1..=N power-of-two
//! ladder is swept); `--json` writes `BENCH_throughput.json` for the
//! CI perf gate. Only the sequential profile is exact-gated — parallel
//! hit/miss attribution depends on scheduling, so the gate checks
//! parallel rows by wall-time tolerance alone.

use sti_bench::{
    build_index, bulk_tier_index, random_dataset, series, split_records, tier_records, timed,
    BenchReport, IoProfile, Scale, Tier,
};
use sti_core::{
    DistributionAlgorithm, IndexBackend, Parallelism, QueryRequest, SingleSplitAlgorithm,
    SpatioTemporalIndex, SplitBudget,
};
use sti_datagen::QuerySetSpec;
use sti_obs::{JsonValue, QueryStats};

/// Power-of-two thread ladder from 1 up to (and always including) `max`.
fn ladder(max: usize) -> Vec<usize> {
    let mut steps = vec![1usize];
    let mut w = 2;
    while w < max {
        steps.push(w);
        w *= 2;
    }
    if max > 1 {
        steps.push(max);
    }
    steps
}

/// Sorted per-query id sets, for determinism comparison.
fn id_sets(outcomes: &[sti_core::QueryOutcome]) -> Vec<Vec<u64>> {
    outcomes
        .iter()
        .map(|o| o.as_ref().expect("in-memory query cannot fail").0.clone())
        .collect()
}

fn batch_stats(outcomes: &[sti_core::QueryOutcome]) -> Vec<QueryStats> {
    outcomes
        .iter()
        .map(|o| o.as_ref().expect("in-memory query cannot fail").1)
        .collect()
}

/// Run one backend's sweep; returns (table rows, sequential profile).
///
/// Takes the index by shared reference: a warm-throughput sweep never
/// needs `&mut`. Between ladder steps it opens a fresh accounting
/// window with [`SpatioTemporalIndex::reset_counters`] — the interior-
/// mutable half of the old `reset_for_query` — so the conservation
/// check reads absolute counters instead of deltas, without claiming
/// exclusive access to an index that worker threads are about to share.
fn sweep(
    index: &SpatioTemporalIndex,
    label: &str,
    requests: &[QueryRequest],
    threads: &[usize],
) -> (Vec<Vec<String>>, IoProfile) {
    let (baseline, base_secs) =
        timed(|| index.query_batch_with_stats(requests, Parallelism::Sequential));
    let expected = id_sets(&baseline);
    let seq_profile = IoProfile::from_stats(&batch_stats(&baseline), base_secs);

    let mut rows = Vec::new();
    for &workers in threads {
        index.reset_counters();
        let (outcomes, secs) =
            timed(|| index.query_batch_with_stats(requests, Parallelism::fixed(workers)));
        let after = index.io_stats();

        // Self-check 1: thread count must never change an answer.
        assert_eq!(
            id_sets(&outcomes),
            expected,
            "{label}: parallel results diverged from sequential at {workers} threads"
        );
        // Self-check 2: per-query attribution must sum to the global
        // counter movement even under concurrency.
        let total: QueryStats = batch_stats(&outcomes).iter().copied().sum();
        assert_eq!(
            total.disk_reads, after.reads,
            "{label}: disk-read conservation broke at {workers} threads"
        );
        assert_eq!(
            total.buffer_hits, after.buffer_hits,
            "{label}: buffer-hit conservation broke at {workers} threads"
        );

        let qps = requests.len() as f64 / secs.max(1e-9);
        rows.push(vec![
            label.to_string(),
            workers.to_string(),
            format!("{secs:.4}"),
            format!("{qps:.0}"),
            format!("{:.2}x", base_secs / secs.max(1e-9)),
        ]);
    }
    (rows, seq_profile)
}

/// The scale tier: the thread ladder over one bulk-loaded `FileBackend`
/// tree instead of the in-memory incremental builds. The R\*-Tree
/// baseline is skipped — incrementally inserting a million boxes is the
/// build cost this tier exists to avoid.
fn scale_tier(scale: Scale) {
    let mut report = BenchReport::new("throughput", &scale);
    let n = scale.tier.objects();
    let requests: Vec<QueryRequest> = sti_bench::tier_queries(scale.queries)
        .iter()
        .map(|q| QueryRequest {
            area: q.area,
            range: q.range,
        })
        .collect();

    let (index, stats, dir) = bulk_tier_index(
        tier_records(scale.tier, scale.data.as_deref()),
        "throughput",
    );
    let threads = ladder(scale.threads.workers());

    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (rows, seq_profile) = sweep(&index, "ppr-bulk", &requests, &threads);
    report.table_with_profiles(
        &format!(
            "Query throughput ({} tier) — {n} bulk-loaded pieces on FileBackend, \
             {} queries, shared warm buffer (host has {host} hardware threads)",
            scale.tier.name(),
            requests.len(),
        ),
        &["Backend", "Threads", "Wall (s)", "QPS", "Speedup"],
        &rows,
        vec![series("seq", "ppr-bulk", seq_profile)],
    );
    report.note_rss();
    report.note(
        "bulk_stats",
        JsonValue::object([
            ("pieces", JsonValue::UInt(stats.pieces)),
            ("pages_written", JsonValue::UInt(stats.pages_written)),
            ("fill_factor", JsonValue::Num(stats.fill_factor)),
        ]),
    );
    println!(
        "\nself-checks passed: parallel results byte-identical to sequential, \
         per-query stats conserved"
    );
    report.finish();
    drop(index);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Entry point: the in-memory sweep over both structures, or the bulk
/// tier under `--scale=mid|big`.
pub fn throughput(scale: Scale) {
    if scale.tier != Tier::Paper {
        return scale_tier(scale);
    }
    let mut report = BenchReport::new("throughput", &scale);
    let n = scale.sizes[0];
    let objects = random_dataset(n);
    let records = split_records(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(10.0),
    );
    let mut spec = QuerySetSpec::small_range();
    spec.cardinality = scale.queries;
    let requests: Vec<QueryRequest> = spec
        .generate()
        .iter()
        .map(|q| QueryRequest {
            area: q.area,
            range: q.range,
        })
        .collect();

    let threads = ladder(scale.threads.workers());
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    for backend in [IndexBackend::PprTree, IndexBackend::RStar] {
        let index = build_index(&records, backend);
        let label = match backend {
            IndexBackend::PprTree => "ppr",
            IndexBackend::RStar => "rstar",
        };
        let (backend_rows, seq_profile) = sweep(&index, label, &requests, &threads);
        rows.extend(backend_rows);
        profiles.push(series("seq", label, seq_profile));
    }

    report.table_with_profiles(
        &format!(
            "Query throughput — {} random dataset, {} queries, shared warm buffer \
             (host has {host} hardware threads)",
            Scale::label(n),
            requests.len(),
        ),
        &["Backend", "Threads", "Wall (s)", "QPS", "Speedup"],
        &rows,
        profiles,
    );
    println!(
        "\nself-checks passed: parallel results byte-identical to sequential, \
         per-query stats conserved"
    );
    report.finish();
}
