//! Figure 15: small range queries on the "50k" random dataset as the
//! split budget grows, PPR-Tree vs 3D R\*-Tree.
//!
//! Expected shape: PPR-Tree I/O falls substantially with more splits;
//! the R\*-Tree *degrades* (more records → more nodes → more overlap).

use sti_bench::{
    build_index, bulk_tier_index, query_io_profile, random_dataset, series, split_records,
    tier_records, warm_query_io_profile, BenchReport, Scale, Tier,
};
use sti_core::{DistributionAlgorithm, IndexBackend, SingleSplitAlgorithm, SplitBudget};
use sti_datagen::QuerySetSpec;
use sti_obs::JsonValue;

const BUDGETS: [f64; 8] = [0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0];

/// The least fill factor a scale-tier bulk tree may have. Packing
/// density is the bulk tier's space and I/O: a loader that falls back
/// to half-empty pages still answers correctly, so nothing else here
/// would notice.
const MIN_FILL: f64 = 0.8;

/// The scale tier: one bulk-loaded `FileBackend` tree, queried with a
/// warm shared LRU buffer. Exits non-zero if the tree is packed below
/// [`MIN_FILL`].
fn scale_tier(scale: Scale) {
    let mut report = BenchReport::new("fig15", &scale);
    let n = scale.tier.objects();
    let queries = sti_bench::tier_queries(scale.queries);

    let (mut index, stats, dir) =
        bulk_tier_index(tier_records(scale.tier, scale.data.as_deref()), "fig15");
    report.note(
        "bulk_stats",
        JsonValue::object([
            ("pieces", JsonValue::UInt(stats.pieces)),
            ("pages_written", JsonValue::UInt(stats.pages_written)),
            ("leaf_pages", JsonValue::UInt(stats.leaf_pages)),
            ("levels", JsonValue::UInt(u64::from(stats.levels))),
            ("fill_factor", JsonValue::Num(stats.fill_factor)),
            ("spilled_runs", JsonValue::UInt(stats.spilled_runs)),
            ("sort_s", JsonValue::Num(stats.sort_s)),
            ("leaf_s", JsonValue::Num(stats.leaf_s)),
            ("directory_s", JsonValue::Num(stats.directory_s)),
            ("write_s", JsonValue::Num(stats.write_s)),
        ]),
    );

    index.clear_buffer();
    index.reset_counters();
    let profile = warm_query_io_profile(&index, &queries);
    let avg_reads = profile.avg;
    report.note_rss();
    let rows = vec![vec![
        "lru".to_string(),
        format!("{:.2}", profile.avg),
        profile.p50.to_string(),
        profile.p95.to_string(),
    ]];
    report.table_with_profiles(
        &format!(
            "Figure 15 ({} tier) — {n} bulk-loaded pieces on FileBackend, warm {}-page buffer",
            scale.tier.name(),
            sti_bench::TIER_BUFFER_PAGES,
        ),
        &["Policy", "Avg I/O", "p50", "p95"],
        &rows,
        vec![series("lru", "lru", profile)],
    );
    println!(
        "\nbulk tree: pages {} (leaf {}), fill {:.3}, {:.2} avg reads; \
         sort {:.3} s, leaf {:.3} s, directory {:.3} s, write {:.3} s",
        stats.pages_written,
        stats.leaf_pages,
        stats.fill_factor,
        avg_reads,
        stats.sort_s,
        stats.leaf_s,
        stats.directory_s,
        stats.write_s,
    );
    report.finish();
    drop(index);
    let _ = std::fs::remove_dir_all(&dir);
    if stats.fill_factor < MIN_FILL {
        eprintln!(
            "error: the bulk tree is packed {:.3} full, below {MIN_FILL}",
            stats.fill_factor
        );
        std::process::exit(1);
    }
}

fn main() {
    let scale = Scale::from_args_with(&sti_bench::IO_SIZES);
    if scale.tier != Tier::Paper {
        return scale_tier(scale);
    }
    let mut report = BenchReport::new("fig15", &scale);
    // The paper uses the 50k dataset: third entry of the ladder.
    let n = scale.sizes[scale.sizes.len().saturating_sub(2)];
    let objects = random_dataset(n);
    let mut spec = QuerySetSpec::small_range();
    spec.cardinality = scale.queries;
    let queries = spec.generate();

    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    for pct in BUDGETS {
        let records = split_records(
            &objects,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(pct),
        );
        let mut ppr = build_index(&records, IndexBackend::PprTree);
        let mut rstar = build_index(&records, IndexBackend::RStar);
        let ppr_profile = query_io_profile(&mut ppr, &queries);
        let rstar_profile = query_io_profile(&mut rstar, &queries);
        let label = format!("{pct}%");
        rows.push(vec![
            label.clone(),
            records.len().to_string(),
            format!("{:.2}", ppr_profile.avg),
            format!("{:.2}", rstar_profile.avg),
        ]);
        profiles.push(series(label.clone(), "ppr", ppr_profile));
        profiles.push(series(label, "rstar", rstar_profile));
    }
    report.table_with_profiles(
        &format!(
            "Figure 15 — small range queries vs split budget ({} random dataset, LAGreedy)",
            Scale::label(n)
        ),
        &["Splits", "Records", "PPR-Tree I/O", "R*-Tree I/O"],
        &rows,
        profiles,
    );
    report.finish();
}
