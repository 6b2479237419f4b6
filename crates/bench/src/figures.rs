//! The paper's §V evidence: Tables I–II, Figs. 11–18, and the railway
//! figures §V-D omits.

use std::time::Duration;
use sti_bench::{
    build_index, bulk_tier_index, fmt_secs, print_table, query_io_profile, railway_dataset,
    random_dataset, series, split_records, tier_records, timed, warm_query_io_profile, BenchReport,
    Scale, Tier,
};
use sti_core::single::{DpSplit, MergeSplit, SingleObjectSplitter, SingleSplitAlgorithm};
use sti_core::{
    map_chunked, multi::distribute_optimal, piecewise_records, BuildStats, DistributionAlgorithm,
    IndexBackend, SpatioTemporalIndex, SplitBudget, SplitPlan, VolumeCurve,
};
use sti_datagen::{DatasetStats, QuerySetSpec, TIME_EXTENT};
use sti_obs::JsonValue;
use sti_storage::PAGE_SIZE;
use sti_trajectory::RasterizedObject;

/// Table I: statistics of the random and railway datasets.
pub fn table1(scale: Scale) {
    type Gen = fn(usize) -> Vec<RasterizedObject>;
    for (family, gen) in [
        ("Random", random_dataset as Gen),
        ("Railway", railway_dataset as Gen),
    ] {
        let mut rows = Vec::new();
        for &n in &scale.sizes {
            let objects = gen(n);
            let s = DatasetStats::compute(&objects, TIME_EXTENT);
            rows.push(vec![
                Scale::label(n),
                s.total_objects.to_string(),
                format!("{:.3}", s.objects_per_instant),
                s.total_segments.to_string(),
                format!("{:.1}", s.avg_lifetime),
                format!(
                    "{:.2}%-{:.2}%",
                    s.extent_range.0 * 100.0,
                    s.extent_range.1 * 100.0
                ),
            ]);
        }
        print_table(
            &format!("Table I — {family} datasets"),
            &[
                "Dataset",
                "Total Objects",
                "Objects/Instant (Avg.)",
                "Total Segments",
                "Lifetime (Avg.)",
                "Extent",
            ],
            &rows,
        );
    }
}

/// Table II: the snapshot and range query sets.
pub fn table2(_: Scale) {
    let sets = [
        ("Snapshot", QuerySetSpec::tiny_snapshot()),
        ("Snapshot", QuerySetSpec::small_snapshot()),
        ("Snapshot", QuerySetSpec::mixed_snapshot()),
        ("Snapshot", QuerySetSpec::large_snapshot()),
        ("Range", QuerySetSpec::small_range()),
        ("Range", QuerySetSpec::medium_range()),
    ];
    let rows: Vec<Vec<String>> = sets
        .iter()
        .map(|(kind, s)| {
            // Generate to prove the spec is realizable and verify counts.
            let qs = s.generate();
            assert_eq!(qs.len(), s.cardinality);
            vec![
                kind.to_string(),
                s.name.to_string(),
                s.cardinality.to_string(),
                format!("{}-{}", s.extent_pct.0, s.extent_pct.1),
                if s.duration.0 == s.duration.1 {
                    s.duration.0.to_string()
                } else {
                    format!("{} - {}", s.duration.0, s.duration.1)
                },
            ]
        })
        .collect();
    print_table(
        "Table II — snapshot and range query sets",
        &["Kind", "Name", "Cardinality", "Extents (%)", "Duration"],
        &rows,
    );
}

/// Figure 11: CPU time for the single-object split algorithms (DPSplit
/// vs MergeSplit), splitting every object with as many splits as
/// necessary (full volume curves). The paper plots this on a log scale:
/// the orders-of-magnitude gap is the result. Next to MergeSplit's time
/// stands the heap a MergeSplit plan holds per instant while it
/// distributes a budget (cut order plus volume curve).
pub fn fig11(scale: Scale) {
    let mut rows = Vec::new();
    let mut stats_lines = Vec::new();
    for &n in &scale.sizes {
        let objects = random_dataset(n);
        let (_, dp_secs) = timed(|| {
            map_chunked(&objects, scale.threads, |_, o| {
                DpSplit.volume_curve(o, o.len().saturating_sub(1))
            })
        });
        let (_, merge_secs) = timed(|| {
            map_chunked(&objects, scale.threads, |_, o| {
                MergeSplit.volume_curve(o, o.len().saturating_sub(1))
            })
        });
        let plan = SplitPlan::build_with(
            &objects,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            SplitBudget::Count(0),
            None,
            scale.threads,
        );
        let instants: usize = objects.iter().map(|o| o.len()).sum();
        let plan_bytes = plan.stats().heap_bytes;
        rows.push(vec![
            Scale::label(n),
            fmt_secs(dp_secs),
            fmt_secs(merge_secs),
            format!("{:.1}", plan_bytes as f64 / instants.max(1) as f64),
            format!("{:.0}x", dp_secs / merge_secs.max(1e-9)),
        ]);
        stats_lines.push(format!(
            "n={}: {}",
            Scale::label(n),
            BuildStats {
                workers: scale.threads.workers(),
                curve_time: Duration::from_secs_f64(dp_secs + merge_secs),
                plan_bytes,
                ..BuildStats::default()
            }
        ));
    }
    print_table(
        "Figure 11 — CPU time, object split algorithms (random datasets)",
        &["Dataset", "DPSplit", "MergeSplit", "B/instant", "Slowdown"],
        &rows,
    );
    println!("\nbuild stats (curve phase only, DPSplit + MergeSplit; plan_bytes of MergeSplit):");
    for line in &stats_lines {
        println!("  {line}");
    }
}

/// Figure 12: total volume after optimally distributing 50% splits, with
/// per-object curves from DPSplit vs MergeSplit. Only the curves are
/// kept (no cut reconstruction), which keeps paper-scale runs in memory.
pub fn fig12(scale: Scale) {
    let mut rows = Vec::new();
    for &n in &scale.sizes {
        let objects = random_dataset(n);
        let k = n / 2; // 50% splits
        let mut vols = Vec::new();
        for splitter in [&DpSplit as &dyn SingleObjectSplitter, &MergeSplit] {
            let curves: Vec<VolumeCurve> = objects
                .iter()
                .map(|o| splitter.volume_curve(o, o.len() - 1))
                .collect();
            vols.push(distribute_optimal(&curves, k).total_volume);
        }
        rows.push(vec![
            Scale::label(n),
            format!("{:.4}", vols[0]),
            format!("{:.4}", vols[1]),
            format!("{:+.2}%", (vols[1] / vols[0] - 1.0) * 100.0),
        ]);
    }
    print_table(
        "Figure 12 — total volume, object split algorithms (50% splits, Optimal distribution)",
        &["Dataset", "DPSplit", "MergeSplit", "MergeSplit overhead"],
        &rows,
    );
}

/// The three split distributions, in the column order of every table
/// that compares them.
pub const DISTRIBUTIONS: [DistributionAlgorithm; 3] = [
    DistributionAlgorithm::Optimal,
    DistributionAlgorithm::Greedy,
    DistributionAlgorithm::LaGreedy,
];

/// Figure 13: CPU time of the split distribution algorithms distributing
/// 50% splits. The MergeSplit curves are precomputed outside the timed
/// region, as the paper stores them before distribution begins; their
/// wall-clock is in the build-stats lines.
pub fn fig13(scale: Scale) {
    let mut rows = Vec::new();
    let mut stats_lines = Vec::new();
    for &n in &scale.sizes {
        let objects = random_dataset(n);
        let (curves, curve_secs) = timed(|| {
            map_chunked(&objects, scale.threads, |_, o| {
                MergeSplit.volume_curve(o, o.len() - 1)
            })
        });
        let k = n / 2; // 50% splits

        let mut cells = vec![Scale::label(n)];
        let mut distribute_secs = 0.0;
        for dist in DISTRIBUTIONS {
            let (alloc, secs) = timed(|| dist.distribute(&curves, k));
            assert!(alloc.splits_used() <= k);
            distribute_secs += secs;
            cells.push(fmt_secs(secs));
        }
        rows.push(cells);
        stats_lines.push(format!(
            "n={}: {}",
            Scale::label(n),
            BuildStats {
                workers: scale.threads.workers(),
                curve_time: Duration::from_secs_f64(curve_secs),
                distribute_time: Duration::from_secs_f64(distribute_secs),
                ..BuildStats::default()
            }
        ));
    }
    print_table(
        "Figure 13 — CPU time, split distribution algorithms (50% splits, random datasets)",
        &["Dataset", "Optimal", "Greedy", "LAGreedy"],
        &rows,
    );
    println!("\nbuild stats (curve precompute + all three distributions):");
    for line in &stats_lines {
        println!("  {line}");
    }
}

/// Figure 14: average disk accesses for mixed snapshot queries against
/// PPR-Trees built from the three split distributions (150% splits).
/// Expected shape: LAGreedy ≈ Optimal, Greedy worse.
pub fn fig14(scale: Scale) {
    let mut spec = QuerySetSpec::mixed_snapshot();
    spec.cardinality = scale.queries;
    let queries = spec.generate();

    let mut rows = Vec::new();
    let mut stats_lines = Vec::new();
    for &n in &scale.sizes {
        let objects = random_dataset(n);
        let mut cells = vec![Scale::label(n)];
        for dist in DISTRIBUTIONS {
            let plan = SplitPlan::build_with(
                &objects,
                SingleSplitAlgorithm::MergeSplit,
                dist,
                SplitBudget::Percent(150.0),
                None,
                scale.threads,
            );
            let ((records, mut idx), tree_secs) = timed(|| {
                let records = plan.records(&objects);
                let idx = build_index(&records, IndexBackend::PprTree);
                (records, idx)
            });
            stats_lines.push(format!(
                "n={} {dist}: {}",
                Scale::label(n),
                BuildStats {
                    workers: plan.stats().workers,
                    curve_time: plan.stats().curve_time,
                    plan_bytes: plan.stats().heap_bytes,
                    distribute_time: plan.stats().distribute_time,
                    tree_build_time: Duration::from_secs_f64(tree_secs),
                    records_emitted: records.len(),
                }
            ));
            cells.push(format!(
                "{:.2} (vol {:.1})",
                query_io_profile(&mut idx, &queries).avg,
                plan.total_volume()
            ));
        }
        rows.push(cells);
    }
    print_table(
        "Figure 14 — mixed snapshot queries, avg disk accesses (PPR-Tree, 150% splits)",
        &["Dataset", "Optimal", "Greedy", "LAGreedy"],
        &rows,
    );
    println!("\nbuild stats:");
    for line in &stats_lines {
        println!("  {line}");
    }
}

/// Figs. 15–16: the split budgets swept over the "50k" dataset.
const BUDGETS: [f64; 8] = [0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 150.0];

/// The split-budget sweep of Figs. 15 and 16 on the "50k" random
/// dataset (the second-largest size of the ladder): at every budget of
/// [`BUDGETS`], both trees over the same MergeSplit + LAGreedy records,
/// handed to `row` with the budget's label and record count. Returns
/// the dataset size.
fn budget_sweep(
    scale: &Scale,
    mut row: impl FnMut(String, usize, SpatioTemporalIndex, SpatioTemporalIndex),
) -> usize {
    let n = scale.sizes[scale.sizes.len().saturating_sub(2)];
    let objects = random_dataset(n);
    for pct in BUDGETS {
        let records = split_records(
            &objects,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(pct),
        );
        let ppr = build_index(&records, IndexBackend::PprTree);
        let rstar = build_index(&records, IndexBackend::RStar);
        row(format!("{pct}%"), records.len(), ppr, rstar);
    }
    n
}

/// Figure 15: small range queries on the "50k" random dataset as the
/// split budget grows, PPR-Tree vs 3D R\*-Tree. Expected shape: PPR-Tree
/// I/O falls substantially with more splits; the R\*-Tree *degrades*.
/// `--scale=mid|big` runs [`fig15_tier`] instead.
pub fn fig15(scale: Scale) {
    if scale.tier != Tier::Paper {
        return fig15_tier(scale);
    }
    let mut report = BenchReport::new("fig15", &scale);
    let mut spec = QuerySetSpec::small_range();
    spec.cardinality = scale.queries;
    let queries = spec.generate();

    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    let n = budget_sweep(&scale, |label, records, mut ppr, mut rstar| {
        let ppr_profile = query_io_profile(&mut ppr, &queries);
        let rstar_profile = query_io_profile(&mut rstar, &queries);
        rows.push(vec![
            label.clone(),
            records.to_string(),
            format!("{:.2}", ppr_profile.avg),
            format!("{:.2}", rstar_profile.avg),
        ]);
        profiles.push(series(label.clone(), "ppr", ppr_profile));
        profiles.push(series(label, "rstar", rstar_profile));
    });
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

/// The least fill factor a scale-tier bulk tree may have. Packing
/// density is the bulk tier's space and I/O: a loader that falls back
/// to half-empty pages still answers correctly, so nothing else here
/// would notice.
const MIN_FILL: f64 = 0.8;

/// Fig. 15's scale tier: one bulk-loaded `FileBackend` tree, queried
/// with a warm shared LRU buffer. Exits non-zero if the tree is packed
/// below [`MIN_FILL`].
fn fig15_tier(scale: Scale) {
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
            ("slabs", JsonValue::UInt(stats.slabs)),
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

/// Figure 16: disk space of the two structures on the "50k" random
/// dataset as the split budget grows. Expected shape: the PPR-Tree needs
/// roughly twice the space of the R\*-Tree (version copies).
pub fn fig16(scale: Scale) {
    let mut report = BenchReport::new("fig16", &scale);
    let mut rows = Vec::new();
    let n = budget_sweep(&scale, |label, records, ppr, rstar| {
        let mb = |pages: usize| format!("{:.2} MiB", (pages * PAGE_SIZE) as f64 / (1 << 20) as f64);
        rows.push(vec![
            label,
            records.to_string(),
            format!("{} ({})", ppr.num_pages(), mb(ppr.num_pages())),
            format!("{} ({})", rstar.num_pages(), mb(rstar.num_pages())),
            format!("{:.2}x", ppr.num_pages() as f64 / rstar.num_pages() as f64),
        ]);
    });
    report.table(
        &format!(
            "Figure 16 — disk space vs split budget ({} random dataset)",
            Scale::label(n)
        ),
        &[
            "Splits",
            "Records",
            "PPR-Tree pages",
            "R*-Tree pages",
            "PPR/R*",
        ],
        &rows,
    );
    report.finish();
}

/// Figure 17: small range queries over the random datasets.
pub fn fig17(scale: Scale) {
    three_indexes(
        scale,
        "fig17",
        random_dataset,
        [(
            "Figure 17 — small range queries, avg disk accesses (random datasets)",
            QuerySetSpec::small_range(),
        )],
    );
}

/// Figure 18: mixed snapshot queries over the random datasets.
pub fn fig18(scale: Scale) {
    three_indexes(
        scale,
        "fig18",
        random_dataset,
        [(
            "Figure 18 — mixed snapshot queries, avg disk accesses (random datasets)",
            QuerySetSpec::mixed_snapshot(),
        )],
    );
}

/// §V-D, railway datasets: "the PPR-Tree is again superior in all cases.
/// Due to lack of space the figures have been omitted." — those omitted
/// figures, both query sets over the skewed train workload.
pub fn railway(scale: Scale) {
    three_indexes(
        scale,
        "railway",
        railway_dataset,
        [
            (
                "Railway datasets — small range queries, avg disk accesses",
                QuerySetSpec::small_range(),
            ),
            (
                "Railway datasets — mixed snapshot queries, avg disk accesses",
                QuerySetSpec::mixed_snapshot(),
            ),
        ],
    );
}

/// Figs. 17–18 and the railway figures: the PPR-Tree at 150% splits vs
/// the R\*-Tree at 1% splits vs the R\*-Tree over the piecewise
/// representation, one table per query set. Expected shape: PPR-150%
/// best; piecewise worse than the barely-split R\*.
fn three_indexes<'a>(
    scale: Scale,
    name: &str,
    dataset: fn(usize) -> Vec<RasterizedObject>,
    sets: impl IntoIterator<Item = (&'a str, QuerySetSpec)>,
) {
    let mut report = BenchReport::new(name, &scale);
    // Every index is built once per size; each query set then runs
    // against the same structures.
    let mut indexes = Vec::new();
    for &n in &scale.sizes {
        let objects = dataset(n);
        let split = |pct| {
            split_records(
                &objects,
                SingleSplitAlgorithm::MergeSplit,
                DistributionAlgorithm::LaGreedy,
                SplitBudget::Percent(pct),
            )
        };
        let ppr = build_index(&split(150.0), IndexBackend::PprTree);
        let rstar = build_index(&split(1.0), IndexBackend::RStar);
        let piecewise = build_index(&piecewise_records(&objects), IndexBackend::RStar);
        indexes.push((n, ppr, rstar, piecewise));
    }

    for (title, mut spec) in sets {
        spec.cardinality = scale.queries;
        let queries = spec.generate();
        let mut rows = Vec::new();
        let mut profiles = Vec::new();
        for (n, ppr, rstar, piecewise) in &mut indexes {
            let label = Scale::label(*n);
            let ppr_p = query_io_profile(ppr, &queries);
            let rstar_p = query_io_profile(rstar, &queries);
            let piece_p = query_io_profile(piecewise, &queries);
            rows.push(vec![
                label.clone(),
                format!("{:.2}", ppr_p.avg),
                format!("{:.2}", rstar_p.avg),
                format!("{:.2}", piece_p.avg),
            ]);
            profiles.push(series(label.clone(), "ppr_150", ppr_p));
            profiles.push(series(label.clone(), "rstar_1", rstar_p));
            profiles.push(series(label, "rstar_piecewise", piece_p));
        }
        report.table_with_profiles(
            title,
            &[
                "Dataset",
                "PPR-Tree 150%",
                "R*-Tree 1%",
                "R*-Tree piecewise",
            ],
            &rows,
            profiles,
        );
    }
    report.finish();
}
