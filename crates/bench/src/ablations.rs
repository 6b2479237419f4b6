//! §IV's split tuning and the ablations an open question still reruns.

use crate::figures::DISTRIBUTIONS;
use sti_bench::{
    build_index, print_table, query_io_profile, railway_dataset, random_dataset,
    rstar_query_io_profile, series, split_records, timed, BenchReport, Scale,
};
use sti_core::single::{MergeSplit, SingleObjectSplitter};
use sti_core::tuning::{choose_splits_analytical, choose_splits_by_sampling, QueryProfile};
use sti_core::{
    total_volume, unsplit_records, BatchState, DistributionAlgorithm, IndexBackend, IndexConfig,
    IngestPipeline, ObjectRecord, OnlineSplitConfig, OnlineSplitter, SingleSplitAlgorithm,
    SpatioTemporalIndex, SplitBudget, SplitPlan,
};
use sti_datagen::{OrbitDatasetSpec, QuerySetSpec, RandomDatasetSpec, TIME_EXTENT};
use sti_geom::{Rect3, Time};
use sti_obs::JsonValue;
use sti_pprtree::PprParams;
use sti_rstar::{RStarParams, RStarTree};
use sti_trajectory::RasterizedObject;

/// §IV: finding a good number of splits with the analytical model and
/// by sampling, on the "50k" random dataset.
pub fn tuning(scale: Scale) {
    // Tuning needs enough alive density for budgets to differ; the
    // generic default ladder is too small, so this entry defaults to
    // 20k objects unless sizes were given explicitly.
    let n = if scale.sizes == sti_bench::DEFAULT_SIZES {
        20_000
    } else {
        scale.sizes[scale.sizes.len().saturating_sub(2)]
    };
    let objects = random_dataset(n);
    let candidates: Vec<SplitBudget> = [0.0, 10.0, 25.0, 50.0, 100.0, 150.0]
        .map(SplitBudget::Percent)
        .to_vec();

    // Method 1: analytical model, tuned for small snapshot queries
    // (extents ≈ 0.55% of the side, duration 1 — the Small set's mean).
    let analytical = choose_splits_analytical(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        &candidates,
        QueryProfile {
            extents: (0.0055, 0.0055),
            duration: 1,
        },
        1000,
        scale.threads,
    );
    print_choice(
        &format!(
            "§IV method 1 — analytical model ({} random dataset)",
            Scale::label(n)
        ),
        "Predicted node accesses",
        &analytical.costs,
        analytical.best,
    );

    // Method 2: sampling — build real indexes over 1/4 of the objects.
    let mut spec = QuerySetSpec::small_snapshot();
    spec.cardinality = scale.queries.min(200);
    let queries: Vec<_> = spec.generate().iter().map(|q| (q.area, q.range)).collect();
    let sampled = choose_splits_by_sampling(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        &candidates,
        &queries,
        IndexBackend::PprTree,
        4,
        scale.threads,
    );
    print_choice(
        &format!(
            "§IV method 2 — sampling, 1/4 of the objects ({} random dataset)",
            Scale::label(n)
        ),
        "Measured avg I/O on sample",
        &sampled.costs,
        sampled.best,
    );
}

/// One tuning method's table: the cost of every candidate budget, the
/// chosen one marked.
fn print_choice(title: &str, cost: &str, costs: &[(SplitBudget, f64)], best: usize) {
    let rows: Vec<Vec<String>> = costs
        .iter()
        .enumerate()
        .map(|(i, (b, c))| {
            vec![
                format!("{b:?}"),
                format!("{c:.2}"),
                if i == best {
                    "<- chosen".into()
                } else {
                    String::new()
                },
            ]
        })
        .collect();
    print_table(title, &["Budget", cost, ""], &rows);
}

/// How object speed changes the split/no-split trade-off for both
/// structures (companion to Fig. 15). The paper reports that splits
/// *hurt* the 3D R\*-Tree; here the R\*-Tree (forced reinsertion,
/// margin-driven splits) usually absorbs the extra records, and the
/// degradation only surfaces for slow movers, whose records are already
/// small relative to leaf MBRs. The sweep exposes where each holds.
pub fn motion(scale: Scale) {
    const BUDGETS: [f64; 5] = [0.0, 10.0, 25.0, 50.0, 150.0];
    let mut report = BenchReport::new("ablation_motion", &scale);
    let n = scale.sizes[scale.sizes.len().saturating_sub(2)];
    let mut spec = QuerySetSpec::small_range();
    spec.cardinality = scale.queries;
    let queries = spec.generate();

    for backend in [IndexBackend::PprTree, IndexBackend::RStar] {
        let mut rows = Vec::new();
        let mut profiles = Vec::new();
        for vel in [0.0005f64, 0.002, 0.004, 0.01] {
            let mut ds = RandomDatasetSpec::paper(n);
            ds.max_velocity = vel;
            ds.max_acceleration = vel / 20.0;
            let objects = ds.generate();
            let label = format!("{vel}");
            let mut cells = vec![label.clone()];
            for pct in BUDGETS {
                let records = split_records(
                    &objects,
                    SingleSplitAlgorithm::MergeSplit,
                    DistributionAlgorithm::LaGreedy,
                    SplitBudget::Percent(pct),
                );
                let mut idx = build_index(&records, backend);
                let profile = query_io_profile(&mut idx, &queries);
                cells.push(format!("{:.2}", profile.avg));
                profiles.push(series(label.clone(), format!("split_{pct}"), profile));
            }
            rows.push(cells);
        }
        report.table_with_profiles(
            &format!(
                "Ablation — {backend}, small range query I/O vs split budget, by max speed ({} objects)",
                Scale::label(n)
            ),
            &["Speed", "0%", "10%", "25%", "50%", "150%"],
            &rows,
            profiles,
        );
    }
    report.finish();
}

/// The distribution algorithms on a workload where Claim 1 fails.
/// Fig. 14's "Greedy always inferior" verdict is invisible on the
/// random datasets (their gain curves are concave almost everywhere);
/// orbiting bodies violate monotonicity — half an orbit gains little,
/// quarters gain a lot — so LAGreedy's look-ahead matters here.
pub fn orbits(scale: Scale) {
    let mut report = BenchReport::new("ablation_orbits", &scale);
    let n = scale.sizes[scale.sizes.len().saturating_sub(2)];
    // Long-period orbits: every body lives ~one revolution.
    let spec = OrbitDatasetSpec {
        lifetime: (60, 100),
        period: (60, 120),
        ..OrbitDatasetSpec::standard(n)
    };
    let objects = spec.generate();

    let violators = objects
        .iter()
        .filter(|o| {
            !MergeSplit
                .volume_curve(o, (o.len() - 1).min(16))
                .has_monotone_gains()
        })
        .count();
    println!(
        "{} of {} orbits violate Claim 1 (non-monotone gain curves)",
        violators,
        objects.len()
    );
    report.note(
        "claim1",
        JsonValue::object([
            ("violators", JsonValue::UInt(violators as u64)),
            ("orbits", JsonValue::UInt(objects.len() as u64)),
        ]),
    );

    let mut spec_q = QuerySetSpec::mixed_snapshot();
    spec_q.cardinality = scale.queries;
    let queries = spec_q.generate();

    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    // A *tight* budget (25%) is where distribution quality matters: at
    // 150% every algorithm can afford the good splits.
    for pct in [25.0, 50.0, 150.0] {
        let label = format!("{pct}%");
        let mut cells = vec![label.clone()];
        for dist in DISTRIBUTIONS {
            let plan = SplitPlan::build(
                &objects,
                SingleSplitAlgorithm::MergeSplit,
                dist,
                SplitBudget::Percent(pct),
                None,
            );
            let records = plan.records(&objects);
            let mut idx = build_index(&records, IndexBackend::PprTree);
            let profile = query_io_profile(&mut idx, &queries);
            cells.push(format!(
                "{:.2} (vol {:.1})",
                profile.avg,
                plan.total_volume()
            ));
            profiles.push(series(label.clone(), format!("{dist:?}"), profile));
        }
        rows.push(cells);
    }
    report.table_with_profiles(
        &format!(
            "Ablation — distribution algorithms on {} orbiting bodies (mixed snapshot queries, PPR-Tree)",
            Scale::label(n)
        ),
        &["Budget", "Optimal", "Greedy", "LAGreedy"],
        &rows,
        profiles,
    );
    report.finish();
}

/// Packed vs dynamically built R\*-Trees. §V: "We decided not to use any
/// packing algorithms for the R\*-Tree, since from our previous
/// experience, packing does not help substantially with datasets of
/// moving objects." This tests the claim: STR bulk loading versus
/// dynamic R\* insertion, over unsplit and split records.
pub fn packing(scale: Scale) {
    let mut report = BenchReport::new("ablation_packing", &scale);
    let n = scale.sizes[scale.sizes.len().saturating_sub(2)];
    let objects = random_dataset(n);
    let mut spec = QuerySetSpec::small_range();
    spec.cardinality = scale.queries;
    let queries = spec.generate();
    let time_scale = f64::from(TIME_EXTENT);

    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    for (label, pct) in [("unsplit", 0.0), ("150% splits", 150.0)] {
        let records = split_records(
            &objects,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(pct),
        );
        // Dynamic R* via the facade (random insert order, time scaled).
        let mut dynamic =
            SpatioTemporalIndex::build(&records, &IndexConfig::paper(IndexBackend::RStar))
                .expect("in-memory build cannot fail");
        let dyn_p = query_io_profile(&mut dynamic, &queries);

        // STR packing over the identical 3D boxes.
        let boxes: Vec<(u64, Rect3)> = records
            .iter()
            .map(|r| (r.id, r.to_rect3(time_scale)))
            .collect();
        let mut packed = RStarTree::bulk_load(&boxes, RStarParams::default())
            .expect("in-memory build cannot fail");
        let str_p = rstar_query_io_profile(&mut packed, &queries, time_scale);

        rows.push(vec![
            label.to_string(),
            records.len().to_string(),
            format!("{:.2}", dyn_p.avg),
            format!("{:.2}", str_p.avg),
        ]);
        profiles.push(series(label, "dynamic", dyn_p));
        profiles.push(series(label, "str_packed", str_p));
    }
    report.table_with_profiles(
        &format!(
            "Ablation — packing the R*-Tree, small range query I/O ({} random dataset)",
            Scale::label(n)
        ),
        &["Records", "Count", "Dynamic R*", "STR packed"],
        &rows,
        profiles,
    );
    report.finish();
}

/// What the paper's incremental build costs in node I/O and seconds,
/// beside the bulk loader on the same records: the random dataset at
/// the largest size of the ladder, MergeSplit + LAGreedy at three
/// budgets, [`IndexConfig::paper`]. Node reads are the build's pool
/// misses and hits, node writes its store writes; every count is exact
/// and repeats run to run, only the two seconds columns move.
pub fn build_cost(scale: Scale) {
    let mut report = BenchReport::new("build_cost", &scale);
    let n = scale.sizes.last().copied().unwrap_or(20_000);
    let objects = random_dataset(n);
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let spool = std::env::temp_dir().join(format!("sti-build-cost-{}", std::process::id()));
    let mut rows = Vec::new();
    for pct in [0.0, 50.0, 150.0] {
        let records = split_records(
            &objects,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(pct),
        );
        let (index, build_s) = timed(|| {
            SpatioTemporalIndex::build(&records, &config).expect("in-memory build cannot fail")
        });
        let io = index.io_stats();
        let ((_, bulk), bulk_s) = timed(|| {
            let store = sti_storage::PageStore::new(config.ppr.buffer_pages);
            SpatioTemporalIndex::bulk_build_ppr(records.iter().copied(), &config, store, &spool)
                .expect("in-memory bulk build cannot fail")
        });
        rows.push(vec![
            format!("{pct}%"),
            records.len().to_string(),
            (2 * records.len()).to_string(),
            format!(
                "{} ({} / {})",
                io.reads + io.buffer_hits,
                io.reads,
                io.buffer_hits
            ),
            io.writes.to_string(),
            index.num_pages().to_string(),
            format!("{build_s:.3}s"),
            bulk.pages_written.to_string(),
            format!("{bulk_s:.3}s"),
        ]);
    }
    std::fs::remove_dir_all(&spool).ok();
    report.table(
        &format!(
            "Build cost — incremental PPR-Tree build vs bulk loader ({} random dataset, MergeSplit + LAGreedy)",
            Scale::label(n)
        ),
        &[
            "Budget",
            "Records",
            "Update events",
            "Node reads (miss / hit)",
            "Node writes",
            "Pages",
            "Build",
            "Bulk pages",
            "Bulk build",
        ],
        &rows,
    );
    report.finish();
}

/// §VII's on-line problem, measured on the live tree: each dataset is
/// streamed through an [`IngestPipeline`] at the default
/// [`OnlineSplitConfig`] (150 % budget), and its sealed tree is queried
/// against the offline MergeSplit + LAGreedy plan given the same number
/// of splits, built incrementally like the pipeline's.
pub fn online(scale: Scale) {
    let mut report = BenchReport::new("ablation_online", &scale);
    let n = scale.sizes[scale.sizes.len().saturating_sub(2)];
    let mut spec = QuerySetSpec::small_range();
    spec.cardinality = scale.queries;
    let queries = spec.generate();
    let config = OnlineSplitConfig::default();
    type Gen = fn(usize) -> Vec<RasterizedObject>;
    for (name, generate) in [
        ("random", random_dataset as Gen),
        ("railway", railway_dataset as Gen),
    ] {
        let objects = generate(n);
        let mut rows = Vec::new();
        let mut profiles = Vec::new();
        let mut measure =
            |label: String, records: &[ObjectRecord], mut idx: SpatioTemporalIndex| {
                let profile = query_io_profile(&mut idx, &queries);
                let splits = records.len() - objects.len();
                rows.push(vec![
                    label.clone(),
                    records.len().to_string(),
                    format!("{:.1}%", 100.0 * splits as f64 / objects.len() as f64),
                    idx.num_pages().to_string(),
                    format!("{:.3}", total_volume(records)),
                    format!("{:.2}", profile.avg),
                ]);
                profiles.push(series(label, "ppr", profile));
                splits
            };

        let unsplit = unsplit_records(&objects);
        let idx = build_index(&unsplit, IndexBackend::PprTree);
        measure("unsplit".into(), &unsplit, idx);

        let (records, tree) = stream_through_pipeline(&objects, config);
        let splits = measure(
            format!("pipeline {:?}", config.budget),
            &records,
            tree.into(),
        );

        let offline = split_records(
            &objects,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Count(splits),
        );
        let idx = build_index(&offline, IndexBackend::PprTree);
        measure(format!("offline LAGreedy, {splits} splits"), &offline, idx);

        report.table_with_profiles(
            &format!(
                "Ablation — online vs offline splitting, small range queries ({} {name} dataset, PPR-Tree)",
                Scale::label(n)
            ),
            &["Configuration", "Records", "Splits", "Pages", "Total volume", "Avg I/O"],
            &rows,
            profiles,
        );
    }
    report.finish();
}

/// Replay `objects` as a live stream — every position at its instant,
/// each disappearance at its lifetime end — through an
/// [`IngestPipeline`] committing every instant, and seal it. Returns
/// the records the splitter emitted (a bare [`OnlineSplitter`] fed the
/// same operations decides identically) and the sealed tree.
fn stream_through_pipeline(
    objects: &[RasterizedObject],
    config: OnlineSplitConfig,
) -> (Vec<ObjectRecord>, sti_pprtree::PprTree) {
    let mut ops: Vec<(Time, u64, Option<usize>)> = Vec::new();
    for o in objects {
        ops.extend((0..o.len()).map(|i| (o.start() + i as Time, o.id(), Some(i))));
        ops.push((o.lifetime().end, o.id(), None));
    }
    ops.sort_unstable();

    let mut pipeline = IngestPipeline::new(config, PprParams::default());
    let mut shadow = OnlineSplitter::new(config);
    let mut records = Vec::new();
    let mut clock = 0;
    for (t, id, at) in ops {
        if t > clock {
            clock = t;
            assert!(
                pipeline.commit().rejected.is_empty(),
                "replayed stream is gap-free"
            );
        }
        let o = &objects[id as usize];
        let record = match at {
            Some(i) => {
                pipeline.enqueue_update(id, o.rect(i), t);
                shadow
                    .observe(id, o.rect(i), t)
                    .expect("replayed stream is gap-free")
            }
            None => {
                pipeline.enqueue_finish(id, t);
                Some(shadow.finish(id, t).expect("replayed stream is gap-free"))
            }
        };
        records.extend(record);
    }
    let sealed = pipeline.seal();
    assert_eq!(sealed.state, BatchState::Published, "{sealed:?}");
    let tree = pipeline.into_published_tree();
    assert_eq!(tree.total_records(), records.len() as u64);
    (records, tree)
}
