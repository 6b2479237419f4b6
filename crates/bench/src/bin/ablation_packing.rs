//! Ablation: packed vs dynamically built R\*-Trees on moving-object data.
//!
//! §V of the paper: "We decided not to use any packing algorithms for the
//! R\*-Tree, since from our previous experience, packing does not help
//! substantially with datasets of moving objects. Packing algorithms tend
//! to cluster together objects that might be consecutive in order even
//! though they may correspond to large and small intervals."
//!
//! This binary tests that claim: STR bulk loading versus dynamic R\*
//! insertion, over unsplit and split records.

use sti_bench::{
    query_io_profile, random_dataset, rstar_query_io_profile, series, split_records, BenchReport,
    Scale,
};
use sti_core::{
    DistributionAlgorithm, IndexBackend, IndexConfig, SingleSplitAlgorithm, SpatioTemporalIndex,
    SplitBudget,
};
use sti_datagen::{QuerySetSpec, TIME_EXTENT};
use sti_geom::Rect3;
use sti_rstar::{RStarParams, RStarTree};

fn main() {
    let scale = Scale::from_args_with(&sti_bench::IO_SIZES);
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
