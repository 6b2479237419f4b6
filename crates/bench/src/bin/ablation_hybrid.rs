//! Ablation: query duration vs structure choice — why the paper targets
//! *snapshot and small interval* queries, and what the MV3R-style hybrid
//! (\[25\]) buys.
//!
//! Sweeps the query window duration and reports PPR-Tree, 3D R\*-Tree,
//! and hybrid I/O over the same 150%-split records; the hybrid is a
//! per-query routing rule over the two indexes (short windows to the
//! PPR-Tree, the rest to the R\*-Tree). Expected shape: PPR wins short
//! windows, R\* wins long ones, the hybrid tracks the minimum at the
//! cost of storing both structures.

use sti_bench::{
    build_index, profile_queries, query_io_profile, random_dataset, series, split_records,
    BenchReport, Scale,
};
use sti_core::{DistributionAlgorithm, IndexBackend, SingleSplitAlgorithm, SplitBudget};
use sti_datagen::QuerySetSpec;

const DURATIONS: [u32; 8] = [1, 5, 10, 25, 50, 100, 200, 400];
/// Queries spanning fewer instants than this go to the PPR-Tree; the
/// sweep itself puts the crossover near 40 for the paper's workloads.
const HYBRID_THRESHOLD: u64 = 40;

fn main() {
    let scale = Scale::from_args_with(&sti_bench::IO_SIZES);
    let mut report = BenchReport::new("ablation_hybrid", &scale);
    let n = scale.sizes[scale.sizes.len().saturating_sub(2)];
    let objects = random_dataset(n);
    let records = split_records(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(150.0),
    );

    let mut ppr = build_index(&records, IndexBackend::PprTree);
    let mut rstar = build_index(&records, IndexBackend::RStar);

    let mut rows = Vec::new();
    let mut profiles = Vec::new();
    for dur in DURATIONS {
        let mut spec = QuerySetSpec::small_range();
        spec.duration = (dur, dur);
        spec.cardinality = scale.queries;
        let queries = spec.generate();

        let ppr_p = query_io_profile(&mut ppr, &queries);
        let rstar_p = query_io_profile(&mut rstar, &queries);
        let hybrid_p = profile_queries(&queries, |q| {
            let routed = if q.range.len() < HYBRID_THRESHOLD {
                &mut ppr
            } else {
                &mut rstar
            };
            routed.reset_for_query();
            routed
                .query_with_stats(&q.area, &q.range)
                .expect("in-memory query cannot fail")
                .1
        });
        let label = dur.to_string();
        rows.push(vec![
            label.clone(),
            format!("{:.2}", ppr_p.avg),
            format!("{:.2}", rstar_p.avg),
            format!("{:.2}", hybrid_p.avg),
        ]);
        profiles.push(series(label.clone(), "ppr", ppr_p));
        profiles.push(series(label.clone(), "rstar", rstar_p));
        profiles.push(series(label, "hybrid", hybrid_p));
    }
    rows.push(vec![
        "pages".into(),
        ppr.num_pages().to_string(),
        rstar.num_pages().to_string(),
        (ppr.num_pages() + rstar.num_pages()).to_string(),
    ]);
    report.table_with_profiles(
        &format!(
            "Ablation — query duration vs structure ({} random dataset, 150% splits, hybrid threshold {HYBRID_THRESHOLD})",
            Scale::label(n),
        ),
        &["Duration", "PPR-Tree", "R*-Tree", "Hybrid (MV3R-style)"],
        &rows,
        profiles,
    );
    report.finish();
}
