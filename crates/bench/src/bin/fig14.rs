//! Figure 14: average disk accesses for mixed snapshot queries against
//! PPR-Trees built from the three split distributions (150% splits).
//!
//! Expected shape: LAGreedy ≈ Optimal, Greedy worse. Planning fans out
//! over `--threads=auto|seq|N`; records and I/O counts are identical for
//! every setting.

use std::time::Duration;
use sti_bench::{avg_query_io, build_index, print_table, random_dataset, timed, Scale};
use sti_core::{
    BuildStats, DistributionAlgorithm, IndexBackend, SingleSplitAlgorithm, SplitBudget, SplitPlan,
};
use sti_datagen::QuerySetSpec;

fn main() {
    let scale = Scale::from_args();
    let mut spec = QuerySetSpec::mixed_snapshot();
    spec.cardinality = scale.queries;
    let queries = spec.generate();

    let mut rows = Vec::new();
    let mut stats_lines = Vec::new();
    for &n in &scale.sizes {
        let objects = random_dataset(n);
        let mut cells = vec![Scale::label(n)];
        for dist in [
            DistributionAlgorithm::Optimal,
            DistributionAlgorithm::Greedy,
            DistributionAlgorithm::LaGreedy,
        ] {
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
                avg_query_io(&mut idx, &queries),
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
