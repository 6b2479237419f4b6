//! Figure 11: CPU time for the single-object split algorithms (DPSplit
//! vs MergeSplit) over the random datasets, splitting every object with
//! as many splits as necessary (full volume curves).
//!
//! The paper plots this on a log scale: DPSplit needed up to a day,
//! MergeSplit minutes. The orders-of-magnitude gap is the result.
//! Next to MergeSplit's time stands the heap a MergeSplit plan holds per
//! instant while it distributes a budget (cut order plus volume curve).
//!
//! Per-object curves are independent, so the loop fans out over
//! `--threads=auto|seq|N` (identical curves for every setting).

use std::time::Duration;
use sti_bench::{fmt_secs, print_table, random_dataset, timed, Scale};
use sti_core::single::{DpSplit, MergeSplit, SingleObjectSplitter, SingleSplitAlgorithm};
use sti_core::{map_chunked, BuildStats, DistributionAlgorithm, SplitBudget, SplitPlan};

fn main() {
    let scale = Scale::from_args();
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
