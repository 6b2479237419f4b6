//! Validation of the analytical cost models (§IV): predictions must
//! track measured query I/O across split budgets — not in absolute
//! value, but in *ordering* and rough ratio, which is all the tuner
//! needs.

use spatiotemporal_index::core::{IndexBackend, IndexConfig, SpatioTemporalIndex, SplitPlan};
use spatiotemporal_index::costmodel::{pagel_cost_2d, BoxStats, RTreeCostModel};
use spatiotemporal_index::datagen::QuerySetSpec;
use spatiotemporal_index::prelude::*;

fn measured_io(records: &[spatiotemporal_index::core::ObjectRecord], queries: usize) -> f64 {
    let mut idx =
        SpatioTemporalIndex::build(records, &IndexConfig::paper(IndexBackend::PprTree)).unwrap();
    let mut spec = QuerySetSpec::small_snapshot();
    spec.cardinality = queries;
    let qs = spec.generate();
    let mut total = 0u64;
    for q in &qs {
        idx.reset_for_query();
        let _ = idx
            .query(&q.area, &q.range)
            .expect("in-memory query cannot fail");
        total += idx.io_stats().reads;
    }
    total as f64 / qs.len() as f64
}

#[test]
fn model_ranking_matches_measurements() {
    let objects = RandomDatasetSpec::paper(8000).generate();
    let model = RTreeCostModel::default();
    let budgets = [0.0, 25.0, 75.0, 150.0];

    let mut predicted = Vec::new();
    let mut measured = Vec::new();
    for pct in budgets {
        let plan = SplitPlan::build(
            &objects,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(pct),
            None,
        );
        let records = plan.records(&objects);
        let stats = BoxStats::compute(records.iter().map(|r| &r.stbox), 1000);
        predicted.push(model.estimate(
            (stats.alive_per_instant.ceil() as usize).max(1),
            &[stats.avg_extent.0, stats.avg_extent.1],
            &[0.0055, 0.0055],
        ));
        measured.push(measured_io(&records, 150));
    }

    // Both sequences must be strictly decreasing over the budget sweep
    // (splitting helps), i.e. the model ranks candidates correctly.
    for w in predicted.windows(2) {
        assert!(w[1] < w[0], "model not monotone: {predicted:?}");
    }
    for w in measured.windows(2) {
        assert!(w[1] < w[0], "measurements not monotone: {measured:?}");
    }
    // And the predicted relative improvement is in the measured ballpark.
    let predicted_gain = predicted[0] / predicted[predicted.len() - 1];
    let measured_gain = measured[0] / measured[measured.len() - 1];
    assert!(
        predicted_gain > 1.05 && measured_gain > 1.05,
        "both should show a clear gain: predicted {predicted_gain:.2}, measured {measured_gain:.2}"
    );
    assert!(
        (predicted_gain / measured_gain) < 4.0 && (measured_gain / predicted_gain) < 4.0,
        "gain estimates diverge: predicted {predicted_gain:.2}x vs measured {measured_gain:.2}x"
    );
}

#[test]
fn pagel_formula_counts_record_touches() {
    // The Pagel sum over *records* equals (in expectation) the number of
    // records a uniform query intersects — check against brute force.
    let objects = RandomDatasetSpec::paper(1500).generate();
    let plan = SplitPlan::build(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::Greedy,
        SplitBudget::Percent(50.0),
        None,
    );
    let records = plan.records(&objects);
    let stats = BoxStats::compute(records.iter().map(|r| &r.stbox), 1000);

    // Spatial-only check at a single instant: alive records vs Pagel 2D.
    let q = (0.02, 0.02);
    let predicted = pagel_cost_2d(stats.alive_per_instant.ceil() as usize, stats.avg_extent, q);
    // Monte-Carlo the true expectation.
    let mut spec = QuerySetSpec::small_snapshot();
    spec.cardinality = 400;
    spec.extent_pct = (2.0, 2.0); // exactly 2% per side
    let qs = spec.generate();
    let mut total_hits = 0usize;
    for query in &qs {
        total_hits += records
            .iter()
            .filter(|r| r.stbox.matches(&query.area, &query.range))
            .count();
    }
    let measured = total_hits as f64 / qs.len() as f64;
    assert!(
        predicted / measured < 3.0 && measured / predicted < 3.0,
        "Pagel estimate {predicted:.2} vs measured {measured:.2}"
    );
}

#[test]
fn multiversion_storage_model_tracks_measurements() {
    use spatiotemporal_index::costmodel::MultiVersionCostModel;
    use spatiotemporal_index::pprtree::{PprParams, PprTree};

    let objects = RandomDatasetSpec::paper(3000).generate();
    let plan = SplitPlan::build(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(100.0),
        None,
    );
    let records = plan.records(&objects);
    let updates = records.len() * 2;

    let mut events: Vec<(u32, u8, usize)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        events.push((r.stbox.lifetime.start, 1, i));
        events.push((r.stbox.lifetime.end, 0, i));
    }
    events.sort_unstable();
    let mut ppr = PprTree::new(PprParams::default());
    for &(t, kind, i) in &events {
        let r = &records[i];
        if kind == 1 {
            ppr.insert(r.id, r.stbox.rect, t).unwrap();
        } else {
            ppr.delete(r.id, r.stbox.rect, t).unwrap();
        }
    }

    let model = MultiVersionCostModel::default();
    let ppr_pred = model.ppr_pages(updates);
    let ppr_real = ppr.num_pages() as f64;
    assert!(
        ppr_pred / ppr_real < 2.5 && ppr_real / ppr_pred < 2.5,
        "PPR pages: predicted {ppr_pred:.0} vs measured {ppr_real:.0}"
    );
}
