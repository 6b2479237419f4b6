//! Cross-structure equivalence: the PPR-Tree and the 3D R\*-Tree must
//! answer every historical query over the same records exactly like a
//! brute-force pass over those records — they differ in cost, never in
//! answers.
//!
//! The reference also writes down the object-level dedup rule once: a
//! split object is many index records under one id, and a query's answer
//! is the sorted set of *ids* with at least one matching record. The
//! PPR-Tree owes that set as is (its answers are sorted here, never
//! deduplicated); the raw R\*-Tree stores one entry per record
//! and leaves the id-level dedup to its caller, so its answer is
//! deduplicated before the comparison.

use spatiotemporal_index::core::{ObjectRecord, SplitPlan};
use spatiotemporal_index::geom::{Rect3, TimeInterval};
use spatiotemporal_index::pprtree::{PprParams, PprTree};
use spatiotemporal_index::prelude::*;
use spatiotemporal_index::rstar::{RStarParams, RStarTree};

const TIME_SCALE: f64 = 1000.0;

fn build_both(records: &[ObjectRecord]) -> (PprTree, RStarTree) {
    let mut events: Vec<(u32, u8, usize)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        events.push((r.stbox.lifetime.start, 1, i));
        events.push((r.stbox.lifetime.end, 0, i));
    }
    events.sort_unstable();

    let mut ppr = PprTree::new(PprParams {
        max_entries: 12,
        ..PprParams::default()
    });
    for &(t, kind, i) in &events {
        let r = &records[i];
        if kind == 1 {
            ppr.insert(r.id, r.stbox.rect, t).unwrap();
        } else {
            ppr.delete(r.id, r.stbox.rect, t).unwrap();
        }
    }
    let mut rstar = RStarTree::new(RStarParams {
        max_entries: 12,
        ..RStarParams::default()
    });
    for r in records {
        rstar.insert(r.id, r.to_rect3(TIME_SCALE)).unwrap();
    }
    (ppr, rstar)
}

/// The reference answer: every record is tested, ids are reported once.
fn brute_force(records: &[ObjectRecord], area: &Rect2, range: &TimeInterval) -> Vec<u64> {
    let mut ids: Vec<u64> = records
        .iter()
        .filter(|r| r.stbox.matches(area, range))
        .map(|r| r.id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Check both trees against the reference for one query; a range of one
/// instant goes through the PPR-Tree's snapshot path.
fn assert_both_match(
    records: &[ObjectRecord],
    ppr: &PprTree,
    rstar: &RStarTree,
    area: &Rect2,
    range: &TimeInterval,
) {
    let want = brute_force(records, area, range);

    let mut got = Vec::new();
    if range.len() == 1 {
        ppr.query_snapshot(area, range.start, &mut got).unwrap();
    } else {
        ppr.query_interval(area, range, &mut got).unwrap();
    }
    got.sort_unstable();
    assert_eq!(got, want, "PPR vs brute force at {range}");

    let mut got = Vec::new();
    rstar
        .query(&Rect3::from_query(area, range, TIME_SCALE), &mut got)
        .unwrap();
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, want, "R* vs brute force at {range}");
}

#[test]
fn both_structures_match_brute_force_everywhere() {
    let objects = RandomDatasetSpec::paper(500).generate();
    let plan = SplitPlan::build(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(120.0),
        None,
    );
    let records = plan.records(&objects);
    let (ppr, rstar) = build_both(&records);

    for i in 0..40u32 {
        let x = 0.09 * f64::from(i % 10);
        let area = Rect2::from_bounds(x, 0.1, (x + 0.12).min(1.0), 0.6);
        let t = 25 * i;
        assert_both_match(&records, &ppr, &rstar, &area, &TimeInterval::new(t, t + 1));
        let range = TimeInterval::new(t, t + 1 + (i % 13));
        assert_both_match(&records, &ppr, &rstar, &area, &range);
    }
}

#[test]
fn railway_stream_agreement() {
    let trains = RailwayDatasetSpec::paper(400).generate_rasterized();
    let plan = SplitPlan::build(
        &trains,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::Greedy,
        SplitBudget::Percent(80.0),
        None,
    );
    let records = plan.records(&trains);
    let (ppr, rstar) = build_both(&records);
    let area = Rect2::from_bounds(0.0, 0.5, 0.3, 1.0); // around California
    for t in (0..1000).step_by(111) {
        assert_both_match(&records, &ppr, &rstar, &area, &TimeInterval::new(t, t + 1));
        let range = TimeInterval::new(t, t + 60);
        assert_both_match(&records, &ppr, &rstar, &area, &range);
    }
}
