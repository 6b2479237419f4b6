//! Choosing the number of splits (paper §IV).
//!
//! Two strategies are provided, mirroring the paper's proposals:
//!
//! * [`choose_splits_analytical`] — for each candidate budget, plan the
//!   splits, summarize the resulting record set, and feed the summary to
//!   an analytical cost model ([`sti_costmodel::RTreeCostModel`]); pick
//!   the budget with the lowest predicted average query cost.
//! * [`choose_splits_by_sampling`] — build real (small) indexes over a
//!   sample of the dataset, run representative queries against each, and
//!   pick the budget with the lowest measured I/O, normalizing the
//!   budget back to the full dataset.

use crate::index::{IndexBackend, IndexConfig, SpatioTemporalIndex};
use crate::multi::DistributionAlgorithm;
use crate::parallel::{map_chunked, Parallelism};
use crate::plan::{SplitBudget, SplitPlan};
use crate::single::SingleSplitAlgorithm;
use sti_costmodel::{BoxStats, RTreeCostModel};
use sti_geom::{Rect2, Time, TimeInterval};
use sti_trajectory::RasterizedObject;

/// The average query the tuner optimizes for: spatial window extents
/// (fractions of the space) and duration in instants.
#[derive(Debug, Clone, Copy)]
pub struct QueryProfile {
    /// Mean query window extents.
    pub extents: (f64, f64),
    /// Mean query duration in instants.
    pub duration: u32,
}

/// Outcome of a tuning run: the chosen budget plus the full cost table
/// for inspection/plotting.
#[derive(Debug, Clone)]
pub struct TuningResult {
    /// Index into `candidates` of the winner.
    pub best: usize,
    /// `(budget, predicted-or-measured cost)` per candidate.
    pub costs: Vec<(SplitBudget, f64)>,
}

impl TuningResult {
    /// The winning budget.
    pub fn best_budget(&self) -> SplitBudget {
        self.costs[self.best].0
    }
}

/// §IV, method 1: predict the average query cost per candidate budget
/// with an analytical model and pick the minimum.
///
/// The PPR-Tree answers a snapshot query like an ephemeral 2D R-Tree over
/// the records alive at that instant, and an interval query touches the
/// records alive during the window; the model is therefore applied in 2D
/// with the *alive-per-instant* cardinality (splitting leaves this
/// unchanged while shrinking spatial extents — exactly why it pays off,
/// cf. §I).
pub fn choose_splits_analytical(
    objects: &[RasterizedObject],
    single: SingleSplitAlgorithm,
    distribution: DistributionAlgorithm,
    candidates: &[SplitBudget],
    profile: QueryProfile,
    time_extent: Time,
    parallelism: Parallelism,
) -> TuningResult {
    assert!(!candidates.is_empty(), "no candidate budgets");
    assert!(profile.duration >= 1, "queries span at least one instant");
    let model = RTreeCostModel::default();
    // Split sources depend only on the objects and the single-object
    // algorithm: build them once (fanning per-object work out over
    // `parallelism`) and re-distribute per candidate. Candidates are
    // themselves independent, so the candidate loop fans out too;
    // results come back in candidate order either way.
    let (sources, curves) = SplitPlan::prepare(objects, single, None, parallelism);
    let costs = map_chunked(candidates, parallelism, |_, &budget| {
        let k = budget.resolve(objects.len());
        let allocation = distribution.distribute(&curves, k);
        let records = crate::plan::records_for(objects, &sources, &allocation.splits);
        let stats = BoxStats::compute(records.iter().map(|r| &r.stbox), time_extent);
        // Records alive during the query window ≈ alive-per-instant
        // scaled by (1 + duration / avg record duration) to account for
        // turnover across the interval.
        let turnover = 1.0
            + f64::from(profile.duration - 1)
                / (stats.avg_duration * f64::from(time_extent)).max(1.0);
        let n_eff = (stats.alive_per_instant * turnover).ceil() as usize;
        let cost = model.estimate(
            n_eff.max(1),
            &[stats.avg_extent.0, stats.avg_extent.1],
            &[profile.extents.0, profile.extents.1],
        );
        (budget, cost)
    });
    let best = argmin(&costs);
    TuningResult { best, costs }
}

/// §IV, method 2: sample the dataset (`1 / sample_denominator` of the
/// objects), build a real index per candidate budget, measure the average
/// query I/O over `queries`, and pick the minimum. Budgets expressed as
/// [`SplitBudget::Percent`] transfer to the full dataset unchanged; the
/// paper's "the number of splits should be normalized to the full
/// dataset" is exactly this.
#[expect(
    clippy::too_many_arguments,
    reason = "the paper's method 2 has eight independent inputs; a config struct would only rename them"
)]
pub fn choose_splits_by_sampling(
    objects: &[RasterizedObject],
    single: SingleSplitAlgorithm,
    distribution: DistributionAlgorithm,
    candidates: &[SplitBudget],
    queries: &[(Rect2, TimeInterval)],
    backend: IndexBackend,
    sample_denominator: usize,
    parallelism: Parallelism,
) -> TuningResult {
    assert!(!candidates.is_empty(), "no candidate budgets");
    assert!(sample_denominator >= 1);
    let sample: Vec<RasterizedObject> = objects
        .iter()
        .step_by(sample_denominator)
        .cloned()
        .collect();
    assert!(!sample.is_empty(), "sample is empty");

    // Split sources depend only on the sample and the single-object
    // algorithm: build them once and re-distribute per candidate. Each
    // candidate owns its (small) index, so the build-and-measure pass
    // fans out over `parallelism`; measured I/O is deterministic per
    // candidate and comes back in candidate order.
    let (sample_sources, sample_curves) = SplitPlan::prepare(&sample, single, None, parallelism);
    let costs = map_chunked(candidates, parallelism, |_, &budget| {
        // Percent budgets transfer to the sample unchanged; absolute
        // counts must shrink with it, or the sampled index would carry
        // `denominator`× the intended splits per object.
        let sampled_budget = match budget {
            SplitBudget::Percent(_) => budget,
            SplitBudget::Count(k) => SplitBudget::Count(k / sample_denominator),
        };
        let k = sampled_budget.resolve(sample.len());
        let allocation = distribution.distribute(&sample_curves, k);
        let records = crate::plan::records_for(&sample, &sample_sources, &allocation.splits);
        #[expect(
            clippy::expect_used,
            reason = "the sampling tuner builds over the default in-memory store, which cannot fail"
        )]
        let mut idx = SpatioTemporalIndex::build(&records, &IndexConfig::paper(backend))
            .expect("in-memory build cannot fail");
        let mut total_io = 0u64;
        for (area, range) in queries {
            idx.reset_for_query();
            #[expect(
                clippy::expect_used,
                reason = "in-memory reads cannot fail; a skipped query would silently skew the measured cost"
            )]
            let _ = idx.query(area, range).expect("in-memory query cannot fail");
            total_io += idx.io_stats().reads;
        }
        (budget, total_io as f64 / queries.len().max(1) as f64)
    });
    let best = argmin(&costs);
    TuningResult { best, costs }
}

#[expect(
    clippy::expect_used,
    reason = "choose_splits_by_sampling asserts the candidate list is non-empty before building costs"
)]
fn argmin(costs: &[(SplitBudget, f64)]) -> usize {
    costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map(|(i, _)| i)
        .expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_geom::Point2;

    /// Fast-moving objects: splitting should clearly pay off.
    fn movers(n: usize) -> Vec<RasterizedObject> {
        (0..n as u64)
            .map(|id| {
                let start = ((id * 31) % 900) as u32;
                let len = 40 + (id % 20) as usize;
                let rects = (0..len)
                    .map(|i| {
                        let x = 0.01 + 0.9 * ((id as f64 * 0.37 + 0.015 * i as f64).fract());
                        Rect2::centered(Point2::new(x + 0.01, 0.5), 0.02, 0.02)
                    })
                    .collect();
                RasterizedObject::new(id, start, rects)
            })
            .collect()
    }

    #[test]
    fn analytical_tuner_prefers_splitting_for_movers() {
        // Large enough that the tree has real levels — with a handful of
        // objects everything fits the root and all budgets tie.
        let objs = movers(2000);
        let candidates = [
            SplitBudget::Percent(0.0),
            SplitBudget::Percent(50.0),
            SplitBudget::Percent(150.0),
        ];
        let result = choose_splits_analytical(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            &candidates,
            QueryProfile {
                extents: (0.01, 0.01),
                duration: 1,
            },
            1000,
            Parallelism::Sequential,
        );
        assert_eq!(result.costs.len(), 3);
        // Costs must be monotone non-increasing in the split budget for
        // this workload: splitting shrinks extents at constant alive
        // cardinality.
        assert!(result.costs[1].1 <= result.costs[0].1 + 1e-9);
        assert!(
            result.best != 0,
            "tuner should not pick zero splits for fast movers"
        );
    }

    #[test]
    fn sampling_tuner_runs_and_picks_a_candidate() {
        let objs = movers(80);
        let candidates = [SplitBudget::Percent(0.0), SplitBudget::Percent(100.0)];
        let queries: Vec<(Rect2, TimeInterval)> = (0..10)
            .map(|i| {
                (
                    Rect2::from_bounds(
                        0.1 * (i % 8) as f64,
                        0.45,
                        0.1 * (i % 8) as f64 + 0.05,
                        0.55,
                    ),
                    TimeInterval::new(i * 80, i * 80 + 1),
                )
            })
            .collect();
        let result = choose_splits_by_sampling(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            &candidates,
            &queries,
            IndexBackend::PprTree,
            2,
            Parallelism::Sequential,
        );
        assert_eq!(result.costs.len(), 2);
        assert!(result.best < 2);
        let _ = result.best_budget();
    }

    #[test]
    fn analytical_tuner_is_parallelism_invariant() {
        let objs = movers(60);
        let candidates = [
            SplitBudget::Percent(0.0),
            SplitBudget::Percent(50.0),
            SplitBudget::Percent(100.0),
        ];
        let profile = QueryProfile {
            extents: (0.05, 0.05),
            duration: 3,
        };
        let run = |par| {
            choose_splits_analytical(
                &objs,
                SingleSplitAlgorithm::MergeSplit,
                DistributionAlgorithm::Greedy,
                &candidates,
                profile,
                1000,
                par,
            )
        };
        let seq = run(Parallelism::Sequential);
        for workers in [2, 4] {
            let par = run(Parallelism::fixed(workers));
            assert_eq!(par.best, seq.best);
            for (a, b) in par.costs.iter().zip(&seq.costs) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{workers} workers");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one instant")]
    fn rejects_zero_duration_profile() {
        let objs = movers(5);
        let _ = choose_splits_analytical(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            &[SplitBudget::Percent(50.0)],
            QueryProfile {
                extents: (0.01, 0.01),
                duration: 0,
            },
            1000,
            Parallelism::Sequential,
        );
    }

    #[test]
    fn sampling_scales_absolute_budgets() {
        // A Count budget equal to the full dataset's object count should
        // behave like ~100% splits on the sample, not like
        // denominator×100%.
        let objs = movers(40);
        let queries: Vec<(Rect2, TimeInterval)> = vec![(Rect2::UNIT, TimeInterval::instant(100))];
        let result = choose_splits_by_sampling(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            &[SplitBudget::Count(objs.len())],
            &queries,
            IndexBackend::PprTree,
            4,
            Parallelism::Sequential,
        );
        // It ran and produced a cost for the (scaled) candidate.
        assert_eq!(result.costs.len(), 1);
        assert!(result.costs[0].1 >= 0.0);
    }

    #[test]
    #[should_panic(expected = "no candidate budgets")]
    fn rejects_empty_candidates() {
        let objs = movers(5);
        let _ = choose_splits_analytical(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            &[],
            QueryProfile {
                extents: (0.01, 0.01),
                duration: 1,
            },
            1000,
            Parallelism::Sequential,
        );
    }
}
