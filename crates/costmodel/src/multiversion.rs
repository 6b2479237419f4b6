//! Cost model for the multi-version partially persistent structure
//! (after Tao & Papadias, ICDE 2002 — reference \[26\] of the paper:
//! "Cost models for overlapping and multi-version structures").
//!
//! The PPR-Tree behaves like an ephemeral 2D R-Tree per time instant, so
//! its query cost is the 2D [`RTreeCostModel`] over the records *alive*
//! at the query instant; interval queries add the records that turn over
//! during the window. Storage is linear in the number of updates.

use crate::RTreeCostModel;

/// Analytical model for the multi-version (PPR) partial-persistence
/// structure.
#[derive(Debug, Clone, Copy)]
pub struct MultiVersionCostModel {
    /// The underlying R-Tree model (fanout assumption).
    pub rtree: RTreeCostModel,
    /// Page capacity in entries (the paper's B = 50).
    pub page_capacity: usize,
    /// Expansion factor of the multi-version store over a plain R-Tree on
    /// the same records: version copies roughly double the space (the
    /// paper's fig. 16 measures ≈ 2×).
    pub version_overhead: f64,
}

impl Default for MultiVersionCostModel {
    fn default() -> Self {
        Self {
            rtree: RTreeCostModel::default(),
            page_capacity: 50,
            version_overhead: 2.0,
        }
    }
}

impl MultiVersionCostModel {
    /// Expected node accesses for a snapshot query: the ephemeral 2D
    /// R-Tree over the `alive` records with mean extents `s`, probed by a
    /// window with extents `q`.
    pub fn snapshot_cost(&self, alive: usize, s: (f64, f64), q: (f64, f64)) -> f64 {
        self.rtree.estimate(alive, &[s.0, s.1], &[q.0, q.1])
    }

    /// Expected node accesses for an interval query of `duration`
    /// instants: the snapshot cost scaled by the record turnover across
    /// the window (`avg_record_duration` = mean record lifetime in
    /// instants).
    pub fn interval_cost(
        &self,
        alive: usize,
        s: (f64, f64),
        q: (f64, f64),
        duration: u32,
        avg_record_duration: f64,
    ) -> f64 {
        assert!(duration >= 1);
        let turnover = 1.0 + f64::from(duration - 1) / avg_record_duration.max(1.0);
        self.rtree.estimate(
            ((alive as f64 * turnover).ceil() as usize).max(1),
            &[s.0, s.1],
            &[q.0, q.1],
        )
    }

    /// Predicted disk pages for the multi-version store after `updates`
    /// record insertions+deletions: linear in the changes.
    ///
    /// Each logical record (insert + delete = 2 updates) occupies one
    /// leaf slot, plus version copies (the overhead factor), plus ~1/B
    /// directory weight per leaf entry.
    pub fn ppr_pages(&self, updates: usize) -> f64 {
        let records = updates as f64 / 2.0;
        let leaf_slots = records * self.version_overhead;
        let b = self.page_capacity as f64;
        // The classic ~69% average page utilization.
        (leaf_slots / (0.69 * b)) * (1.0 + 1.0 / b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_cost_grows_with_duration() {
        let m = MultiVersionCostModel::default();
        let s = (0.01, 0.01);
        let q = (0.005, 0.005);
        let snap = m.snapshot_cost(2000, s, q);
        let one = m.interval_cost(2000, s, q, 1, 50.0);
        let long = m.interval_cost(2000, s, q, 50, 50.0);
        assert!((snap - one).abs() < 1e-9, "duration 1 equals a snapshot");
        assert!(long > one, "longer windows touch more records");
    }

    #[test]
    fn ppr_storage_is_linear() {
        let m = MultiVersionCostModel::default();
        let a = m.ppr_pages(10_000);
        let b = m.ppr_pages(20_000);
        assert!((b / a - 2.0).abs() < 1e-9);
    }
}
