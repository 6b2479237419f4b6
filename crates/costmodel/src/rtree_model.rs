//! A Theodoridis–Sellis style R-Tree performance model.
//!
//! Predicts the expected number of node accesses for a uniform window
//! query from dataset statistics only (no index needs to be built):
//! node extents per level are derived from the *data density* via the
//! published recursion, and the Pagel sum is applied level by level.

/// Analytical R-Tree cost model, parameterized by the average fanout.
#[derive(Debug, Clone, Copy)]
pub struct RTreeCostModel {
    /// Average entries per node. With a capacity of 50 and ~70% fill,
    /// ≈ 35.
    pub fanout: f64,
}

impl Default for RTreeCostModel {
    fn default() -> Self {
        // 50-entry pages at the classic ~69% average utilization.
        Self { fanout: 34.5 }
    }
}

impl RTreeCostModel {
    /// Expected node accesses for a window query.
    ///
    /// * `n` — number of data boxes,
    /// * `avg_extents` — per-dimension average box extents (unit space);
    ///   the dimension count is taken from its length,
    /// * `query` — per-dimension query extents (same length).
    ///
    /// Levels: `j = 1` are the leaves (`n / f^j` nodes each); the
    /// recursion `D_{j+1} = (1 + (D_j^{1/d} − 1) / f^{1/d})^d` tracks how
    /// density (expected boxes covering a point) evolves up the tree, and
    /// node extents at level `j` follow as `(D_j · f^j / n)^{1/d}`
    /// (isotropic approximation). The root always costs one access.
    pub fn estimate(&self, n: usize, avg_extents: &[f64], query: &[f64]) -> f64 {
        assert_eq!(avg_extents.len(), query.len(), "dimension mismatch");
        let d = avg_extents.len() as f64;
        assert!(d >= 1.0);
        let f = self.fanout;
        assert!(f > 1.0, "fanout must exceed 1");
        if n == 0 {
            return 0.0;
        }
        let nf = n as f64;

        // Data density: expected number of boxes covering a random point.
        let mut density: f64 = nf * avg_extents.iter().product::<f64>();
        density = density.max(1e-12);

        let mut cost = 1.0; // the root
        let mut level = 1u32;
        // bounded: `level` grows by one per pass and the pass after
        // level 64 breaks, if a level that fits in one node has not.
        loop {
            let nodes = nf / f.powi(level as i32);
            if nodes <= 1.0 {
                break;
            }
            // Density of level-`level` node regions.
            density = (1.0 + (density.powf(1.0 / d) - 1.0).max(0.0) / f.powf(1.0 / d)).powf(d);
            let side = (density * f.powi(level as i32) / nf).powf(1.0 / d).min(1.0);
            let mut touch = 1.0;
            for &q in query {
                touch *= (side + q).min(1.0);
            }
            cost += nodes * touch;
            level += 1;
            if level > 64 {
                break;
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: [f64; 3] = [0.01, 0.01, 0.001];

    #[test]
    fn empty_dataset_costs_nothing() {
        let m = RTreeCostModel::default();
        assert_eq!(m.estimate(0, &[0.01; 3], &Q), 0.0);
    }

    #[test]
    fn tiny_dataset_costs_one_root_access() {
        let m = RTreeCostModel::default();
        let c = m.estimate(10, &[0.01; 3], &Q);
        assert!((c - 1.0).abs() < 1e-9, "{c}");
    }

    #[test]
    fn cost_grows_with_cardinality() {
        let m = RTreeCostModel::default();
        let c1 = m.estimate(10_000, &[0.005; 3], &Q);
        let c2 = m.estimate(100_000, &[0.005; 3], &Q);
        assert!(c2 > c1, "{c2} ≤ {c1}");
        assert!(c1 >= 1.0);
    }

    #[test]
    fn cost_grows_with_box_extents() {
        // Bigger data boxes (more empty space) → more node overlap →
        // higher cost. This is the lever splitting pulls.
        let m = RTreeCostModel::default();
        let tight = m.estimate(50_000, &[0.004, 0.004, 0.01], &Q);
        let loose = m.estimate(50_000, &[0.05, 0.05, 0.1], &Q);
        assert!(loose > tight * 1.5, "loose {loose} vs tight {tight}");
    }

    #[test]
    fn models_the_split_tradeoff() {
        // Splitting halves temporal extents (and shrinks spatial ones)
        // but increases the count; for small queries the model must show
        // a net win, mirroring fig. 15's PPR curve.
        let m = RTreeCostModel::default();
        let unsplit = m.estimate(50_000, &[0.03, 0.03, 0.05], &Q);
        let split = m.estimate(100_000, &[0.012, 0.012, 0.025], &Q);
        assert!(split < unsplit, "split {split} vs unsplit {unsplit}");
    }

    #[test]
    fn two_dimensional_mode_works() {
        // The PPR-Tree cost is modeled as an ephemeral 2D R-Tree over the
        // alive records.
        let m = RTreeCostModel::default();
        let c = m.estimate(2500, &[0.006, 0.006], &[0.01, 0.01]);
        assert!((1.0..2500.0).contains(&c));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_dimension_mismatch() {
        RTreeCostModel::default().estimate(10, &[0.1; 3], &[0.1; 2]);
    }
}
