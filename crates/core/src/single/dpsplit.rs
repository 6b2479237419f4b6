//! `DPSplit`: optimal single-object splitting by dynamic programming
//! (paper §III-A.1).

use crate::single::SingleObjectSplitter;
use crate::VolumeCurve;
use sti_trajectory::RasterizedObject;

/// The optimal splitter.
///
/// Computes `V_l[0, i] = min_{0 ≤ j < i} { V_{l−1}[0, j] + V[j, i] }`
/// where `V[j, i]` is the volume of the single MBR covering instants
/// `[j, i)`. Splitting one object optimally with `k` splits costs
/// O(n²·k) time (Theorem 1) and O(n·k) space for cut reconstruction.
///
/// The inner `V[j, i]` values are produced by a suffix-union sweep per
/// endpoint `i` (O(n) each), so they never dominate the DP.
#[derive(Debug, Clone, Copy, Default)]
pub struct DpSplit;

/// Full DP state for one object: optimal volumes *and* cut positions for
/// every split count `0..=max_splits`. Computing the table once and
/// querying it repeatedly is how the distribution algorithms amortize the
/// quadratic cost.
#[derive(Debug, Clone)]
pub struct DpTable {
    cuts: DpCuts,
    /// `vol[l]` = optimal total volume with `l` splits.
    vols: Vec<f64>,
}

/// The cut half of a [`DpTable`]: what reconstructing the optimal cuts
/// needs once the volumes have gone to a [`VolumeCurve`].
#[derive(Debug, Clone)]
pub(crate) struct DpCuts {
    n: usize,
    /// `choice[l][i]` = the optimal last-cut position `j` for `V_l[0, i]`
    /// (flattened `l * (n + 1) + i`); `u32::MAX` marks unreachable
    /// states.
    choice: Vec<u32>,
}

impl DpCuts {
    /// Reconstruct the optimal cut positions for `l` splits (clamped).
    pub(crate) fn cuts(&self, l: usize) -> Vec<usize> {
        let width = self.n + 1;
        let l = l.min(self.choice.len() / width - 1);
        let mut cuts = Vec::with_capacity(l);
        let mut i = self.n;
        let mut lev = l;
        while lev > 0 {
            let j = self.choice[lev * width + i] as usize;
            cuts.push(j);
            i = j;
            lev -= 1;
        }
        cuts.reverse();
        cuts
    }

    /// Heap bytes held by the table.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.choice.capacity() * std::mem::size_of::<u32>()
    }
}

impl DpTable {
    /// Run the dynamic program for split counts up to `max_splits`
    /// (silently capped at `n − 1`, past which every instant is its own
    /// piece and no further gain exists).
    pub fn build(obj: &RasterizedObject, max_splits: usize) -> Self {
        let n = obj.len();
        let kmax = max_splits.min(n - 1);
        // dp[l][i] for l in 0..=kmax, i in 0..=n; flattened.
        let width = n + 1;
        let mut dp = vec![f64::INFINITY; (kmax + 1) * width];
        let mut choice = vec![u32::MAX; (kmax + 1) * width];
        dp[0] = 0.0; // V_0[0, 0]: empty prefix

        // Row l = 0: one box over [0, i). Prefix union sweep.
        {
            let mut mbr = sti_geom::Rect2::EMPTY;
            for (i, slot) in dp.iter_mut().enumerate().take(n + 1).skip(1) {
                mbr.expand(&obj.rect(i - 1));
                *slot = mbr.area() * i as f64;
            }
        }

        // suffix_area[j] = area of MBR over [j, i) for the current i.
        let mut suffix_area = vec![0.0f64; n];
        for i in 2..=n {
            // One O(i) sweep computing all V[j, i) for j < i.
            let mut mbr = sti_geom::Rect2::EMPTY;
            for j in (0..i).rev() {
                mbr.expand(&obj.rect(j));
                suffix_area[j] = mbr.area();
            }
            let lcap = kmax.min(i - 1);
            for l in 1..=lcap {
                // Last piece is [j, i) with j ≥ l (need l pieces before it).
                let mut best = f64::INFINITY;
                let mut best_j = u32::MAX;
                for j in l..i {
                    let prev = dp[(l - 1) * width + j];
                    if prev == f64::INFINITY {
                        continue;
                    }
                    let cand = prev + suffix_area[j] * (i - j) as f64;
                    if cand < best {
                        best = cand;
                        best_j = j as u32;
                    }
                }
                dp[l * width + i] = best;
                choice[l * width + i] = best_j;
            }
        }

        // Optimal volumes are non-increasing in l by construction, but a
        // too-large l for small prefixes stays INFINITY; at i = n all
        // l ≤ kmax ≤ n − 1 are feasible.
        let vols = (0..=kmax).map(|l| dp[l * width + n]).collect();
        Self {
            cuts: DpCuts { n, choice },
            vols,
        }
    }

    /// Number of instants of the underlying object.
    pub fn n(&self) -> usize {
        self.cuts.n
    }

    /// Largest split count covered by this table.
    pub fn max_splits(&self) -> usize {
        self.vols.len() - 1
    }

    /// Optimal total volume for `l` splits (clamped to the table).
    pub fn volume(&self, l: usize) -> f64 {
        self.vols[l.min(self.vols.len() - 1)]
    }

    /// Reconstruct the optimal cut positions for `l` splits (clamped).
    pub fn cuts(&self, l: usize) -> Vec<usize> {
        self.cuts.cuts(l)
    }

    /// The whole optimal volume curve, moved out of the table.
    pub fn curve(self) -> VolumeCurve {
        self.into_parts().1
    }

    /// Split the table into its cut half and its volume curve, moving
    /// both: the plan keeps the cuts and hands the curve to the
    /// distribution.
    pub(crate) fn into_parts(self) -> (DpCuts, VolumeCurve) {
        (self.cuts, VolumeCurve::new(self.vols))
    }
}

impl SingleObjectSplitter for DpSplit {
    fn cuts(&self, obj: &RasterizedObject, k: usize) -> Vec<usize> {
        DpTable::build(obj, k).cuts(k)
    }

    fn volume_curve(&self, obj: &RasterizedObject, max_splits: usize) -> VolumeCurve {
        DpTable::build(obj, max_splits).curve()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::testutil::*;
    use proptest::prelude::*;
    use sti_geom::Rect2;

    #[test]
    fn zero_splits_is_unsplit_volume() {
        let o = diagonal_mover(10);
        let t = DpTable::build(&o, 0);
        assert!((t.volume(0) - o.unsplit_volume()).abs() < 1e-12);
        assert!(t.cuts(0).is_empty());
    }

    #[test]
    fn full_splits_is_sum_of_instants() {
        let o = diagonal_mover(6);
        let t = DpTable::build(&o, 5);
        let per_instant: f64 = (0..6).map(|i| o.rect(i).area()).sum();
        assert!((t.volume(5) - per_instant).abs() < 1e-12);
        assert_eq!(t.cuts(5), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn matches_brute_force_on_small_objects() {
        for obj in [diagonal_mover(8), two_jump(3), stationary(7)] {
            for k in 0..=4 {
                let t = DpTable::build(&obj, k);
                let bf = brute_force_optimal(&obj, k);
                assert!(
                    (t.volume(k) - bf).abs() < 1e-9,
                    "k={k}: dp={} bf={bf}",
                    t.volume(k)
                );
                // And the reconstructed cuts must realize the DP volume.
                let realized = obj.volume_for_cuts(&t.cuts(k));
                assert!((realized - t.volume(k)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn two_jump_object_violates_monotonicity() {
        // The paper's fig. 4: with phases far apart, one split gains far
        // less than two. DPSplit's curve must expose this.
        let o = two_jump(5);
        let curve = DpTable::build(&o, 4).curve();
        assert!(!curve.has_monotone_gains(), "gain(2) should exceed gain(1)");
        assert!(curve.gain(2) > curve.gain(1));
    }

    #[test]
    fn budget_capped_at_n_minus_1() {
        let o = diagonal_mover(4);
        let t = DpTable::build(&o, 100);
        assert_eq!(t.max_splits(), 3);
        assert_eq!(t.cuts(100).len(), 3);
    }

    #[test]
    fn single_instant_object() {
        let o = RasterizedObject::new(1, 0, vec![Rect2::from_bounds(0.0, 0.0, 0.5, 0.5)]);
        let t = DpTable::build(&o, 3);
        assert_eq!(t.max_splits(), 0);
        assert!(t.cuts(3).is_empty());
        assert!((t.volume(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn trait_methods_agree_with_table() {
        let o = two_jump(4);
        let s = DpSplit;
        let cuts = s.cuts(&o, 2);
        let curve = s.volume_curve(&o, 2);
        assert!((o.volume_for_cuts(&cuts) - curve.volume(2)).abs() < 1e-9);
    }

    fn arb_object() -> impl Strategy<Value = sti_trajectory::RasterizedObject> {
        prop::collection::vec((0.0..0.9f64, 0.0..0.9f64), 2..14).prop_map(|pts| {
            let rects = pts
                .into_iter()
                .map(|(x, y)| Rect2::from_bounds(x, y, x + 0.05, y + 0.05))
                .collect();
            sti_trajectory::RasterizedObject::new(1, 0, rects)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn dp_equals_brute_force(obj in arb_object(), k in 0usize..4) {
            let t = DpTable::build(&obj, k);
            let bf = brute_force_optimal(&obj, k);
            prop_assert!((t.volume(k.min(obj.len() - 1)) - bf).abs() < 1e-9);
        }

        #[test]
        fn curve_non_increasing_and_cuts_valid(obj in arb_object()) {
            let kmax = obj.len() - 1;
            // The curve's constructor checks non-increasing.
            let (table, curve) = DpTable::build(&obj, kmax).into_parts();
            for l in 0..=kmax {
                let cuts = table.cuts(l);
                prop_assert_eq!(cuts.len(), l);
                let realized = obj.volume_for_cuts(&cuts);
                prop_assert!((realized - curve.volume(l)).abs() < 1e-9);
            }
        }
    }
}
