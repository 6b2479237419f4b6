//! `MergeSplit`: the greedy merge heuristic for single-object splitting
//! (paper §III-A.2, fig. 8).

use crate::single::SingleObjectSplitter;
use crate::util::OrdF64;
use crate::VolumeCurve;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use sti_geom::Rect2;
use sti_trajectory::RasterizedObject;

/// The greedy merge splitter.
///
/// Starts with `n` boxes — one per time instant — and repeatedly merges
/// the pair of *consecutive* boxes whose union causes the smallest
/// increase in volume, maintaining the frontier in a priority queue.
/// O(n lg n) with lazy invalidation.
///
/// Because merging is agglomerative, one run produces a *nested
/// hierarchy*: the piece set for `k` splits refines the set for `k − 1`
/// splits. [`MergeHierarchy`] captures the whole run so distribution
/// algorithms can query any split count without re-running.
#[derive(Debug, Clone, Copy, Default)]
pub struct MergeSplit;

/// The complete result of one greedy merge run over an object.
#[derive(Debug, Clone)]
pub struct MergeHierarchy {
    n: usize,
    /// Cut indices (`1..n`) removed by successive merges, in merge order.
    removal_order: Vec<usize>,
    /// `vols[s]` = total volume with `s` splits under this hierarchy.
    vols: Vec<f64>,
}

impl MergeHierarchy {
    /// Run the greedy merge to completion (from `n` pieces down to 1).
    pub fn build(obj: &RasterizedObject) -> Self {
        let n = obj.len();
        if n == 1 {
            return Self {
                n,
                removal_order: Vec::new(),
                vols: vec![obj.unsplit_volume()],
            };
        }

        // Piece slots: slot i initially holds instant i. A live piece is
        // identified by its slot; merging (p, q) keeps slot p.
        let mut mbr: Vec<Rect2> = obj.rects().to_vec();
        let start: Vec<usize> = (0..n).collect();
        let mut end: Vec<usize> = (1..=n).collect();
        let mut next: Vec<usize> = (1..=n).collect(); // next[n-1] == n (sentinel)
        let mut prev: Vec<usize> = (0..n).map(|i| i.wrapping_sub(1)).collect();
        let mut alive = vec![true; n];
        let mut version = vec![0u32; n];

        let piece_vol = |mbr: &Rect2, s: usize, e: usize| -> f64 { mbr.area() * (e - s) as f64 };

        // Min-heap of merge candidates keyed by volume increase.
        type Cand = Reverse<(OrdF64, usize, u32, u32)>;
        let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(2 * n);
        let push_candidate = |heap: &mut BinaryHeap<Cand>,
                              mbr: &[Rect2],
                              start: &[usize],
                              end: &[usize],
                              version: &[u32],
                              p: usize,
                              q: usize| {
            let u = mbr[p].union(&mbr[q]);
            let cost = piece_vol(&u, start[p], end[q])
                - piece_vol(&mbr[p], start[p], end[p])
                - piece_vol(&mbr[q], start[q], end[q]);
            heap.push(Reverse((OrdF64(cost), p, version[p], version[q])));
        };

        for p in 0..n - 1 {
            push_candidate(&mut heap, &mbr, &start, &end, &version, p, p + 1);
        }

        let mut total: f64 = obj.rects().iter().map(Rect2::area).sum();
        let mut vols = vec![0.0f64; n];
        vols[n - 1] = total;
        let mut removal_order = Vec::with_capacity(n - 1);

        let mut merges = 0usize;
        while merges < n - 1 {
            #[expect(
                clippy::expect_used,
                reason = "every merge posts a fresh candidate for the surviving pair, so the heap cannot run dry before n-1 merges"
            )]
            let Reverse((OrdF64(cost), p, vp, vq)) = heap.pop().expect("candidates remain");
            if !alive[p] || version[p] != vp {
                continue;
            }
            let q = next[p];
            if q >= n || version[q] != vq {
                continue;
            }
            // Merge q into p.
            mbr[p] = mbr[p].union(&mbr[q]);
            end[p] = end[q];
            alive[q] = false;
            version[p] += 1;
            let after = next[q];
            next[p] = after;
            if after < n {
                prev[after] = p;
            }
            removal_order.push(start[q]);
            total += cost;
            merges += 1;
            vols[n - 1 - merges] = total;

            // New frontier candidates around the merged piece.
            if prev[p] != usize::MAX && prev[p] < n {
                let pp = prev[p];
                push_candidate(&mut heap, &mbr, &start, &end, &version, pp, p);
            }
            if after < n {
                push_candidate(&mut heap, &mbr, &start, &end, &version, p, after);
            }
        }

        // Greedy totals can accumulate float error; clamp tiny inversions
        // so the curve stays non-increasing.
        for s in 1..n {
            if vols[s] > vols[s - 1] {
                vols[s] = vols[s - 1];
            }
        }
        Self {
            n,
            removal_order,
            vols,
        }
    }

    /// Number of instants of the underlying object.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cut positions after restricting the hierarchy to `k` splits: all
    /// interior boundaries except the first `n − 1 − k` removed by merges.
    pub fn cuts(&self, k: usize) -> Vec<usize> {
        let k = k.min(self.n - 1);
        let keep = &self.removal_order[self.n - 1 - k..];
        let mut cuts: Vec<usize> = keep.to_vec();
        cuts.sort_unstable();
        cuts
    }

    /// Total volume with `k` splits (clamped to `n − 1`).
    pub fn volume(&self, k: usize) -> f64 {
        self.vols[k.min(self.n - 1)]
    }

    /// The volume curve truncated to `max_splits`.
    pub fn curve(&self, max_splits: usize) -> VolumeCurve {
        let hi = max_splits.min(self.n - 1);
        VolumeCurve::new(self.vols[..=hi].to_vec())
    }
}

impl SingleObjectSplitter for MergeSplit {
    fn cuts(&self, obj: &RasterizedObject, k: usize) -> Vec<usize> {
        MergeHierarchy::build(obj).cuts(k)
    }

    fn volume_curve(&self, obj: &RasterizedObject, max_splits: usize) -> VolumeCurve {
        MergeHierarchy::build(obj).curve(max_splits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::dpsplit::DpTable;
    use crate::single::testutil::*;
    use proptest::prelude::*;

    #[test]
    fn endpoints_match_exact_values() {
        let o = diagonal_mover(8);
        let h = MergeHierarchy::build(&o);
        // 0 splits: one MBR over everything.
        assert!((h.volume(0) - o.unsplit_volume()).abs() < 1e-9);
        // n-1 splits: per-instant boxes.
        let per_instant: f64 = (0..8).map(|i| o.rect(i).area()).sum();
        assert!((h.volume(7) - per_instant).abs() < 1e-9);
    }

    #[test]
    fn cuts_realize_reported_volume() {
        let o = two_jump(4); // n = 12
        let h = MergeHierarchy::build(&o);
        for k in 0..=11 {
            let cuts = h.cuts(k);
            assert_eq!(cuts.len(), k);
            let realized = o.volume_for_cuts(&cuts);
            assert!(
                (realized - h.volume(k)).abs() < 1e-9,
                "k={k}: realized={realized} reported={}",
                h.volume(k)
            );
        }
    }

    #[test]
    fn finds_the_obvious_jump_cuts() {
        // two_jump has huge gaps at indices 4 and 8; with 2 splits the
        // greedy must cut exactly there (those merges cost the most).
        let o = two_jump(4);
        let h = MergeHierarchy::build(&o);
        assert_eq!(h.cuts(2), vec![4, 8]);
        // and matches the optimum there
        let dp = DpTable::build(&o, 2);
        assert!((h.volume(2) - dp.volume(2)).abs() < 1e-9);
    }

    #[test]
    fn never_beats_optimal() {
        for o in [diagonal_mover(10), two_jump(3), stationary(9)] {
            let h = MergeHierarchy::build(&o);
            let dp = DpTable::build(&o, o.len() - 1);
            for k in 0..o.len() {
                assert!(
                    h.volume(k) >= dp.volume(k) - 1e-9,
                    "greedy beat optimal at k={k}"
                );
            }
        }
    }

    #[test]
    fn stationary_curve_is_flat() {
        let o = stationary(6);
        let h = MergeHierarchy::build(&o);
        for k in 0..6 {
            assert!((h.volume(k) - h.volume(0)).abs() < 1e-12);
        }
    }

    #[test]
    fn single_instant_object() {
        let o = stationary(1);
        let h = MergeHierarchy::build(&o);
        assert_eq!(h.n(), 1);
        assert!(h.cuts(5).is_empty());
        assert!((h.volume(0) - o.unsplit_volume()).abs() < 1e-12);
    }

    #[test]
    fn trait_object_usable() {
        let s: Box<dyn SingleObjectSplitter> = Box::new(MergeSplit);
        let o = diagonal_mover(5);
        let curve = s.volume_curve(&o, 4);
        assert_eq!(curve.max_splits(), 4);
        assert_eq!(s.cuts(&o, 2).len(), 2);
    }

    fn arb_object() -> impl Strategy<Value = RasterizedObject> {
        prop::collection::vec((0.0..0.9f64, 0.0..0.9f64), 1..24).prop_map(|pts| {
            let rects = pts
                .into_iter()
                .map(|(x, y)| sti_geom::Rect2::from_bounds(x, y, x + 0.05, y + 0.05))
                .collect();
            RasterizedObject::new(1, 0, rects)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hierarchy_is_consistent(o in arb_object()) {
            let h = MergeHierarchy::build(&o);
            let n = o.len();
            // Curve is checked non-increasing by the constructor.
            let _ = h.curve(n - 1);
            // Every k: cuts are k strictly increasing interior indices and
            // realize the reported volume.
            for k in (0..n).step_by(1 + n / 8) {
                let cuts = h.cuts(k);
                prop_assert_eq!(cuts.len(), k);
                prop_assert!(cuts.windows(2).all(|w| w[0] < w[1]));
                let realized = o.volume_for_cuts(&cuts);
                prop_assert!((realized - h.volume(k)).abs() < 1e-9);
            }
        }

        #[test]
        fn greedy_at_least_optimal(o in arb_object(), k in 0usize..6) {
            let h = MergeHierarchy::build(&o);
            let dp = DpTable::build(&o, k);
            let k = k.min(o.len() - 1);
            prop_assert!(h.volume(k) >= dp.volume(k) - 1e-9);
        }
    }
}
