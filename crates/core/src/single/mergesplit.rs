//! `MergeSplit`: the greedy merge heuristic for single-object splitting
//! (paper §III-A.2, fig. 8).
//!
//! Each merge is picked from a tournament tree over the piece slots:
//! leaf `p` holds the cost of merging piece `p` with the piece after it,
//! every inner node the smaller of its children, so the root is the next
//! merge. A merge kills one leaf, refreshes the two whose costs it
//! changed and recomputes their shared ancestors once — O(lg n) per
//! merge, with no stale entries to skip. Equal costs go to the lower
//! slot under [`f64::total_cmp`]. The run keeps 4 B per instant for the
//! cut order and 8 B for the volume curve.

use crate::single::SingleObjectSplitter;
use crate::VolumeCurve;
use sti_geom::Rect2;
use sti_trajectory::RasterizedObject;

/// The greedy merge splitter.
///
/// Starts with `n` boxes — one per time instant — and repeatedly merges
/// the pair of *consecutive* boxes whose union causes the smallest
/// increase in volume. O(n lg n).
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
    order: RemovalOrder,
    /// `vols[s]` = total volume with `s` splits under this hierarchy.
    vols: Vec<f64>,
}

/// The cut half of a [`MergeHierarchy`]: the interior boundaries
/// (`1..n`) in the order successive merges removed them. A boundary is a
/// raster index and an object's instants are [`sti_geom::Time`]s, so
/// each fits in a `u32`.
#[derive(Debug, Clone)]
pub(crate) struct RemovalOrder(Vec<u32>);

impl RemovalOrder {
    /// Cut positions after restricting the hierarchy to `k` splits: all
    /// interior boundaries except the first `n − 1 − k` removed by merges.
    pub(crate) fn cuts(&self, k: usize) -> Vec<usize> {
        let k = k.min(self.0.len());
        let mut cuts: Vec<usize> = self.0[self.0.len() - k..]
            .iter()
            .map(|&c| c as usize)
            .collect();
        cuts.sort_unstable();
        cuts
    }

    /// Heap bytes held by the order.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u32>()
    }
}

/// A leaf no merge can take: above every real key, whose low 32 bits
/// hold a slot below `u32::MAX`.
const DEAD: u128 = u128::MAX;

/// The tournament key of merging slot `slot` at `cost`: the cost's bits
/// remapped so unsigned order is [`f64::total_cmp`] order, then the slot,
/// so equal costs go to the lower slot.
fn key(cost: f64, slot: usize) -> u128 {
    let bits = cost.to_bits();
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (u128::from(ordered) << 32) | slot as u128
}

/// The slot and cost a live [`key`] was made from.
fn unkey(key: u128) -> (usize, f64) {
    let ordered = (key >> 32) as u64;
    let bits = if ordered >> 63 == 1 {
        ordered ^ 1 << 63
    } else {
        !ordered
    };
    ((key as u32) as usize, f64::from_bits(bits))
}

/// Recompute every ancestor of `nodes` (same-depth tree indices in
/// ascending order) once, bottom up.
fn fix_ancestors(tree: &mut [u128], nodes: &mut [usize]) {
    let mut len = nodes.len();
    while nodes[0] > 1 {
        let mut parents = 0;
        for i in 0..len {
            let parent = nodes[i] / 2;
            if parents == 0 || nodes[parents - 1] != parent {
                nodes[parents] = parent;
                parents += 1;
            }
        }
        len = parents;
        for &node in &nodes[..len] {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
    }
}

impl MergeHierarchy {
    /// Run the greedy merge to completion (from `n` pieces down to 1).
    pub fn build(obj: &RasterizedObject) -> Self {
        let n = obj.len();
        assert!(
            u32::try_from(n).is_ok(),
            "object {} has more instants than a u32 cut index can name",
            obj.id()
        );
        if n == 1 {
            return Self {
                order: RemovalOrder(Vec::new()),
                vols: vec![obj.unsplit_volume()],
            };
        }

        // Piece slots: slot i initially holds instant i, and a merge
        // keeps the left slot, so a live piece at slot p covers instants
        // [p, next[p]). Slot n − 1 never has a piece after it, and slot 0
        // none before it (`prev[0]` is never read).
        let mut mbr: Vec<Rect2> = obj.rects().to_vec();
        let mut next: Vec<u32> = (1..=n).map(|i| i as u32).collect();
        let mut prev: Vec<u32> = (0..n).map(|i| i.saturating_sub(1) as u32).collect();
        let cost = |mbr: &[Rect2], next: &[u32], p: usize| -> f64 {
            let q = next[p] as usize;
            let end = next[q] as usize;
            let u = mbr[p].union(&mbr[q]);
            u.area() * (end - p) as f64
                - mbr[p].area() * (q - p) as f64
                - mbr[q].area() * (end - q) as f64
        };

        let leaves = n.next_power_of_two();
        let mut tree = vec![DEAD; 2 * leaves];
        for p in 0..n - 1 {
            tree[leaves + p] = key(cost(&mbr, &next, p), p);
        }
        for node in (1..leaves).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }

        let mut total: f64 = obj.rects().iter().map(Rect2::area).sum();
        let mut vols = vec![0.0f64; n];
        vols[n - 1] = total;
        let mut removal_order = Vec::with_capacity(n - 1);

        for merges in 1..n {
            // n − merges + 1 ≥ 2 pieces remain, so the root is a live leaf.
            let (p, merge_cost) = unkey(tree[1]);
            let q = next[p] as usize;
            // Merge q into p.
            mbr[p] = mbr[p].union(&mbr[q]);
            let after = next[q];
            next[p] = after;
            removal_order.push(q as u32);
            total += merge_cost;
            vols[n - 1 - merges] = total;

            tree[leaves + q] = DEAD;
            tree[leaves + p] = if (after as usize) < n {
                prev[after as usize] = p as u32;
                key(cost(&mbr, &next, p), p)
            } else {
                DEAD
            };
            let mut nodes = [0, leaves + p, leaves + q];
            let first = if p > 0 {
                let pp = prev[p] as usize;
                tree[leaves + pp] = key(cost(&mbr, &next, pp), pp);
                nodes[0] = leaves + pp;
                0
            } else {
                1
            };
            fix_ancestors(&mut tree, &mut nodes[first..]);
        }

        // Greedy totals can accumulate float error; clamp tiny inversions
        // so the curve stays non-increasing.
        for s in 1..n {
            if vols[s] > vols[s - 1] {
                vols[s] = vols[s - 1];
            }
        }
        Self {
            order: RemovalOrder(removal_order),
            vols,
        }
    }

    /// Number of instants of the underlying object.
    pub fn n(&self) -> usize {
        self.vols.len()
    }

    /// Cut positions after restricting the hierarchy to `k` splits: all
    /// interior boundaries except the first `n − 1 − k` removed by merges.
    pub fn cuts(&self, k: usize) -> Vec<usize> {
        self.order.cuts(k)
    }

    /// Total volume with `k` splits (clamped to `n − 1`).
    pub fn volume(&self, k: usize) -> f64 {
        self.vols[k.min(self.vols.len() - 1)]
    }

    /// The volume curve truncated to `max_splits`, moved out of the
    /// hierarchy.
    pub fn curve(self, max_splits: usize) -> VolumeCurve {
        self.into_parts(max_splits).1
    }

    /// Split the hierarchy into its cut order and its volume curve
    /// truncated to `max_splits`, moving both: the plan keeps the order
    /// and hands the curve to the distribution.
    pub(crate) fn into_parts(self, max_splits: usize) -> (RemovalOrder, VolumeCurve) {
        let mut vols = self.vols;
        vols.truncate(max_splits.saturating_add(1));
        vols.shrink_to_fit();
        (self.order, VolumeCurve::new(vols))
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
    use crate::util::OrdF64;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The lazily invalidated binary heap the tournament tree replaced,
    /// kept as the reference: the cut order and the volume curve of a
    /// full greedy run.
    fn heap_build(obj: &RasterizedObject) -> (Vec<usize>, Vec<f64>) {
        let n = obj.len();
        if n == 1 {
            return (Vec::new(), vec![obj.unsplit_volume()]);
        }
        let mut mbr: Vec<Rect2> = obj.rects().to_vec();
        let start: Vec<usize> = (0..n).collect();
        let mut end: Vec<usize> = (1..=n).collect();
        let mut next: Vec<usize> = (1..=n).collect();
        let mut prev: Vec<usize> = (0..n).map(|i| i.wrapping_sub(1)).collect();
        let mut alive = vec![true; n];
        let mut version = vec![0u32; n];
        let piece_vol = |mbr: &Rect2, s: usize, e: usize| mbr.area() * (e - s) as f64;
        type Cand = Reverse<(OrdF64, usize, u32, u32)>;
        let mut heap: BinaryHeap<Cand> = BinaryHeap::with_capacity(2 * n);
        let push = |heap: &mut BinaryHeap<Cand>,
                    mbr: &[Rect2],
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
            push(&mut heap, &mbr, &end, &version, p, p + 1);
        }
        let mut total: f64 = obj.rects().iter().map(Rect2::area).sum();
        let mut vols = vec![0.0f64; n];
        vols[n - 1] = total;
        let mut order = Vec::with_capacity(n - 1);
        let mut merges = 0usize;
        while merges < n - 1 {
            let Reverse((OrdF64(cost), p, vp, vq)) = heap.pop().unwrap();
            if !alive[p] || version[p] != vp {
                continue;
            }
            let q = next[p];
            if q >= n || version[q] != vq {
                continue;
            }
            mbr[p] = mbr[p].union(&mbr[q]);
            end[p] = end[q];
            alive[q] = false;
            version[p] += 1;
            let after = next[q];
            next[p] = after;
            if after < n {
                prev[after] = p;
            }
            order.push(start[q]);
            total += cost;
            merges += 1;
            vols[n - 1 - merges] = total;
            if prev[p] < n {
                let pp = prev[p];
                push(&mut heap, &mbr, &end, &version, pp, p);
            }
            if after < n {
                push(&mut heap, &mbr, &end, &version, p, after);
            }
        }
        for s in 1..n {
            if vols[s] > vols[s - 1] {
                vols[s] = vols[s - 1];
            }
        }
        (order, vols)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The tournament tree's cut order and volumes, bit for bit those of
    /// the heap.
    fn assert_matches_heap(o: &RasterizedObject) {
        let (order, vols) = heap_build(o);
        let h = MergeHierarchy::build(o);
        let got: Vec<usize> = h.order.0.iter().map(|&c| c as usize).collect();
        assert_eq!(got, order, "cut order, n = {}", o.len());
        assert_eq!(bits(&h.vols), bits(&vols), "volumes, n = {}", o.len());
    }

    /// The cost of merging each instant with the next, as both builds
    /// compute it before the first merge.
    fn first_costs(o: &RasterizedObject) -> Vec<f64> {
        o.rects()
            .windows(2)
            .map(|w| 2.0 * w[0].union(&w[1]).area() - w[0].area() - w[1].area())
            .collect()
    }

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

    #[test]
    fn curve_moves_out_truncated() {
        let o = two_jump(4);
        let full = MergeHierarchy::build(&o);
        let vols: Vec<f64> = (0..=3).map(|k| full.volume(k)).collect();
        let (order, curve) = full.into_parts(3);
        assert_eq!(bits(curve.as_slice()), bits(&vols));
        assert_eq!(order.cuts(2), vec![4, 8]);
        assert_eq!(order.heap_bytes(), 11 * 4);
        let curve = MergeHierarchy::build(&o).curve(usize::MAX);
        assert_eq!(curve.max_splits(), 11);
    }

    #[test]
    fn keys_order_like_total_cmp_then_slot_and_below_dead() {
        let costs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut keys = Vec::new();
        for (i, &c) in costs.iter().enumerate() {
            for slot in [0, 1, u32::MAX as usize - 1] {
                let k = key(c, slot);
                assert!(k < DEAD, "cost {c:?} slot {slot}");
                let (s, back) = unkey(k);
                assert_eq!((s, back.to_bits()), (slot, c.to_bits()));
                keys.push((k, i, slot));
            }
        }
        // Generated in total_cmp order, slots ascending within a cost.
        assert!(keys.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn static_object_ties_every_merge_like_the_heap() {
        // Every merge of a stationary object costs 0: the order is the
        // tie rule alone.
        let o = RasterizedObject::new(3, 0, vec![Rect2::from_bounds(0.25, 0.25, 0.75, 0.75); 64]);
        assert!(first_costs(&o).iter().all(|c| c.to_bits() == 0));
        assert_matches_heap(&o);
        let h = MergeHierarchy::build(&o);
        assert_eq!(h.order.0, (1..64).collect::<Vec<u32>>());
    }

    #[test]
    fn negative_and_positive_zero_costs_order_like_the_heap() {
        // Extents of ±0 give merge costs of +0.0 and, where `f64::max` /
        // `min` return an operand on a ±0 tie (as on x86-64), -0.0:
        // `total_cmp` orders the two. Every sequence of four templates.
        let (p, m) = (0.0, -0.0);
        let templates = [
            Rect2::from_bounds(p, p, m, m),
            Rect2::from_bounds(p, 1.0, p, 2.0),
            Rect2::from_bounds(m, 1.0, m, 2.0),
            Rect2::from_bounds(m, 3.0, p, 4.0),
            Rect2::from_bounds(p, 1.0, m, 2.0),
        ];
        let (mut negative, mut positive) = (false, false);
        for pattern in 0..templates.len().pow(4) {
            let rects: Vec<Rect2> = (0..4)
                .map(|i| templates[pattern / templates.len().pow(i) % templates.len()])
                .collect();
            let o = RasterizedObject::new(1, 0, rects);
            for c in first_costs(&o) {
                negative |= c.to_bits() == (-0.0f64).to_bits();
                positive |= c.to_bits() == 0;
            }
            assert_matches_heap(&o);
        }
        assert!(positive);
        assert!(negative || !cfg!(target_arch = "x86_64"));
    }

    #[test]
    fn infinite_costs_from_huge_coordinates_order_like_the_heap() {
        // Points far apart: each union's area overflows to +inf, and
        // later merges subtract infinities.
        let far = 1e160;
        let rects: Vec<Rect2> = (0..9)
            .map(|i| {
                let c = if i % 3 == 0 { -far } else { far * f64::from(i) };
                Rect2::from_bounds(c, c, c, c)
            })
            .collect();
        let o = RasterizedObject::new(1, 0, rects);
        assert!(first_costs(&o).contains(&f64::INFINITY));
        assert_matches_heap(&o);
    }

    #[test]
    fn tiny_and_large_objects_order_like_the_heap() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5eed);
        // Coordinates on a 0.05 grid, so equal costs occur.
        let mut coord = move || f64::from(rng.random_range(0..16u32)) * 0.05;
        for n in [1, 2, 3, 4096] {
            let rects: Vec<Rect2> = (0..n)
                .map(|_| {
                    let (x, y) = (coord(), coord());
                    Rect2::from_bounds(x, y, x + coord(), y + coord())
                })
                .collect();
            assert_matches_heap(&RasterizedObject::new(1, 0, rects));
        }
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

    /// Objects on a coarse grid, so equal merge costs are common.
    fn arb_grid_object() -> impl Strategy<Value = RasterizedObject> {
        prop::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..64).prop_map(|cells| {
            let rects = cells
                .into_iter()
                .map(|(x, y, w)| {
                    let (x, y, w) = (f64::from(x) * 0.25, f64::from(y) * 0.25, f64::from(w) * 0.1);
                    sti_geom::Rect2::from_bounds(x, y, x + w, y + w)
                })
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
            // Every k: cuts are k strictly increasing interior indices and
            // realize the reported volume.
            for k in (0..n).step_by(1 + n / 8) {
                let cuts = h.cuts(k);
                prop_assert_eq!(cuts.len(), k);
                prop_assert!(cuts.windows(2).all(|w| w[0] < w[1]));
                let realized = o.volume_for_cuts(&cuts);
                prop_assert!((realized - h.volume(k)).abs() < 1e-9);
            }
            // Curve is checked non-increasing by the constructor.
            let _ = h.curve(n - 1);
        }

        #[test]
        fn greedy_at_least_optimal(o in arb_object(), k in 0usize..6) {
            let h = MergeHierarchy::build(&o);
            let dp = DpTable::build(&o, k);
            let k = k.min(o.len() - 1);
            prop_assert!(h.volume(k) >= dp.volume(k) - 1e-9);
        }

        #[test]
        fn tournament_matches_the_heap(o in arb_object(), g in arb_grid_object()) {
            assert_matches_heap(&o);
            assert_matches_heap(&g);
        }
    }
}
