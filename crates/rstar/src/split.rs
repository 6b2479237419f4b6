//! The R\*-Tree topological split (ChooseSplitAxis / ChooseSplitIndex).

use crate::node::Entry;
use sti_geom::Rect3;

/// Split an overflowing entry set into two groups, R\*-style:
///
/// 1. **ChooseSplitAxis** — for every axis, sort the entries by lower and
///    by upper bound and sum the margins of every legal distribution; the
///    axis with the smallest margin sum wins (minimizing perimeter keeps
///    nodes square-ish).
/// 2. **ChooseSplitIndex** — along the winning axis, pick the
///    distribution with minimum overlap between the two group boxes,
///    breaking ties by minimum combined area (here: volume).
///
/// Legal distributions put at least `min_entries` in each group.
/// Returns the two groups; the first keeps the original page.
pub fn rstar_split(entries: Vec<Entry>, min_entries: usize) -> (Vec<Entry>, Vec<Entry>) {
    let n = entries.len();
    assert!(
        n >= 2 * min_entries,
        "cannot split {n} entries with min fill {min_entries}"
    );

    // A candidate distribution is (axis, sort-by-upper?, split position k):
    // the first `min_entries - 1 + k` entries of the sort go to group 1,
    // k in 1..=n - 2*min_entries + 1.
    let k_range = 1..=(n - 2 * min_entries + 1);

    let sorted_by = |axis: usize, by_upper: bool| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            let (ra, rb) = (&entries[a].rect, &entries[b].rect);
            let key = |r: &Rect3| {
                if by_upper {
                    (r.hi[axis], r.lo[axis])
                } else {
                    (r.lo[axis], r.hi[axis])
                }
            };
            let (ka, kb) = (key(ra), key(rb));
            ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
        });
        idx
    };

    // Prefix/suffix bounding boxes of a sort order.
    let sweep = |order: &[usize]| -> (Vec<Rect3>, Vec<Rect3>) {
        let mut prefix = Vec::with_capacity(n);
        let mut acc = Rect3::EMPTY;
        for &i in order {
            acc.expand(&entries[i].rect);
            prefix.push(acc);
        }
        let mut suffix = vec![Rect3::EMPTY; n];
        let mut acc = Rect3::EMPTY;
        for (pos, &i) in order.iter().enumerate().rev() {
            acc.expand(&entries[i].rect);
            suffix[pos] = acc;
        }
        (prefix, suffix)
    };

    // ChooseSplitAxis.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..3 {
        let mut margin_sum = 0.0;
        for by_upper in [false, true] {
            let order = sorted_by(axis, by_upper);
            let (prefix, suffix) = sweep(&order);
            for k in k_range.clone() {
                let split_at = min_entries - 1 + k; // size of group 1
                margin_sum += prefix[split_at - 1].margin() + suffix[split_at].margin();
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }

    // ChooseSplitIndex along best_axis.
    let mut best: Option<(f64, f64, Vec<usize>, usize)> = None; // (overlap, volume, order, split_at)
    for by_upper in [false, true] {
        let order = sorted_by(best_axis, by_upper);
        let (prefix, suffix) = sweep(&order);
        for k in k_range.clone() {
            let split_at = min_entries - 1 + k;
            let bb1 = prefix[split_at - 1];
            let bb2 = suffix[split_at];
            let overlap = bb1.overlap_volume(&bb2);
            let volume = bb1.volume() + bb2.volume();
            let better = match &best {
                None => true,
                Some((o, v, _, _)) => (overlap, volume) < (*o, *v),
            };
            if better {
                best = Some((overlap, volume, order.clone(), split_at));
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "k_range is nonempty whenever n >= 2*min_entries (asserted on entry), so the distribution loop always ran"
    )]
    let (_, _, order, split_at) = best.expect("at least one distribution");
    let g1 = order[..split_at].iter().map(|&i| entries[i]).collect();
    let g2 = order[split_at..].iter().map(|&i| entries[i]).collect();
    (g1, g2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(lo: [f64; 3], hi: [f64; 3], ptr: u64) -> Entry {
        Entry {
            rect: Rect3::new(lo, hi),
            ptr,
        }
    }

    fn cube(x: f64, y: f64, t: f64, s: f64, ptr: u64) -> Entry {
        e([x, y, t], [x + s, y + s, t + s], ptr)
    }

    #[test]
    fn separates_two_obvious_clusters() {
        // 4 boxes near the origin, 4 boxes far along x; min fill 2.
        let mut entries = Vec::new();
        for i in 0..4 {
            entries.push(cube(0.01 * i as f64, 0.0, 0.0, 0.05, i));
        }
        for i in 0..4 {
            entries.push(cube(10.0 + 0.01 * i as f64, 0.0, 0.0, 0.05, 100 + i));
        }
        let (g1, g2) = rstar_split(entries, 2);
        let ids1: Vec<u64> = g1.iter().map(|e| e.ptr).collect();
        let ids2: Vec<u64> = g2.iter().map(|e| e.ptr).collect();
        // One group holds the near cluster, the other the far cluster.
        let near_in_1 = ids1.iter().all(|&p| p < 100);
        let near_in_2 = ids2.iter().all(|&p| p < 100);
        assert!(near_in_1 ^ near_in_2);
        assert_eq!(g1.len(), 4);
        assert_eq!(g2.len(), 4);
    }

    #[test]
    fn split_axis_prefers_the_spread_dimension() {
        // Entries spread along t only — the split must separate along t,
        // giving zero overlap.
        let entries: Vec<Entry> = (0..8).map(|i| cube(0.0, 0.0, i as f64, 0.5, i)).collect();
        let (g1, g2) = rstar_split(entries, 2);
        let bb1 = g1.iter().fold(Rect3::EMPTY, |a, e| a.union(&e.rect));
        let bb2 = g2.iter().fold(Rect3::EMPTY, |a, e| a.union(&e.rect));
        assert_eq!(bb1.overlap_volume(&bb2), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn rejects_underfull_input() {
        let entries: Vec<Entry> = (0..3).map(|i| cube(0.0, 0.0, 0.0, 0.1, i)).collect();
        let _ = rstar_split(entries, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn split_preserves_entries_and_min_fill(
            boxes in prop::collection::vec(
                (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.001..0.2f64), 8..60),
        ) {
            let min_fill = 1 + boxes.len() / 5; // ≈ 0.2–0.4 of n
            let entries: Vec<Entry> = boxes
                .iter()
                .enumerate()
                .map(|(i, &(x, y, t, s))| cube(x, y, t, s, i as u64))
                .collect();
            let n = entries.len();
            let (g1, g2) = rstar_split(entries, min_fill);
            prop_assert_eq!(g1.len() + g2.len(), n);
            prop_assert!(g1.len() >= min_fill);
            prop_assert!(g2.len() >= min_fill);
            // No entry lost or duplicated.
            let mut ids: Vec<u64> = g1.iter().chain(&g2).map(|e| e.ptr).collect();
            ids.sort_unstable();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
