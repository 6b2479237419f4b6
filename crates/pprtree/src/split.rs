//! 2D R\*-style key split for strong version overflows.

use crate::node::PprEntry;
use sti_geom::Rect2;

/// Spatially split an overflowing set of *alive* entries into two groups,
/// using the R\*-Tree topological split adapted to 2D: choose the axis
/// with the smallest margin sum over all legal distributions, then the
/// distribution with minimum overlap (ties by minimum combined area).
///
/// Used when a version split produces a copy with more than
/// `P_svo · B` alive entries; `min_entries` should be the strong version
/// underflow bound so neither half starts life sparse.
pub fn key_split(entries: Vec<PprEntry>, min_entries: usize) -> (Vec<PprEntry>, Vec<PprEntry>) {
    let n = entries.len();
    assert!(
        n >= 2 * min_entries,
        "cannot key-split {n} entries with min fill {min_entries}"
    );

    let k_range = 1..=(n - 2 * min_entries + 1);

    let sorted_by = |axis: usize, by_upper: bool| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| {
            let (ra, rb) = (&entries[a].rect, &entries[b].rect);
            let key = |r: &Rect2| {
                let (lo, hi) = if axis == 0 {
                    (r.lo.x, r.hi.x)
                } else {
                    (r.lo.y, r.hi.y)
                };
                if by_upper {
                    (hi, lo)
                } else {
                    (lo, hi)
                }
            };
            let (ka, kb) = (key(ra), key(rb));
            ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
        });
        idx
    };

    let sweep = |order: &[usize]| -> (Vec<Rect2>, Vec<Rect2>) {
        let mut prefix = Vec::with_capacity(n);
        let mut acc = Rect2::EMPTY;
        for &i in order {
            acc.expand(&entries[i].rect);
            prefix.push(acc);
        }
        let mut suffix = vec![Rect2::EMPTY; n];
        let mut acc = Rect2::EMPTY;
        for (pos, &i) in order.iter().enumerate().rev() {
            acc.expand(&entries[i].rect);
            suffix[pos] = acc;
        }
        (prefix, suffix)
    };

    // ChooseSplitAxis over the two spatial axes.
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..2 {
        let mut margin_sum = 0.0;
        for by_upper in [false, true] {
            let order = sorted_by(axis, by_upper);
            let (prefix, suffix) = sweep(&order);
            for k in k_range.clone() {
                let split_at = min_entries - 1 + k;
                margin_sum += prefix[split_at - 1].margin() + suffix[split_at].margin();
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = axis;
        }
    }

    // ChooseSplitIndex.
    let mut best: Option<(f64, f64, Vec<usize>, usize)> = None;
    for by_upper in [false, true] {
        let order = sorted_by(best_axis, by_upper);
        let (prefix, suffix) = sweep(&order);
        for k in k_range.clone() {
            let split_at = min_entries - 1 + k;
            let bb1 = prefix[split_at - 1];
            let bb2 = suffix[split_at];
            let overlap = bb1.overlap_area(&bb2);
            let area = bb1.area() + bb2.area();
            let better = match &best {
                None => true,
                Some((o, a, _, _)) => (overlap, area) < (*o, *a),
            };
            if better {
                best = Some((overlap, area, order.clone(), split_at));
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
    use sti_geom::TimeInterval;

    fn e(x: f64, y: f64, s: f64, ptr: u64) -> PprEntry {
        PprEntry {
            rect: Rect2::from_bounds(x, y, x + s, y + s),
            ptr,
            insertion: 0,
            deletion: TimeInterval::OPEN_END,
        }
    }

    #[test]
    fn separates_two_clusters() {
        let mut entries = Vec::new();
        for i in 0..5 {
            entries.push(e(0.01 * i as f64, 0.0, 0.02, i));
        }
        for i in 0..5 {
            entries.push(e(0.9 + 0.01 * i as f64, 0.0, 0.02, 100 + i));
        }
        let (g1, g2) = key_split(entries, 2);
        let near1 = g1.iter().all(|e| e.ptr < 100);
        let near2 = g2.iter().all(|e| e.ptr < 100);
        assert!(near1 ^ near2);
        assert_eq!(g1.len() + g2.len(), 10);
    }

    #[test]
    fn splits_along_y_when_y_spreads() {
        let entries: Vec<PprEntry> = (0..8).map(|i| e(0.5, i as f64 * 0.1, 0.01, i)).collect();
        let (g1, g2) = key_split(entries, 2);
        let bb1 = g1.iter().fold(Rect2::EMPTY, |a, x| a.union(&x.rect));
        let bb2 = g2.iter().fold(Rect2::EMPTY, |a, x| a.union(&x.rect));
        assert_eq!(bb1.overlap_area(&bb2), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot key-split")]
    fn rejects_underfull() {
        let _ = key_split(vec![e(0.0, 0.0, 0.1, 1); 3], 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn preserves_entries_and_min_fill(
            boxes in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64, 0.001..0.1f64), 6..50),
        ) {
            let min_fill = 1 + boxes.len() / 5;
            let entries: Vec<PprEntry> = boxes
                .iter()
                .enumerate()
                .map(|(i, &(x, y, s))| e(x, y, s, i as u64))
                .collect();
            let n = entries.len();
            let (g1, g2) = key_split(entries, min_fill);
            prop_assert_eq!(g1.len() + g2.len(), n);
            prop_assert!(g1.len() >= min_fill && g2.len() >= min_fill);
            let mut ids: Vec<u64> = g1.iter().chain(&g2).map(|e| e.ptr).collect();
            ids.sort_unstable();
            prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
