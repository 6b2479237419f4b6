//! k-nearest-neighbor search (best-first MINDIST traversal, Hjaltason &
//! Samet style). Not used by the paper's evaluation, but a production
//! R-Tree without kNN is half a library.

use crate::tree::RStarTree;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use sti_storage::{PageId, ReadProbe, StorageError};

/// Heap element for the best-first queue: distance-ordered, nodes and
/// records mixed.
#[derive(Debug, PartialEq)]
struct Pending {
    dist2: f64,
    /// `None` ⇒ `ptr` is a record id; `Some(level)` ⇒ child node page.
    level: Option<u32>,
    ptr: u64,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist2
            .total_cmp(&other.dist2)
            .then_with(|| self.ptr.cmp(&other.ptr))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl RStarTree {
    /// The `k` records nearest to `point` (in (x, y, scaled-t) space),
    /// as `(id, squared distance)` pairs ordered nearest-first.
    ///
    /// Best-first search: a min-heap ordered by MINDIST interleaves
    /// directory nodes and data records; when a record surfaces, no
    /// unexplored subtree can contain anything closer, so it is emitted.
    /// I/O is counted through the buffer pool like any query.
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries; the search
    /// is abandoned (the tree itself is untouched — reads only).
    pub fn nearest(&self, point: [f64; 3], k: usize) -> Result<Vec<(u64, f64)>, StorageError> {
        let mut out = Vec::with_capacity(k);
        if k == 0 || self.is_empty() {
            return Ok(out);
        }
        let mut heap: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
        let root = self.root_page();
        let root_level = self.height();
        heap.push(Reverse(Pending {
            dist2: 0.0,
            level: Some(root_level),
            ptr: u64::from(root),
        }));

        while let Some(Reverse(item)) = heap.pop() {
            match item.level {
                None => {
                    out.push((item.ptr, item.dist2));
                    if out.len() == k {
                        break;
                    }
                }
                Some(level) => {
                    let page = PageId::try_from(item.ptr).unwrap_or(PageId::MAX);
                    self.visit(page, level, &mut ReadProbe::new(), |e| {
                        heap.push(Reverse(Pending {
                            dist2: e.rect.min_dist2(&point),
                            level: level.checked_sub(1),
                            ptr: e.ptr,
                        }));
                    })?;
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RStarParams;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sti_geom::Rect3;

    fn build(n: usize, seed: u64) -> (RStarTree, Vec<(u64, Rect3)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RStarTree::new(RStarParams {
            max_entries: 8,
            buffer_pages: 4,
            ..RStarParams::default()
        });
        let mut data = Vec::new();
        for id in 0..n as u64 {
            let lo = [
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ];
            let e = rng.random::<f64>() * 0.03;
            let r = Rect3::new(lo, [lo[0] + e, lo[1] + e, lo[2] + e]);
            tree.insert(id, r).unwrap();
            data.push((id, r));
        }
        (tree, data)
    }

    fn brute(data: &[(u64, Rect3)], p: [f64; 3], k: usize) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = data.iter().map(|&(id, r)| (id, r.min_dist2(&p))).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_brute_force() {
        let (tree, data) = build(500, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..25 {
            let p = [
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ];
            for k in [1usize, 5, 20] {
                let got = tree.nearest(p, k).unwrap();
                let want = brute(&data, p, k);
                assert_eq!(got.len(), k);
                // Distances must match exactly (ids may differ on ties).
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.1 - w.1).abs() < 1e-12,
                        "k={k}: got {:?} want {:?}",
                        got,
                        want
                    );
                }
                // And results are sorted nearest-first.
                assert!(got.windows(2).all(|w| w[0].1 <= w[1].1));
            }
        }
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let (tree, _) = build(50, 9);
        assert!(tree.nearest([0.5; 3], 0).unwrap().is_empty());
        let empty = RStarTree::new(RStarParams {
            max_entries: 8,
            ..RStarParams::default()
        });
        assert!(empty.nearest([0.5; 3], 3).unwrap().is_empty());
    }

    #[test]
    fn k_larger_than_dataset_returns_all() {
        let (tree, data) = build(30, 11);
        let got = tree.nearest([0.2, 0.2, 0.2], 100).unwrap();
        assert_eq!(got.len(), data.len());
    }

    #[test]
    fn point_inside_a_record_has_distance_zero() {
        let mut tree = RStarTree::new(RStarParams {
            max_entries: 8,
            ..RStarParams::default()
        });
        tree.insert(42, Rect3::new([0.4; 3], [0.6; 3])).unwrap();
        tree.insert(1, Rect3::new([0.0; 3], [0.1; 3])).unwrap();
        let got = tree.nearest([0.5; 3], 1).unwrap();
        assert_eq!(got, vec![(42, 0.0)]);
    }

    #[test]
    fn knn_reads_fewer_pages_than_a_scan() {
        let (mut tree, _) = build(2000, 21);
        tree.reset_for_query();
        let _ = tree.nearest([0.5, 0.5, 0.5], 3).unwrap();
        let knn_reads = tree.io_stats().reads;
        assert!(
            (knn_reads as usize) < tree.num_pages() / 4,
            "best-first should prune: {knn_reads} reads of {} pages",
            tree.num_pages()
        );
    }
}
