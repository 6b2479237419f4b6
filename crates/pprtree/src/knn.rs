//! Historical k-nearest-neighbor search: "which objects were closest to
//! this point *at time t*?" — a natural companion to snapshot queries,
//! answered by a best-first MINDIST traversal of the ephemeral tree of
//! instant `t`.

use crate::tree::{instant_span, PprTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use sti_geom::{Point2, Time};
use sti_storage::{PageId, ReadProbe, StorageError};

#[derive(Debug, PartialEq)]
struct Pending {
    dist2: f64,
    /// `None` ⇒ `ptr` is a record id; `Some(level)` ⇒ a node page.
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

impl PprTree {
    /// The `k` records alive at instant `t` nearest to `point`, as
    /// `(id, squared distance)` pairs ordered nearest-first.
    ///
    /// Only entries whose lifetime contains `t` are expanded, so the
    /// search runs over exactly the ephemeral R-Tree of that instant:
    /// cost is proportional to the alive population near `point`, not to
    /// the history length.
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries; the search
    /// is abandoned and the tree is unchanged. Shared: `&self`, so
    /// concurrent kNN searches and range queries may interleave freely.
    pub fn nearest_at(
        &self,
        point: Point2,
        t: Time,
        k: usize,
    ) -> Result<Vec<(u64, f64)>, StorageError> {
        let mut out = Vec::with_capacity(k);
        if k == 0 {
            return Ok(out);
        }
        let Some(span) = self.root_span_at(t) else {
            return Ok(out);
        };
        let mut heap: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
        heap.push(Reverse(Pending {
            dist2: 0.0,
            level: Some(span.level),
            ptr: u64::from(span.page),
        }));

        while let Some(Reverse(item)) = heap.pop() {
            let Some(level) = item.level else {
                out.push((item.ptr, item.dist2));
                if out.len() == k {
                    break;
                }
                continue;
            };
            let page = PageId::try_from(item.ptr).unwrap_or(PageId::MAX);
            self.visit(page, level, instant_span(t), &mut ReadProbe::new(), |e| {
                heap.push(Reverse(Pending {
                    dist2: e.rect.min_dist2(&point),
                    level: level.checked_sub(1),
                    ptr: e.ptr,
                }));
            })?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PprParams;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sti_geom::Rect2;

    fn build(seed: u64) -> (PprTree, Vec<(u64, Rect2, u32, u32)>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = PprTree::new(PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        });
        let mut records = Vec::new();
        for id in 0..300u64 {
            let x = rng.random::<f64>() * 0.9;
            let y = rng.random::<f64>() * 0.9;
            let r = Rect2::from_bounds(x, y, x + 0.03, y + 0.03);
            let start = rng.random_range(0..800u32);
            let end = start + rng.random_range(1..150u32);
            records.push((id, r, start, end));
        }
        let mut events: Vec<(u32, u8, usize)> = Vec::new();
        for (i, &(_, _, s, e)) in records.iter().enumerate() {
            events.push((s, 1, i));
            events.push((e, 0, i));
        }
        events.sort_unstable();
        for (t, kind, i) in events {
            let (id, r, ..) = records[i];
            if kind == 1 {
                tree.insert(id, r, t).unwrap();
            } else {
                tree.delete(id, r, t).unwrap();
            }
        }
        (tree, records)
    }

    fn brute(records: &[(u64, Rect2, u32, u32)], p: Point2, t: u32, k: usize) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = records
            .iter()
            .filter(|&&(_, _, s, e)| s <= t && t < e)
            .map(|&(id, r, ..)| (id, r.min_dist2(&p)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn matches_brute_force_across_time() {
        let (tree, records) = build(5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..25 {
            let p = Point2::new(rng.random::<f64>(), rng.random::<f64>());
            let t = rng.random_range(0..950u32);
            for k in [1usize, 4, 12] {
                let got = tree.nearest_at(p, t, k).unwrap();
                let want = brute(&records, p, t, k);
                assert_eq!(got.len(), want.len(), "t={t} k={k}");
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g.1 - w.1).abs() < 1e-12,
                        "t={t} k={k}: {got:?} vs {want:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn respects_time_travel() {
        // The nearest neighbor at t=5 can differ from t=500 because the
        // population changed; both must be historically correct.
        let (tree, records) = build(7);
        let p = Point2::new(0.5, 0.5);
        for t in [5u32, 250, 500, 900] {
            let got = tree.nearest_at(p, t, 3).unwrap();
            let want = brute(&records, p, t, 3);
            assert_eq!(got.len(), want.len(), "t={t}");
        }
    }

    #[test]
    fn empty_time_returns_nothing() {
        let mut tree = PprTree::new(PprParams {
            max_entries: 10,
            ..PprParams::default()
        });
        tree.insert(1, Rect2::from_bounds(0.1, 0.1, 0.2, 0.2), 100)
            .unwrap();
        assert!(tree
            .nearest_at(Point2::new(0.5, 0.5), 50, 3)
            .unwrap()
            .is_empty());
        assert_eq!(
            tree.nearest_at(Point2::new(0.5, 0.5), 100, 3)
                .unwrap()
                .len(),
            1
        );
    }
}
