//! Bulk loading (packing) for the R\*-Tree.
//!
//! The paper explicitly declined to pack its R\*-Tree: "packing does not
//! help substantially with datasets of moving objects. Packing algorithms
//! tend to cluster together objects that might be consecutive in order
//! even though they may correspond to large and small intervals. This
//! leads to more overlapping and empty space" (§V). The one packer here,
//! Sort-Tile-Recursive (Leutenegger, Lopez & Edgington, ICDE 1997 —
//! reference \[15\]), exists to *test* that claim (see the
//! `ablation_packing` bench target): recursively tile the space into
//! vertical slabs by x, then y within slabs, then t.
//!
//! It produces fully packed nodes bottom-up; the resulting tree is a
//! regular [`RStarTree`] and answers queries identically.

use crate::node::{Entry, Node, RStarParams};
use crate::tree::RStarTree;
use sti_geom::Rect3;
use sti_storage::{Page, PageStore, ScratchPool, StorageError};

impl RStarTree {
    /// Bulk load a tree from `(id, box)` records in STR order. Nodes are
    /// filled to capacity, as the classic packers do.
    ///
    /// # Errors
    /// A [`StorageError`] if writing a packed page fails (only possible
    /// with a fallible backend; the default in-memory store cannot fail).
    ///
    /// # Panics
    /// On an empty input or an empty rectangle.
    pub fn bulk_load(records: &[(u64, Rect3)], params: RStarParams) -> Result<Self, StorageError> {
        params.validate();
        assert!(!records.is_empty(), "cannot bulk load an empty record set");
        let mut store = Self::guarded(PageStore::new(params.buffer_pages));

        let mut entries: Vec<Entry> = records
            .iter()
            .map(|&(id, rect)| {
                assert!(!rect.is_empty(), "cannot index an empty rectangle");
                Entry { rect, ptr: id }
            })
            .collect();
        str_tile(&mut entries, params.max_entries);

        // Pack level by level until a single node remains.
        let mut level = 0u32;
        // bounded: each pass packs `entries` into ceil(len / max_entries)
        // parents, and `validate` keeps max_entries >= 4, so it ends
        // within the tree's level count, log_M(n) + 1.
        loop {
            if entries.len() <= params.max_entries {
                let root_node = Node { level, entries };
                let root = store.allocate()?;
                let mut page = Page::zeroed();
                root_node.encode(&mut page);
                store.write(root, &page.bytes()[..])?;
                let len = records.len() as u64;
                return Ok(Self {
                    store,
                    params,
                    root,
                    root_level: level,
                    len,
                    scratch: ScratchPool::new(),
                });
            }
            let mut parents: Vec<Entry> =
                Vec::with_capacity(entries.len() / params.max_entries + 1);
            for chunk in entries.chunks(params.max_entries) {
                let node = Node {
                    level,
                    entries: chunk.to_vec(),
                };
                let page = store.allocate()?;
                let mut buf = Page::zeroed();
                node.encode(&mut buf);
                store.write(page, &buf.bytes()[..])?;
                parents.push(Entry::child(node.mbr(), page));
            }
            // Upper levels keep the lower level's ordering: the parents
            // inherit the tiling.
            entries = parents;
            level += 1;
        }
    }
}

/// Sort-Tile-Recursive ordering in 3D: sort by x-center, cut into
/// vertical slabs of `S²·cap` records (S = #slabs per axis), sort each
/// slab by y-center, cut into runs of `S·cap`, sort each run by t-center.
fn str_tile(entries: &mut [Entry], cap: usize) {
    let n = entries.len();
    let leaves = n.div_ceil(cap);
    let s = (leaves as f64).powf(1.0 / 3.0).ceil() as usize;
    let center = |e: &Entry, d: usize| (e.rect.lo[d] + e.rect.hi[d]) / 2.0;

    entries.sort_by(|a, b| center(a, 0).total_cmp(&center(b, 0)));
    let slab = (s * s * cap).max(1);
    for xs in entries.chunks_mut(slab) {
        xs.sort_by(|a, b| center(a, 1).total_cmp(&center(b, 1)));
        let run = (s * cap).max(1);
        for ys in xs.chunks_mut(run) {
            ys.sort_by(|a, b| center(a, 2).total_cmp(&center(b, 2)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn params() -> RStarParams {
        RStarParams {
            max_entries: 8,
            buffer_pages: 4,
            ..RStarParams::default()
        }
    }

    fn random_records(n: usize, seed: u64) -> Vec<(u64, Rect3)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|id| {
                let lo = [
                    rng.random::<f64>(),
                    rng.random::<f64>(),
                    rng.random::<f64>(),
                ];
                let e = rng.random::<f64>() * 0.05;
                (id, Rect3::new(lo, [lo[0] + e, lo[1] + e, lo[2] + e]))
            })
            .collect()
    }

    #[test]
    fn single_node_load() {
        let recs = random_records(5, 1);
        let mut t = RStarTree::bulk_load(&recs, params()).unwrap();
        assert_eq!(t.root_level, 0);
        assert_eq!(t.len(), 5);
        t.validate_packed();
        let mut out = Vec::new();
        t.query(&Rect3::new([0.0; 3], [1.0; 3]), &mut out).unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn queries_match_brute_force() {
        let recs = random_records(700, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let mut t = RStarTree::bulk_load(&recs, params()).unwrap();
        assert!(t.root_level >= 2, "tree should be tall");
        t.validate_packed();
        for _ in 0..40 {
            let lo = [
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ];
            let q = Rect3::new(lo, [lo[0] + 0.1, lo[1] + 0.1, lo[2] + 0.1]);
            let mut got = Vec::new();
            t.query(&q, &mut got).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = recs
                .iter()
                .filter(|(_, r)| r.intersects(&q))
                .map(|&(id, _)| id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn packed_tree_is_smaller_than_inserted_tree() {
        let recs = random_records(700, 3);
        let packed = RStarTree::bulk_load(&recs, params()).unwrap();
        let mut inserted = RStarTree::new(params());
        for &(id, r) in &recs {
            inserted.insert(id, r).unwrap();
        }
        assert!(
            packed.num_pages() < inserted.num_pages(),
            "full nodes should need fewer pages: {} vs {}",
            packed.num_pages(),
            inserted.num_pages()
        );
    }

    #[test]
    fn bulk_loaded_tree_accepts_further_inserts() {
        let recs = random_records(200, 11);
        let mut t = RStarTree::bulk_load(&recs, params()).unwrap();
        for i in 0..100u64 {
            let v = i as f64 / 100.0;
            t.insert(
                1000 + i,
                Rect3::new([v, v, v], [v + 0.01, v + 0.01, v + 0.01]),
            )
            .unwrap();
        }
        assert_eq!(t.len(), 300);
        let mut out = Vec::new();
        t.query(&Rect3::new([0.0; 3], [1.0; 3]), &mut out).unwrap();
        assert_eq!(out.len(), 300);
    }

    #[test]
    #[should_panic(expected = "empty record set")]
    fn rejects_empty_input() {
        let _ = RStarTree::bulk_load(&[], params());
    }

    #[test]
    fn str_tiling_produces_spatial_runs() {
        // After STR ordering, consecutive chunks should have much less
        // x-spread than the whole set.
        let mut entries: Vec<Entry> = random_records(512, 21)
            .into_iter()
            .map(|(id, rect)| Entry { rect, ptr: id })
            .collect();
        str_tile(&mut entries, 8);
        let spread = |es: &[Entry]| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for e in es {
                lo = lo.min(e.rect.lo[0]);
                hi = hi.max(e.rect.hi[0]);
            }
            hi - lo
        };
        let whole = spread(&entries);
        let avg_chunk: f64 =
            entries.chunks(8).map(spread).sum::<f64>() / entries.chunks(8).count() as f64;
        assert!(
            avg_chunk < whole * 0.5,
            "chunks not localized: {avg_chunk} vs {whole}"
        );
    }
}
