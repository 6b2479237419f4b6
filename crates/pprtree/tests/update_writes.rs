//! An update writes exactly the pages whose bytes it changes.
//!
//! Seeded insert/delete streams at `B = 10` drive the tree through every
//! structural case of an update — version splits, key splits, strong
//! underflow merges, root splits and the closing of a root — and around
//! every single update every page at rest is read off the books. The
//! store's write count must move by exactly the number of pages whose
//! bytes differ afterwards (a page allocated by the update counts as
//! all zeros before it), so an ancestor whose entry already covered an
//! inserted rectangle, or a full node whose only change is the copy it
//! is about to get, costs no write. The tree must validate after every
//! update, and each stream must have reached every case.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sti_geom::{Rect2, Time};
use sti_pprtree::{check, PprNode, PprParams, PprTree};
use sti_storage::{Page, PageId};

fn params() -> PprParams {
    PprParams {
        max_entries: 10,
        p_version: 0.22,
        p_svo: 0.8,
        p_svu: 0.4,
        buffer_pages: 4,
    }
}

/// Every page at rest, in id order.
fn pages_at_rest(tree: &mut PprTree) -> Vec<Page> {
    let backend = tree.backend();
    (0..backend.num_pages())
        .map(|i| {
            let mut page = Page::zeroed();
            let id = PageId::try_from(i).unwrap();
            backend.peek_into(id, page.bytes_mut()).unwrap();
            page
        })
        .collect()
}

/// The structural cases one update went through, read off its page diff
/// and the root log.
#[derive(Debug, Default)]
struct Seen {
    version_splits: usize,
    key_splits: usize,
    merges: usize,
    root_splits: usize,
    root_closures: usize,
}

struct Checked {
    tree: PprTree,
    seen: Seen,
}

impl Checked {
    /// Run one update and check its writes against its page diff.
    fn update(&mut self, t: Time, op: impl FnOnce(&mut PprTree)) {
        let before = pages_at_rest(&mut self.tree);
        let root_before = self
            .tree
            .roots()
            .last()
            .copied()
            .filter(|r| r.interval.is_open());
        let writes_before = self.tree.io_stats().writes;
        op(&mut self.tree);
        let after = pages_at_rest(&mut self.tree);
        let writes = self.tree.io_stats().writes - writes_before;

        let zero = Page::zeroed();
        let changed = after
            .iter()
            .enumerate()
            .filter(|&(i, page)| page != before.get(i).unwrap_or(&zero))
            .count() as u64;
        assert_eq!(writes, changed, "update at {t}: writes vs pages changed");
        if let Err(violations) = check::validate(&self.tree) {
            panic!("update at {t}: {violations:?}");
        }

        let root_after = self
            .tree
            .roots()
            .last()
            .copied()
            .filter(|r| r.interval.is_open());
        let fresh = &after[before.len()..];
        if root_before.is_some() && !fresh.is_empty() {
            self.seen.version_splits += 1;
        }
        let mut levels: Vec<u32> = fresh
            .iter()
            .map(|p| PprNode::decode(p).unwrap().level)
            .collect();
        levels.sort_unstable();
        if levels.windows(2).any(|w| w[0] == w[1]) {
            self.seen.key_splits += 1;
        }
        if let (Some(b), Some(a)) = (root_before, root_after) {
            if a.level > b.level {
                self.seen.root_splits += 1;
            }
        }
        if root_before.is_some_and(|r| r.level > 0) && root_after.is_none() {
            self.seen.root_closures += 1;
        }
        // A merge kills the underflowing child's entry and a sibling's
        // in the same directory node at once.
        for (old, new) in before.iter().zip(&after) {
            let (old, new) = (PprNode::decode(old).unwrap(), PprNode::decode(new).unwrap());
            let killed = old
                .entries
                .iter()
                .zip(&new.entries)
                .filter(|(o, n)| o.is_alive() && n.deletion == t)
                .count();
            if new.level > 0 && killed >= 2 {
                self.seen.merges += 1;
            }
        }
    }
}

fn clustered(rng: &mut StdRng, cluster: (f64, f64)) -> Rect2 {
    let x = cluster.0 + rng.random::<f64>() * 0.2;
    let y = cluster.1 + rng.random::<f64>() * 0.2;
    let w = 0.005 + rng.random::<f64>() * 0.02;
    Rect2::from_bounds(x, y, x + w, y + w)
}

/// Rounds of growth with churn, each ending with every record deleted.
fn run_stream(seed: u64) -> Seen {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut checked = Checked {
        tree: PprTree::new(params()),
        seen: Seen::default(),
    };
    let mut alive: Vec<(u64, Rect2)> = Vec::new();
    let mut next_id = 0u64;
    let mut t: Time = 0;
    for _round in 0..3 {
        let clusters: Vec<(f64, f64)> = (0..3)
            .map(|_| (rng.random::<f64>() * 0.8, rng.random::<f64>() * 0.8))
            .collect();
        let target = rng.random_range(60..120);
        while alive.len() < target {
            t += 1;
            for _ in 0..rng.random_range(1..6) {
                let cluster = clusters[rng.random_range(0..clusters.len())];
                let rect = clustered(&mut rng, cluster);
                let id = next_id;
                next_id += 1;
                checked.update(t, |tree| tree.insert(id, rect, t).unwrap());
                alive.push((id, rect));
            }
            if rng.random_bool(0.4) && alive.len() > 4 {
                let (id, rect) = alive.swap_remove(rng.random_range(0..alive.len()));
                checked.update(t, |tree| tree.delete(id, rect, t).unwrap());
            }
        }
        while !alive.is_empty() {
            t += 1;
            for _ in 0..rng.random_range(1..4).min(alive.len()) {
                let (id, rect) = alive.swap_remove(rng.random_range(0..alive.len()));
                checked.update(t, |tree| tree.delete(id, rect, t).unwrap());
            }
        }
    }
    checked.seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn an_update_writes_exactly_the_pages_it_changes(seed in any::<u64>()) {
        let seen = run_stream(seed);
        prop_assert!(seen.version_splits > 0, "{seen:?}");
        prop_assert!(seen.key_splits > 0, "{seen:?}");
        prop_assert!(seen.merges > 0, "{seen:?}");
        prop_assert!(seen.root_splits > 0, "{seen:?}");
        prop_assert!(seen.root_closures > 0, "{seen:?}");
    }
}
