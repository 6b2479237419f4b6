//! The R\*-Tree proper: insertion with forced reinsertion, and box
//! queries with I/O accounting.

use crate::node::{Entry, Node, NodeView, RStarParams};
use crate::split::rstar_split;
use sti_geom::Rect3;
use sti_obs::QueryStats;
use sti_storage::{
    CorruptReason, FaultStats, IoStats, MemBackend, Page, PageBackend, PageId, PageStore,
    ReadProbe, ScratchPool, StorageError,
};

/// A disk-based 3D R\*-Tree.
///
/// All node traffic goes through an internal [`PageStore`], so
/// [`RStarTree::io_stats`] reports faithful page-access counts. Queries
/// read through the store's LRU buffer; call
/// [`RStarTree::reset_for_query`] before each measured query to reproduce
/// the paper's buffer-reset methodology.
///
/// Supports what the paper measures: dynamic insertion (R\* forced
/// reinsertion + topological split) and window queries, plus STR bulk
/// loading (see [`crate::bulk`]). Records are historical, so nothing is
/// ever deleted and the store only ever appends pages.
///
/// Every operation that touches the page store is fallible: an insert
/// runs inside a page-level undo transaction and rolls back completely
/// on error (see DESIGN.md §6), so a failed `insert` leaves the tree
/// exactly as it was.
pub struct RStarTree {
    pub(crate) store: PageStore,
    pub(crate) params: RStarParams,
    pub(crate) root: PageId,
    pub(crate) root_level: u32,
    pub(crate) len: u64,
    /// Pool of reusable descent stacks; cleared at every query entry,
    /// they carry capacity (never data) between calls so steady-state
    /// sequential queries do not allocate, while concurrent `&self`
    /// queries each take their own stack.
    pub(crate) scratch: ScratchPool<Vec<(PageId, u32)>>,
}

/// Copy a [`ReadProbe`]'s per-call I/O attribution into the I/O fields
/// of a [`QueryStats`] (queries are read-only, so `disk_writes` stays 0).
pub(crate) fn apply_probe(stats: &mut QueryStats, probe: &ReadProbe) {
    stats.disk_reads = probe.disk_reads;
    stats.buffer_hits = probe.buffer_hits;
    stats.io_retries = probe.io_retries;
    stats.io_faults_injected = probe.io_faults_injected;
    stats.checksum_failures = probe.checksum_failures;
}

impl RStarTree {
    /// Create an empty tree.
    pub fn new(params: RStarParams) -> Self {
        match Self::with_backend(params, Box::new(MemBackend::new())) {
            Ok(t) => t,
            #[expect(
                clippy::unreachable,
                reason = "a fresh MemBackend cannot fail the two bootstrap page operations"
            )]
            Err(e) => unreachable!("in-memory bootstrap failed: {e}"),
        }
    }

    /// Create an empty tree over a caller-supplied page backend (e.g. a
    /// [`sti_storage::FaultyBackend`] for fault-injection suites).
    ///
    /// # Errors
    /// A [`StorageError`] if allocating or writing the initial root page
    /// fails.
    pub fn with_backend(
        params: RStarParams,
        backend: Box<dyn PageBackend>,
    ) -> Result<Self, StorageError> {
        params.validate();
        let mut store = Self::guarded(PageStore::with_backend(backend, params.buffer_pages));
        let root = store.allocate()?;
        let mut page = Page::zeroed();
        Node::new(0).encode(&mut page);
        store.write(root, &page.bytes()[..])?;
        Ok(Self {
            store,
            params,
            root,
            root_level: 0,
            len: 0,
            scratch: ScratchPool::new(),
        })
    }

    /// Every way a tree takes ownership of a store goes through here:
    /// from then on the pool holds only frames that pass
    /// [`Node::well_formed`], which is what lets the query paths scan a
    /// pinned frame unchecked.
    pub(crate) fn guarded(mut store: PageStore) -> PageStore {
        store.set_validator(Node::well_formed);
        store
    }

    /// Number of data records.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no records have been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated pages (disk footprint).
    pub fn num_pages(&self) -> usize {
        self.store.num_pages()
    }

    /// Accumulated I/O counters of the underlying store.
    pub fn io_stats(&self) -> IoStats {
        self.store.stats()
    }

    /// Accumulated fault/retry counters from the backing store.
    pub fn fault_stats(&self) -> FaultStats {
        self.store.fault_stats()
    }

    /// Replace the buffer pool capacity (clears residency). The paper
    /// fixes this at 10 pages; the `ablation_buffer` bench sweeps it.
    pub fn set_buffer_capacity(&mut self, pages: usize) {
        self.store.set_buffer_capacity(pages);
    }

    /// Zero the I/O counters without touching residency; shared so a
    /// fresh accounting window can start while readers hold `&self`.
    pub fn reset_counters(&self) {
        self.store.reset_stats();
    }

    /// Empty the buffer pool (cold-buffer methodology). Exclusive so
    /// residency cannot be yanked out from under concurrent readers.
    pub fn clear_buffer(&mut self) {
        self.store.reset_buffer();
    }

    /// Reset I/O counters and empty the buffer pool — call before each
    /// measured query, as the paper does.
    pub fn reset_for_query(&mut self) {
        self.reset_counters();
        self.clear_buffer();
    }

    /// Insert a data record.
    ///
    /// # Errors
    /// A [`StorageError`] if the page store fails; the update is rolled
    /// back and the tree (pages, root pointer, count) is unchanged. A
    /// box with a bound that is not finite fails this way too
    /// ([`CorruptReason::Decode`]): the store refuses to write a node
    /// the decoder would refuse to read.
    ///
    /// # Panics
    /// If the rectangle is the empty sentinel (a caller bug, rejected
    /// before any page is touched).
    pub fn insert(&mut self, id: u64, rect: Rect3) -> Result<(), StorageError> {
        assert!(!rect.is_empty(), "cannot index an empty rectangle");
        let state_before = (self.root, self.root_level, self.len);
        self.store.begin_txn();
        match self.insert_entry(Entry { rect, ptr: id }, 0) {
            Ok(()) => {
                self.len += 1;
                self.store.commit_txn();
                Ok(())
            }
            Err(e) => {
                self.store.rollback_txn();
                (self.root, self.root_level, self.len) = state_before;
                Err(e)
            }
        }
    }

    /// Collect the ids of all records whose box intersects `query`.
    ///
    /// Append contract: matches are *appended* to `out`; the vector is
    /// never cleared here, so a caller can accumulate several queries
    /// into one buffer (all three tree backends share this contract).
    ///
    /// Returns the [`QueryStats`] delta for this call: I/O and fault
    /// counters are attributed per read via a [`ReadProbe`], so summing
    /// the returned deltas over a batch reproduces the global
    /// [`IoStats`] delta exactly — even when queries run concurrently.
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries. The tree is
    /// unchanged (queries are read-only), but `out` may already hold the
    /// matches found before the failing read.
    pub fn query(&self, query: &Rect3, out: &mut Vec<u64>) -> Result<QueryStats, StorageError> {
        let mut stats = QueryStats::new();
        let mut probe = ReadProbe::new();
        let mut stack = self.scratch.take();
        stack.clear();
        stack.push((self.root, self.root_level));
        let mut failed = None;
        while let Some((page, level)) = stack.pop() {
            stats.nodes_visited += 1;
            let visited = self.visit(page, level, &mut probe, |e| {
                stats.entries_scanned += 1;
                if !e.rect.intersects(query) {
                    return;
                }
                if level == 0 {
                    out.push(e.ptr);
                    stats.results += 1;
                } else {
                    stack.push((e.child_page(), level - 1));
                }
            });
            if let Err(e) = visited {
                failed = Some(e);
                break;
            }
        }
        self.scratch.put(stack);
        if let Some(e) = failed {
            return Err(e);
        }
        apply_probe(&mut stats, &probe);
        Ok(stats)
    }

    /// Owned node read (mutation paths; I/O goes to the global counters
    /// only).
    pub(crate) fn read_node(&self, page: PageId) -> Result<Node, StorageError> {
        let frame = self.store.read(page, &mut ReadProbe::new())?;
        Node::decode(&frame).map_err(|_| StorageError::Corrupt {
            page,
            reason: CorruptReason::Decode,
        })
    }

    /// The query paths' node read: fetch `page` (I/O attributed to
    /// `probe`) and hand `each` every entry of its node, in page order,
    /// straight out of the pool's frame — a visit copies, allocates and
    /// validates nothing, because no frame enters the pool without
    /// passing [`Node::well_formed`].
    ///
    /// Two things are still checked per visit. The header must bound
    /// the entries within the page, and the node must sit at `level`,
    /// one below the entry that led here: a child pointer that is a
    /// perfectly well-formed page id can still point the wrong way, and
    /// this is what keeps a traversal from walking in a circle.
    pub(crate) fn visit(
        &self,
        page: PageId,
        level: u32,
        probe: &mut ReadProbe,
        each: impl FnMut(Entry),
    ) -> Result<(), StorageError> {
        let frame = self.store.read(page, probe)?;
        let node = NodeView::new(&frame)
            .ok()
            .filter(|node| node.level() == level)
            .ok_or(StorageError::Corrupt {
                page,
                reason: CorruptReason::Decode,
            })?;
        node.scan().for_each(each);
        Ok(())
    }

    pub(crate) fn write_node(&mut self, page: PageId, node: &Node) -> Result<(), StorageError> {
        let mut buf = Page::zeroed();
        node.encode(&mut buf);
        self.store.write(page, &buf.bytes()[..])
    }

    /// Insert `entry` into a node of `target_level`, processing any forced
    /// reinsertions the insertion triggers.
    fn insert_entry(&mut self, entry: Entry, target_level: u32) -> Result<(), StorageError> {
        // One flag per level: forced reinsertion fires at most once per
        // level per data insertion (R* OverflowTreatment).
        let mut reinsert_done = vec![false; self.root_level as usize + 2];
        let mut pending: Vec<(Entry, u32)> = vec![(entry, target_level)];
        while let Some((e, lvl)) = pending.pop() {
            let root = self.root;
            let (mbr, split) = self.insert_rec(root, e, lvl, &mut reinsert_done, &mut pending)?;
            if let Some(sibling) = split {
                // Root split: grow the tree by one level.
                let new_root_level = self.root_level + 1;
                let mut new_root = Node::new(new_root_level);
                new_root.entries.push(Entry::child(mbr, self.root));
                new_root.entries.push(sibling);
                let pid = self.store.allocate()?;
                self.write_node(pid, &new_root)?;
                self.root = pid;
                self.root_level = new_root_level;
                reinsert_done.resize(new_root_level as usize + 2, false);
            }
        }
        Ok(())
    }

    /// Recursive insertion. Returns the node's MBR after the insertion
    /// and, when the node split, the entry for the new sibling.
    fn insert_rec(
        &mut self,
        page: PageId,
        entry: Entry,
        target_level: u32,
        reinsert_done: &mut Vec<bool>,
        pending: &mut Vec<(Entry, u32)>,
    ) -> Result<(Rect3, Option<Entry>), StorageError> {
        let mut node = self.read_node(page)?;
        debug_assert!(node.level >= target_level, "descended past target level");

        if node.level == target_level {
            node.entries.push(entry);
        } else {
            let idx = choose_subtree(&node, &entry.rect);
            let child = node.entries[idx].child_page();
            let (child_mbr, split) =
                self.insert_rec(child, entry, target_level, reinsert_done, pending)?;
            node.entries[idx].rect = child_mbr;
            if let Some(sibling) = split {
                node.entries.push(sibling);
            }
        }

        if node.entries.len() > self.params.max_entries {
            let lvl = node.level as usize;
            if page != self.root && !reinsert_done[lvl] {
                // Forced reinsertion: remove the entries farthest from the
                // node center and re-insert them from the top ("close
                // reinsert": nearest first).
                reinsert_done[lvl] = true;
                let removed = select_reinsert_victims(&mut node, self.params.reinsert_count());
                // `removed` is farthest-first; pushing in that order makes
                // the nearest pop first from the stack.
                for e in removed {
                    pending.push((e, node.level));
                }
                self.write_node(page, &node)?;
                return Ok((node.mbr(), None));
            }
            // Split.
            let level = node.level;
            let entries = std::mem::take(&mut node.entries);
            let (g1, g2) = rstar_split(entries, self.params.min_entries());
            let node1 = Node { level, entries: g1 };
            let node2 = Node { level, entries: g2 };
            let new_page = self.store.allocate()?;
            self.write_node(page, &node1)?;
            self.write_node(new_page, &node2)?;
            return Ok((node1.mbr(), Some(Entry::child(node2.mbr(), new_page))));
        }

        self.write_node(page, &node)?;
        Ok((node.mbr(), None))
    }

    /// Walk the whole tree and assert structural invariants. Test/debug
    /// aid; O(tree size) and counts I/O.
    #[doc(hidden)]
    pub fn validate(&mut self) {
        self.validate_impl(true);
    }

    /// Like [`RStarTree::validate`] but without the minimum-fill check:
    /// bulk-loaded trees legitimately leave the trailing chunk of each
    /// level underfull.
    #[doc(hidden)]
    pub fn validate_packed(&mut self) {
        self.validate_impl(false);
    }

    fn validate_impl(&mut self, check_min: bool) {
        let root_level = self.root_level;
        let max = self.params.max_entries;
        let min = if check_min {
            self.params.min_entries()
        } else {
            1
        };
        let mut stack = vec![(self.root, root_level, None::<Rect3>)];
        let mut data_count = 0u64;
        while let Some((page, expect_level, parent_rect)) = stack.pop() {
            #[expect(
                clippy::expect_used,
                reason = "test-only invariant walker whose contract is to panic on any defect, unreadable pages included"
            )]
            let node = self.read_node(page).expect("validate: unreadable node");
            assert_eq!(node.level, expect_level, "level mismatch at page {page}");
            assert!(node.entries.len() <= max, "overfull node {page}");
            if page != self.root {
                assert!(node.entries.len() >= min, "underfull node {page}");
            }
            if let Some(pr) = parent_rect {
                assert!(
                    pr.contains(&node.mbr()),
                    "parent entry does not cover node {page}"
                );
            }
            if node.is_leaf() {
                data_count += node.entries.len() as u64;
            } else {
                assert!(node.level >= 1);
                for e in &node.entries {
                    stack.push((e.child_page(), node.level - 1, Some(e.rect)));
                }
            }
        }
        assert_eq!(data_count, self.len, "record count mismatch");
    }
}

/// R\* ChooseSubtree: at the level just above the leaves pick the entry
/// whose box needs the least *overlap* enlargement; higher up, the least
/// volume enlargement. Ties break by volume enlargement then volume.
fn choose_subtree(node: &Node, rect: &Rect3) -> usize {
    debug_assert!(!node.is_leaf());
    let entries = &node.entries;
    if node.level == 1 {
        // Children are leaves: minimum overlap enlargement.
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let enlarged = e.rect.union(rect);
            let mut overlap_before = 0.0;
            let mut overlap_after = 0.0;
            for (j, other) in entries.iter().enumerate() {
                if i == j {
                    continue;
                }
                overlap_before += e.rect.overlap_volume(&other.rect);
                overlap_after += enlarged.overlap_volume(&other.rect);
            }
            let key = (
                overlap_after - overlap_before,
                e.rect.enlargement(rect),
                e.rect.volume(),
            );
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    } else {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for (i, e) in entries.iter().enumerate() {
            let key = (e.rect.enlargement(rect), e.rect.volume());
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }
}

/// Remove the `count` entries whose centers lie farthest from the node's
/// MBR center, returning them farthest-first.
fn select_reinsert_victims(node: &mut Node, count: usize) -> Vec<Entry> {
    let center = node.mbr().center();
    let dist2 = |e: &Entry| -> f64 {
        let c = e.rect.center();
        (0..3)
            .map(|d| (c[d] - center[d]) * (c[d] - center[d]))
            .sum()
    };
    // Nearest first; the farthest `count` entries split off the tail.
    node.entries.sort_by(|a, b| dist2(a).total_cmp(&dist2(b)));
    let mut removed = node.entries.split_off(node.entries.len() - count);
    removed.reverse(); // farthest-first
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sti_storage::{FaultKind, FaultPlan, FaultyBackend, ScheduledFault};

    fn small_params() -> RStarParams {
        RStarParams {
            max_entries: 8,
            buffer_pages: 4,
            ..RStarParams::default()
        }
    }

    fn random_box(rng: &mut StdRng) -> Rect3 {
        let lo = [
            rng.random::<f64>(),
            rng.random::<f64>(),
            rng.random::<f64>(),
        ];
        let ext = [
            rng.random::<f64>() * 0.05,
            rng.random::<f64>() * 0.05,
            rng.random::<f64>() * 0.05,
        ];
        Rect3::new(lo, [lo[0] + ext[0], lo[1] + ext[1], lo[2] + ext[2]])
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let t = RStarTree::new(small_params());
        let mut out = Vec::new();
        t.query(&Rect3::new([0.0; 3], [1.0; 3]), &mut out).unwrap();
        assert!(out.is_empty());
        assert!(t.is_empty());
        assert_eq!(t.root_level, 0);
    }

    #[test]
    fn single_insert_and_query() {
        let mut t = RStarTree::new(small_params());
        let r = Rect3::new([0.1; 3], [0.2; 3]);
        t.insert(42, r).unwrap();
        let mut out = Vec::new();
        t.query(&Rect3::new([0.15; 3], [0.16; 3]), &mut out)
            .unwrap();
        assert_eq!(out, vec![42]);
        out.clear();
        t.query(&Rect3::new([0.5; 3], [0.6; 3]), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn thousand_inserts_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = RStarTree::new(small_params());
        let mut data = Vec::new();
        for id in 0..1000u64 {
            let r = random_box(&mut rng);
            t.insert(id, r).unwrap();
            data.push((id, r));
        }
        t.validate();
        assert!(t.root_level >= 2, "tree should have grown");

        for _ in 0..50 {
            let q = random_box(&mut rng);
            let mut got = Vec::new();
            t.query(&q, &mut got).unwrap();
            got.sort_unstable();
            let mut want: Vec<u64> = data
                .iter()
                .filter(|(_, r)| r.intersects(&q))
                .map(|&(id, _)| id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn io_accounting_and_buffer_reset() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = RStarTree::new(small_params());
        for id in 0..500u64 {
            t.insert(id, random_box(&mut rng)).unwrap();
        }
        t.reset_for_query();
        let mut out = Vec::new();
        t.query(&Rect3::new([0.0; 3], [1.0; 3]), &mut out).unwrap();
        let full_scan = t.io_stats().reads;
        assert!(
            full_scan as usize >= t.num_pages() / 2,
            "full query touches most pages"
        );

        t.reset_for_query();
        out.clear();
        t.query(&Rect3::new([0.5; 3], [0.5001; 3]), &mut out)
            .unwrap();
        let point = t.io_stats().reads;
        assert!(
            point < full_scan,
            "selective query must read fewer pages ({point} vs {full_scan})"
        );
        assert!(
            point >= u64::from(t.root_level),
            "must at least walk one root-to-leaf path"
        );
    }

    #[test]
    fn duplicate_geometry_is_allowed() {
        let mut t = RStarTree::new(small_params());
        let r = Rect3::new([0.3; 3], [0.4; 3]);
        for id in 0..20 {
            t.insert(id, r).unwrap();
        }
        t.validate();
        let mut out = Vec::new();
        t.query(&r, &mut out).unwrap();
        assert_eq!(out.len(), 20);
    }

    #[test]
    #[should_panic(expected = "empty rectangle")]
    fn rejects_empty_rect() {
        let mut t = RStarTree::new(small_params());
        let _ = t.insert(1, Rect3::EMPTY);
    }

    #[test]
    fn clustered_data_stays_valid() {
        // Heavy duplication + clustering stresses reinsertion and split.
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = RStarTree::new(small_params());
        for id in 0..800u64 {
            let cluster = (id % 5) as f64 * 0.2;
            let jitter = rng.random::<f64>() * 0.01;
            let lo = [cluster + jitter, cluster, 0.0];
            t.insert(id, Rect3::new(lo, [lo[0] + 0.01, lo[1] + 0.01, 0.9]))
                .unwrap();
        }
        t.validate();
        assert_eq!(t.len(), 800);
    }

    /// A permanent fault mid-insert rolls everything back — including
    /// root splits and forced reinsertions in flight — and the tree
    /// still validates and answers correctly.
    #[test]
    fn failed_insert_rolls_back_completely() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 60,
            kind: FaultKind::Fail { transient: false },
        }]);
        let backend = FaultyBackend::new(Box::new(sti_storage::MemBackend::new()), plan);
        let mut t = RStarTree::with_backend(small_params(), Box::new(backend)).unwrap();
        let mut rng = StdRng::seed_from_u64(23);

        let mut inserted = Vec::new();
        // bounded: the plan fails operation 60, and the assert stops it
        // at 10 000 inserts if the fault never fires.
        let err = loop {
            let r = random_box(&mut rng);
            let id = inserted.len() as u64;
            let pages_before = t.num_pages();
            match t.insert(id, r) {
                Ok(()) => {
                    inserted.push((id, r));
                    assert!(inserted.len() < 10_000, "fault never fired");
                }
                Err(e) => {
                    assert_eq!(t.num_pages(), pages_before, "allocations rolled back");
                    break e;
                }
            }
        };
        assert!(matches!(err, StorageError::Injected { .. }), "{err:?}");
        assert_eq!(t.len(), inserted.len() as u64);
        t.validate();
        let mut got = Vec::new();
        t.query(&Rect3::new([0.0; 3], [1.0; 3]), &mut got).unwrap();
        assert_eq!(got.len(), inserted.len(), "failed insert left no record");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn queries_always_match_brute_force(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = RStarTree::new(small_params());
            let mut data = Vec::new();
            for id in 0..200u64 {
                let r = random_box(&mut rng);
                t.insert(id, r).unwrap();
                data.push((id, r));
            }
            t.validate();
            for _ in 0..10 {
                let q = random_box(&mut rng);
                let mut got = Vec::new();
                t.query(&q, &mut got).unwrap();
                got.sort_unstable();
                let mut want: Vec<u64> = data
                    .iter()
                    .filter(|(_, r)| r.intersects(&q))
                    .map(|&(id, _)| id)
                    .collect();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }
    }

    /// An internal entry bent back onto its own node: the level check
    /// fails the walk typed instead of letting it circle forever.
    #[test]
    fn child_pointer_cycle_fails_typed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = RStarTree::new(small_params());
        for id in 0..120u64 {
            t.insert(id, random_box(&mut rng)).unwrap();
        }
        let root = t.root;
        let mut node = t.read_node(root).unwrap();
        assert!(node.level > 0, "the fixture has an internal root");
        node.entries[0].ptr = u64::from(root);
        t.write_node(root, &node).unwrap();
        let cycle = StorageError::Corrupt {
            page: root,
            reason: CorruptReason::Decode,
        };
        let everything = Rect3::new([0.0; 3], [1.0; 3]);
        assert_eq!(t.query(&everything, &mut Vec::new()), Err(cycle));
    }

    /// `t` over a copy of its pages with `page` replaced by `bytes`: the
    /// damage sits at rest under a checksum that matches it (adoption
    /// records what it finds), below a pool that never saw it.
    fn adopted_with(t: &RStarTree, page: PageId, bytes: &Page) -> RStarTree {
        let mut pages = MemBackend::new();
        for id in 0..PageId::try_from(t.num_pages()).unwrap() {
            let at_rest = t.store.peek(id).unwrap();
            let content = if id == page { bytes } else { &at_rest };
            let copy = pages.allocate().unwrap();
            pages.write(copy, &content.bytes()[..]).unwrap();
        }
        let store = PageStore::with_backend(Box::new(pages), t.params.buffer_pages);
        RStarTree {
            store: RStarTree::guarded(store),
            params: t.params,
            root: t.root,
            root_level: t.root_level,
            len: t.len,
            scratch: ScratchPool::new(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Damage a node page under a checksum that matches the damage,
        /// so the node check — not xxh64 — is what stands between the
        /// bytes and every query path, and push it at the tree by both
        /// roads into the pool: through a store write, and at rest
        /// below the pool. A malformed page is refused by the write and
        /// fails typed at every fetch, never resident; a well-formed but
        /// wrong one answers or fails typed; nothing panics or walks in
        /// circles.
        #[test]
        fn damaged_node_bytes_fail_typed(
            seed in 0u64..4,
            page in 0u32..64,
            entry in 0usize..8,
            field in 0usize..7,
            kind in 0usize..5,
            noise in any::<u64>(),
        ) {
            let at = 6 + entry * 56 + field * 8;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = RStarTree::new(small_params());
            for id in 0..120u64 {
                t.insert(id, random_box(&mut rng)).unwrap();
            }
            let page = page % u32::try_from(t.num_pages()).unwrap();
            let patch = [
                noise.to_le_bytes(),
                f64::NAN.to_le_bytes(),
                f64::INFINITY.to_le_bytes(),
                u64::MAX.to_le_bytes(),
                (noise % 64).to_le_bytes(), // a plausible page id
            ][kind];
            let mut bytes = t.store.peek(page).unwrap();
            bytes.bytes_mut()[at..at + 8].copy_from_slice(&patch);
            let malformed = !Node::well_formed(&bytes);
            let refused = StorageError::Corrupt { page, reason: CorruptReason::Decode };

            let below = adopted_with(&t, page, &bytes);
            let written = t.store.write(page, &bytes.bytes()[..]);
            prop_assert_eq!(written, if malformed { Err(refused.clone()) } else { Ok(()) });

            let everything = Rect3::new([0.0; 3], [1.0; 3]);
            for tree in [&t, &below] {
                let typed = |outcome: Option<StorageError>| {
                    let decoder_caught_it = matches!(
                        outcome,
                        None | Some(StorageError::Corrupt { reason: CorruptReason::Decode, .. })
                            | Some(StorageError::Unallocated { .. })
                    );
                    prop_assert!(decoder_caught_it, "{outcome:?}");
                };
                typed(tree.query(&everything, &mut Vec::new()).err());
            }
            if malformed {
                // The refused write changed nothing; the copy damaged at
                // rest fails at the page, at every touch, because the
                // page never becomes resident.
                let mut all = Vec::new();
                t.query(&everything, &mut all).unwrap();
                prop_assert_eq!(all.len(), 120);
                let mut probe = ReadProbe::new();
                for _ in 0..2 {
                    prop_assert_eq!(below.store.read(page, &mut probe), Err(refused.clone()));
                    prop_assert!(!below.store.buffer().resident(page));
                }
                prop_assert_eq!((probe.disk_reads, probe.buffer_hits), (0, 0));
            }
        }
    }
}
