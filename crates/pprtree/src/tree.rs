//! The PPR-Tree proper: timestamped updates, version splits, and
//! historical queries.

use crate::node::{NodeView, PprEntry, PprNode, PprParams};
use crate::split::key_split;
use std::collections::{HashMap, HashSet};
use sti_geom::{Rect2, Time, TimeInterval};
use sti_obs::QueryStats;
use sti_storage::{
    CorruptReason, FaultStats, IoStats, Page, PageBackend, PageId, PageStore, ReadProbe,
    ScratchPool, StorageError,
};

/// Failure of a [`PprTree::delete`] call. The tree is left unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeleteError {
    /// No record with this id (and the given rectangle) is alive at the
    /// deletion time — it was never inserted, already deleted, or the
    /// rectangle does not exactly match the inserted one.
    NotFound {
        /// The id the caller asked to delete.
        id: u64,
        /// The requested deletion time.
        t: Time,
    },
    /// The underlying page store failed. The partial update was rolled
    /// back: pages, root log, clock and record counters all hold their
    /// pre-call values.
    Storage(StorageError),
}

impl From<StorageError> for DeleteError {
    fn from(e: StorageError) -> Self {
        DeleteError::Storage(e)
    }
}

impl std::fmt::Display for DeleteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeleteError::NotFound { id, t } => {
                write!(f, "no alive record {id} to delete at {t}")
            }
            DeleteError::Storage(e) => write!(f, "delete aborted by storage error: {e}"),
        }
    }
}

impl std::error::Error for DeleteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeleteError::NotFound { .. } => None,
            DeleteError::Storage(e) => Some(e),
        }
    }
}

/// One span of the root log: during `interval`, the ephemeral R-Tree was
/// rooted at `page` (a node of height `level`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootSpan {
    /// Time span this root covers.
    pub interval: TimeInterval,
    /// Root node page.
    pub page: PageId,
    /// Root node level (tree height during the span).
    pub level: u32,
}

/// Reusable query-time allocations. Queries used to build a fresh
/// `HashSet` / span list / traversal stack per call, which churned the
/// allocator across a measured batch (the paper's methodology runs
/// thousands of queries back to back); the tree keeps a pool of scratch
/// blocks ([`ScratchPool`]) so steady-state sequential queries allocate
/// nothing, while concurrent `&self` queries each take their own block
/// (a burst of N threads materializes at most N). Contents are cleared
/// at every query entry — they carry capacity, never data, between
/// calls. The scratch is returned to the pool even when a query aborts
/// on a storage error.
#[derive(Debug, Default)]
struct QueryScratch {
    /// Dedup set for interval queries.
    seen: HashSet<u64>,
    /// Root spans overlapping the query range, each clipped to it.
    spans: Vec<RootSpan>,
    /// The interval query's current level: (page, a range clipped on
    /// one path to it), one pair per parent entry that reaches the page.
    frontier: Vec<(PageId, TimeInterval)>,
    /// The level below, filled while `frontier` is visited.
    next: Vec<(PageId, TimeInterval)>,
    /// Descent stack for snapshot queries (page, its level).
    snap_stack: Vec<(PageId, u32)>,
}

/// Copy a [`ReadProbe`]'s per-call I/O attribution into the I/O fields
/// of a [`QueryStats`] (queries are read-only, so `disk_writes` stays 0;
/// the traversal-side tallies are the query loop's own).
fn apply_probe(stats: &mut QueryStats, probe: &ReadProbe) {
    stats.disk_reads = probe.disk_reads;
    stats.buffer_hits = probe.buffer_hits;
    stats.io_retries = probe.io_retries;
    stats.io_faults_injected = probe.io_faults_injected;
    stats.checksum_failures = probe.checksum_failures;
}

/// Ops to apply to one node during bottom-up structure maintenance.
#[derive(Debug, Default)]
struct Ops {
    /// Entry indices whose `deletion` is stamped with the current time.
    kills: Vec<usize>,
    /// Entry index whose rect grows by the given rectangle.
    expand: Option<(usize, Rect2)>,
    /// New entries to append.
    adds: Vec<PprEntry>,
}

/// What a node hands its parent after ops were applied.
enum UpOps {
    /// Nothing further to do.
    Done,
    /// The parent's directory entry for this node must grow by this rect.
    Expand(Rect2),
    /// This node was version-split: the parent must kill its entry for
    /// this node (and possibly a sibling's) and add the replacements.
    Replace {
        /// Parent entry index of a sibling that was merged away, if any.
        kill_sibling: Option<usize>,
        /// Directory entries for the replacement node(s) (0, 1 or 2).
        adds: Vec<PprEntry>,
    },
}

/// A partially persistent R-Tree over simulated disk pages.
///
/// Updates must arrive in non-decreasing time order (the structure is
/// *partially* persistent: only the present is writable). Queries may ask
/// about any past instant or interval.
///
/// Every operation that touches the page store is fallible: updates run
/// inside a page-level undo transaction and roll back completely on
/// error (see DESIGN.md §6), so a failed `insert`/`delete` leaves the
/// tree exactly as it was.
///
/// Updates go in batches ([`PprTree::apply`]; `insert` and `delete`
/// are batches of one). A batch is one transaction: it keeps the alive
/// nodes it touches decoded and writes each page once, when a version
/// split closes its node or when the batch ends. Feeding a whole update
/// stream as one batch is how the paper's build runs without reading a
/// node back.
///
/// ```
/// use sti_geom::{Rect2, TimeInterval};
/// use sti_pprtree::{PprParams, PprTree};
///
/// let mut tree = PprTree::new(PprParams::default());
/// let rect = Rect2::from_bounds(0.4, 0.4, 0.5, 0.5);
/// tree.insert(7, rect, 10).unwrap();
/// tree.delete(7, rect, 20).unwrap();
///
/// let mut hits = Vec::new();
/// tree.query_snapshot(&rect, 15, &mut hits).unwrap(); // alive at 15
/// assert_eq!(hits, vec![7]);
/// hits.clear();
/// tree.query_snapshot(&rect, 20, &mut hits).unwrap(); // half-open lifetime
/// assert!(hits.is_empty());
/// ```
pub struct PprTree {
    store: PageStore,
    params: PprParams,
    roots: Vec<RootSpan>,
    now: Time,
    alive_records: u64,
    total_posted: u64,
    scratch: ScratchPool<QueryScratch>,
    /// Updates seen, for the debug-build check sampling schedule.
    #[cfg(debug_assertions)]
    debug_mutations: u64,
}

impl Clone for PprTree {
    /// A copy-on-write fork (see [`PageStore::clone`]): one page pointer
    /// and one checksum per page plus the pool's frame handles are
    /// copied, and the bytes stay shared until one side writes a page.
    /// Updates to either tree never show in the other; the query
    /// scratch pool starts empty.
    fn clone(&self) -> Self {
        Self {
            store: self.store.clone(),
            params: self.params,
            roots: self.roots.clone(),
            now: self.now,
            alive_records: self.alive_records,
            total_posted: self.total_posted,
            scratch: ScratchPool::new(),
            #[cfg(debug_assertions)]
            debug_mutations: self.debug_mutations,
        }
    }
}

impl PprTree {
    /// Create an empty tree.
    pub fn new(params: PprParams) -> Self {
        params.validate();
        Self::from_store(PageStore::new(params.buffer_pages), params)
    }

    /// Create an empty tree over a caller-supplied page backend — in
    /// particular a [`sti_storage::FaultyBackend`], which is how the
    /// fault-injection suites drive every code path in this file.
    pub fn with_backend(params: PprParams, backend: Box<dyn PageBackend>) -> Self {
        params.validate();
        Self::from_store(
            PageStore::with_backend(backend, params.buffer_pages),
            params,
        )
    }

    /// The one place a tree takes ownership of a store: from here on
    /// the pool holds only frames that pass [`PprNode::well_formed`],
    /// which is what lets the query paths scan a pinned frame unchecked.
    fn from_store(mut store: PageStore, params: PprParams) -> Self {
        store.set_validator(PprNode::well_formed);
        Self {
            store,
            params,
            roots: Vec::new(),
            now: 0,
            alive_records: 0,
            total_posted: 0,
            scratch: ScratchPool::new(),
            #[cfg(debug_assertions)]
            debug_mutations: 0,
        }
    }

    /// Construct a tree directly over already-written pages — the exit
    /// path of the bulk loader (`crate::bulk`) and of
    /// [`PprTree::open_file`]. The caller supplies the metadata that
    /// incremental updates would have accumulated; the result is
    /// indistinguishable from a tree built one update at a time and is
    /// validated by the same `check::validate`.
    pub(crate) fn assemble(
        store: PageStore,
        params: PprParams,
        roots: Vec<RootSpan>,
        now: Time,
        alive_records: u64,
        total_posted: u64,
    ) -> Self {
        params.validate();
        let mut tree = Self::from_store(store, params);
        tree.roots = roots;
        tree.now = now;
        tree.alive_records = alive_records;
        tree.total_posted = total_posted;
        tree
    }

    /// The current clock (largest update time seen).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Records currently alive.
    pub fn alive_records(&self) -> u64 {
        self.alive_records
    }

    /// Logical records ever inserted.
    pub fn total_records(&self) -> u64 {
        self.total_posted
    }

    /// The root log (one span per consecutive part of the evolution).
    pub fn roots(&self) -> &[RootSpan] {
        &self.roots
    }

    /// Number of allocated pages (disk footprint, fig. 16).
    pub fn num_pages(&self) -> usize {
        self.store.num_pages()
    }

    /// Pages copied on write because a fork of this tree (see
    /// [`PprTree::clone`]) still shared them, counted since the tree was
    /// created, forks included.
    pub fn pages_copied(&self) -> u64 {
        self.store.pages_copied()
    }

    /// Accumulated I/O counters.
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

    /// Zero the I/O and fault counters without touching buffer
    /// residency. Shared: the counters are interior-mutable, so a bench
    /// can start a fresh accounting window between passes while other
    /// threads still hold `&self` for querying.
    pub fn reset_counters(&self) {
        self.store.reset_stats();
    }

    /// Empty the buffer pool (the paper's cold-buffer methodology).
    /// Exclusive on purpose, even though the pool could technically be
    /// cleared through `&self`: yanking residency out from under
    /// concurrent readers would silently distort their hit/miss
    /// attribution, so the borrow checker is made to prove there are
    /// none.
    pub fn clear_buffer(&mut self) {
        self.store.reset_buffer();
    }

    /// Reset I/O counters and the buffer pool (before each measured
    /// query, per the paper's methodology) — the union of
    /// [`PprTree::reset_counters`] and [`PprTree::clear_buffer`].
    /// Counters and residency both live inside the store's buffer
    /// pool, so this cannot drift from the accounting that
    /// [`PprTree::io_stats`] reads.
    pub fn reset_for_query(&mut self) {
        self.reset_counters();
        self.clear_buffer();
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Insert a record alive from `t` (until a matching
    /// [`PprTree::delete`]): a batch of one [`Update::Insert`].
    ///
    /// # Errors
    /// A [`StorageError`] if the page store fails; the update is rolled
    /// back and the tree (pages, root log, clock, counters) is unchanged.
    /// A rectangle with a bound that is not finite fails this way too
    /// ([`CorruptReason::Decode`]): the store refuses to write a node
    /// the decoder would refuse to read.
    ///
    /// # Panics
    /// If `t` precedes an earlier update (partial persistence) or the
    /// rectangle is the empty sentinel — both are caller bugs, not I/O
    /// conditions, and are rejected before any page is touched.
    pub fn insert(&mut self, id: u64, rect: Rect2, t: Time) -> Result<(), StorageError> {
        match self.apply(&[Update::Insert { id, rect, t }]) {
            Ok(()) => Ok(()),
            Err(DeleteError::Storage(e)) => Err(e),
            #[expect(
                clippy::unreachable,
                reason = "only a delete can miss its record, and this batch holds one insert"
            )]
            Err(e @ DeleteError::NotFound { .. }) => unreachable!("an insert reported {e}"),
        }
    }

    /// Logically delete the alive record `(id, rect)` at time `t`: a
    /// batch of one [`Update::Delete`]. `rect` must be exactly the
    /// rectangle the record was inserted with (it locates the leaf *and*
    /// disambiguates when several alive records share an id).
    ///
    /// # Errors
    /// [`DeleteError::NotFound`] if no alive record `(id, rect)` exists,
    /// or [`DeleteError::Storage`] if the page store failed mid-update;
    /// either way the tree is unchanged (a failed update neither advances
    /// time nor leaves partial page writes — storage failures roll back).
    ///
    /// # Panics
    /// If `t` precedes an earlier update (partial persistence).
    pub fn delete(&mut self, id: u64, rect: Rect2, t: Time) -> Result<(), DeleteError> {
        self.apply(&[Update::Delete { id, rect, t }])
    }

    /// Apply a time-ordered batch of updates as one store transaction:
    /// all of them, or — on any error — none.
    ///
    /// The batch keeps every live node it touches decoded, by page, and
    /// writes each page once: a node its version split closes when the
    /// split closes it (its bytes are final from then on), every other
    /// changed node when the batch ends, in the order the nodes were
    /// first changed. A node closed by a version split is never changed
    /// again, so the decoded set holds only the alive tree's nodes.
    /// Pages, root log and counters come out exactly as the same updates
    /// applied one at a time would leave them.
    ///
    /// # Errors
    /// [`DeleteError::NotFound`] for a delete whose record is not alive
    /// when the batch reaches it, or [`DeleteError::Storage`] if the page
    /// store failed. Either way the whole batch is rolled back: pages,
    /// root log, clock and record counters hold their pre-call values.
    ///
    /// # Panics
    /// If the updates are not in non-decreasing time order, one precedes
    /// an earlier update, or an insert's rectangle is the empty sentinel;
    /// checked before any page is touched.
    pub fn apply(&mut self, updates: &[Update]) -> Result<(), DeleteError> {
        let mut clock = self.now;
        for update in updates {
            if let Update::Insert { rect, .. } = update {
                assert!(!rect.is_empty(), "cannot index an empty rectangle");
            }
            let t = update.time();
            assert!(t >= clock, "updates must be time-ordered: {t} < {clock}");
            clock = t;
        }
        let roots_before = self.roots.clone();
        let counters_before = (self.now, self.alive_records, self.total_posted);
        self.store.begin_txn();
        match self.apply_in_txn(updates) {
            Ok(()) => {
                self.store.commit_txn();
                self.debug_check(updates.len() as u64);
                Ok(())
            }
            Err(e) => {
                self.store.rollback_txn();
                self.roots = roots_before;
                (self.now, self.alive_records, self.total_posted) = counters_before;
                Err(e)
            }
        }
    }

    /// The body of [`PprTree::apply`], inside its transaction.
    fn apply_in_txn(&mut self, updates: &[Update]) -> Result<(), DeleteError> {
        let mut set = NodeSet::default();
        for update in updates {
            match *update {
                Update::Insert { id, rect, t } => self.insert_inner(&mut set, id, rect, t)?,
                Update::Delete { id, rect, t } => self.delete_inner(&mut set, id, rect, t)?,
            }
        }
        Ok(self.flush(set)?)
    }

    fn insert_inner(
        &mut self,
        set: &mut NodeSet,
        id: u64,
        rect: Rect2,
        t: Time,
    ) -> Result<(), StorageError> {
        self.now = t;
        let path = match self.current_root() {
            Some(root) => self.descend_for_insert(set, root.page, &rect)?,
            None => {
                // A fresh page already holds an empty leaf: allocation
                // zeroes it, and that is how an empty leaf encodes. The
                // insert below is what changes it.
                let page = self.store.allocate()?;
                self.roots.push(RootSpan {
                    interval: TimeInterval::open(t),
                    page,
                    level: 0,
                });
                Path::leaf(page, Live::clean(PprNode::new(0)))
            }
        };
        let ops = Ops {
            kills: Vec::new(),
            expand: None,
            adds: vec![PprEntry::alive(rect, id, t)],
        };
        self.propagate(set, path, ops, t)?;
        self.alive_records += 1;
        self.total_posted += 1;
        Ok(())
    }

    fn delete_inner(
        &mut self,
        set: &mut NodeSet,
        id: u64,
        rect: Rect2,
        t: Time,
    ) -> Result<(), DeleteError> {
        let Some((path, idx)) = self.locate_alive(set, id, &rect)? else {
            return Err(DeleteError::NotFound { id, t });
        };
        self.now = t;
        let ops = Ops {
            kills: vec![idx],
            expand: None,
            adds: Vec::new(),
        };
        self.propagate(set, path, ops, t)?;
        self.alive_records -= 1;
        Ok(())
    }

    /// Write every node the batch changed and still holds, once each, in
    /// the order they were first changed.
    fn flush(&mut self, set: NodeSet) -> Result<(), StorageError> {
        let NodeSet { mut nodes, dirtied } = set;
        for page in dirtied {
            // A page a version split closed was written then, and left.
            if let Some(node) = nodes.remove(&page) {
                self.write_node(page, &node.node)?;
            }
        }
        Ok(())
    }

    /// Debug builds sanity-check the structure after a batch: every
    /// batch while the index is small, then one whenever the update
    /// count passes a multiple of 64 (the current-view walk is linear in
    /// the live tree, so checking after each of `n` updates would make
    /// test workloads quadratic).
    #[cfg(debug_assertions)]
    fn debug_check(&mut self, updates: u64) {
        let before = self.debug_mutations;
        self.debug_mutations += updates;
        if self.store.num_pages() <= 64 || before / 64 != self.debug_mutations / 64 {
            #[expect(
                clippy::panic,
                reason = "debug-only tripwire; release builds skip the check and the typed API is check::validate"
            )]
            if let Err(violations) = crate::check::validate_current(self) {
                let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
                panic!(
                    "PPR-Tree invariants broken after update at t={}:\n{}",
                    self.now,
                    lines.join("\n")
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check(&mut self, _updates: u64) {}

    /// Root span covering instant `t`, if any.
    pub(crate) fn root_span_at(&self, t: Time) -> Option<RootSpan> {
        self.roots
            .iter()
            .rev()
            .find(|s| s.interval.contains(t))
            .copied()
    }

    /// The page device under the tree (see [`PageStore::backend`]), for
    /// tests and tooling.
    pub fn backend(&mut self) -> &dyn PageBackend {
        self.store.backend()
    }

    /// The structural parameters the tree was built with.
    pub fn params(&self) -> &PprParams {
        &self.params
    }

    /// Read-only page store access for [`crate::check`] (which fetches
    /// pages with `peek`, outside the I/O accounting).
    pub(crate) fn store_ref(&self) -> &PageStore {
        &self.store
    }

    /// Deliberately desynchronize the record counter (sanitizer tests).
    #[cfg(test)]
    pub(crate) fn corrupt_alive_records_for_test(&mut self, n: u64) {
        self.alive_records = n;
    }

    fn current_root(&self) -> Option<RootSpan> {
        self.roots.last().copied().filter(|s| s.interval.is_open())
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Snapshot query: ids of records alive at `t` whose rectangle
    /// intersects `area`. Equivalent to querying the ephemeral R-Tree of
    /// time `t`.
    ///
    /// Append contract: matches are *appended* to `out`; the vector is
    /// never cleared here, so a caller can accumulate several queries
    /// into one buffer (all three tree backends share this contract).
    ///
    /// Returns the [`QueryStats`] delta for this call: the store writes
    /// each read's cost into this call's [`ReadProbe`] as it happens
    /// (mirroring the global counters increment for increment), so
    /// summing the returned deltas over a batch reproduces the global
    /// [`IoStats`] delta exactly — even when other threads query the
    /// same tree concurrently.
    ///
    /// Shared: `&self`, so any number of threads may query one tree at
    /// once (mutation keeps `&mut self`, which the borrow checker
    /// prevents from overlapping with in-flight queries).
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries. The tree is
    /// unchanged (queries are read-only), but `out` may already hold the
    /// matches found before the failing read.
    pub fn query_snapshot(
        &self,
        area: &Rect2,
        t: Time,
        out: &mut Vec<u64>,
    ) -> Result<QueryStats, StorageError> {
        let mut stats = QueryStats::new();
        let mut probe = ReadProbe::new();
        let mut failed = None;
        if let Some(span) = self.root_span_at(t) {
            let mut scratch = self.scratch.take();
            let stack = &mut scratch.snap_stack;
            stack.clear();
            stack.push((span.page, span.level));
            let instant = TimeInterval::instant(t);
            while let Some((page, level)) = stack.pop() {
                stats.nodes_visited += 1;
                let visited = self.visit(page, level, instant, &mut probe, |e| {
                    if e.rect.intersects(area) {
                        if level == 0 {
                            out.push(e.ptr);
                            stats.results += 1;
                        } else {
                            stack.push((e.child_page(), level - 1));
                        }
                    }
                });
                match visited {
                    Ok(entries) => stats.entries_scanned += entries,
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            // The scratch goes back even on the error path: capacity is
            // reusable, and an abandoned traversal must not poison the
            // next query.
            self.scratch.put(scratch);
        }
        if let Some(e) = failed {
            return Err(e);
        }
        apply_probe(&mut stats, &probe);
        Ok(stats)
    }

    /// Interval query: ids of records alive at any instant of `range`
    /// whose rectangle intersects `area`, de-duplicated (a record copied
    /// across version splits, or an object split into consecutive pieces
    /// under the same id, is reported once).
    ///
    /// The query range is *clipped* to each directory entry's lifetime on
    /// the way down: a closed node is authoritative only for its own time
    /// span — entries inside it keep their open `deletion` even when the
    /// record was deleted after the node was copied, so matching them
    /// against the unclipped range would resurrect dead records.
    ///
    /// The descent goes level by level, and each page is visited at most
    /// once. The root spans that overlap `range` seed one frontier of
    /// `(page, clipped range)` pairs per level. From the top level down,
    /// the frontier is sorted by page id. The pairs of one page (one per
    /// parent entry that reaches it: after a version split, the old and
    /// the new copy of a parent both point at the same live children)
    /// are merged into the *hull* of their ranges. The page is visited
    /// once with that hull, and its matching children form the next
    /// level's frontier.
    ///
    /// The hull is safe: it reaches no page and no record that one of
    /// the page's own paths would not. Every clipped range lies inside
    /// the query range and inside the span over which the page is
    /// reachable from a root. That span is one interval (a page is
    /// alive from its creation until its version split), so the hull
    /// lies inside it too, and no dead copy is resurrected. An instant
    /// of the hull that no single path covered is one at which every
    /// path to the page passed an entry whose rectangle missed `area`.
    /// By MBR containment over lifetimes (which [`crate::check`]
    /// enforces), no entry of the page alive then intersects `area`
    /// either, so the hull adds no child and no match.
    ///
    /// Append contract: matches are *appended* to `out`; the vector is
    /// never cleared here, so a caller can accumulate several queries
    /// into one buffer (all three tree backends share this contract).
    /// Dedup applies to this call only — ids already in `out` from
    /// earlier queries may be appended again.
    ///
    /// Returns the [`QueryStats`] delta for this call (see
    /// [`PprTree::query_snapshot`]).
    ///
    /// Shared: `&self` — see [`PprTree::query_snapshot`].
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries. The tree is
    /// unchanged, and nothing is appended to `out` for this call (dedup
    /// happens before results are released).
    pub fn query_interval(
        &self,
        area: &Rect2,
        range: &TimeInterval,
        out: &mut Vec<u64>,
    ) -> Result<QueryStats, StorageError> {
        let mut stats = QueryStats::new();
        let mut probe = ReadProbe::new();
        let mut scratch = self.scratch.take();
        let QueryScratch {
            seen,
            spans,
            frontier,
            next,
            ..
        } = &mut scratch;
        seen.clear();
        spans.clear();
        frontier.clear();
        next.clear();
        spans.extend(self.roots.iter().filter_map(|s| {
            let interval = s.interval.intersect(range)?;
            Some(RootSpan { interval, ..*s })
        }));
        let top = spans.iter().map(|s| s.level).max().unwrap_or(0);
        let mut failed = None;
        'levels: for level in (0..=top).rev() {
            frontier.extend(
                spans
                    .iter()
                    .filter(|s| s.level == level)
                    .map(|s| (s.page, s.interval)),
            );
            frontier.sort_unstable_by_key(|&(page, _)| page);
            for group in frontier.chunk_by(|a, b| a.0 == b.0) {
                let Some(&(page, first)) = group.first() else {
                    continue;
                };
                let hull = group.iter().fold(first, |hull, (_, r)| hull.cover(r));
                stats.nodes_visited += 1;
                let visited = self.visit(page, level, hull, &mut probe, |e| {
                    if !e.rect.intersects(area) {
                        return;
                    }
                    if level == 0 {
                        seen.insert(e.ptr);
                    } else if let Some(sub) = e.lifetime().intersect(&hull) {
                        next.push((e.child_page(), sub));
                    }
                });
                match visited {
                    Ok(entries) => stats.entries_scanned += entries,
                    Err(e) => {
                        failed = Some(e);
                        break 'levels;
                    }
                }
            }
            std::mem::swap(frontier, next);
            next.clear();
        }
        if failed.is_none() {
            stats.dedup_candidates = seen.len() as u64;
            stats.results = stats.dedup_candidates;
            out.extend(seen.drain());
        }
        self.scratch.put(scratch);
        if let Some(e) = failed {
            return Err(e);
        }
        apply_probe(&mut stats, &probe);
        Ok(stats)
    }

    // ------------------------------------------------------------------
    // Structure maintenance
    // ------------------------------------------------------------------

    /// Owned node read with accounting but no per-call attribution
    /// (mutation paths report their cost via global-counter deltas, which
    /// exclusive `&mut self` access keeps race-free).
    fn read_node(&self, page: PageId) -> Result<PprNode, StorageError> {
        let frame = self.store.read(page, &mut ReadProbe::new())?;
        PprNode::decode(&frame).map_err(|_| StorageError::Corrupt {
            page,
            reason: CorruptReason::Decode,
        })
    }

    /// The query paths' node read: fetch `page` (I/O attributed to
    /// `probe`) and hand `each` the entries of its node alive at some
    /// instant of `span`, in page order, straight out of the pool's
    /// frame — a visit copies, allocates and validates nothing, because
    /// no frame enters the pool without passing
    /// [`PprNode::well_formed`]. Returns how many entries the node
    /// holds, alive in `span` or not: what the visit scanned.
    ///
    /// A snapshot passes the one-instant span of its `t`. An interval
    /// query passes the hull of every range that reaches the page in
    /// this query, so it visits each page once (see
    /// [`PprTree::query_interval`]).
    ///
    /// Two things are still checked per visit. The header must bound
    /// the entries within the page, and the node must sit at `level`,
    /// one below the directory entry that led here: a child pointer
    /// that is a perfectly well-formed page id can still point the
    /// wrong way, and this is what keeps a traversal from walking in a
    /// circle.
    pub(crate) fn visit(
        &self,
        page: PageId,
        level: u32,
        span: TimeInterval,
        probe: &mut ReadProbe,
        each: impl FnMut(PprEntry),
    ) -> Result<u64, StorageError> {
        let frame = self.store.read(page, probe)?;
        let node = NodeView::new(&frame)
            .ok()
            .filter(|node| node.level() == level)
            .ok_or(StorageError::Corrupt {
                page,
                reason: CorruptReason::Decode,
            })?;
        node.scan(span).for_each(each);
        Ok(node.len() as u64)
    }

    fn write_node(&mut self, page: PageId, node: &PprNode) -> Result<(), StorageError> {
        let mut buf = Page::zeroed();
        node.encode(&mut buf);
        self.store.write(page, &buf.bytes()[..])
    }

    /// `page`'s node, out of the batch's set when it holds it (taken
    /// out, not copied), else read and decoded from the store.
    fn take_node(&self, set: &mut NodeSet, page: PageId) -> Result<Live, StorageError> {
        match set.nodes.remove(&page) {
            Some(node) => Ok(node),
            None => Ok(Live::clean(self.read_node(page)?)),
        }
    }

    /// Choose-subtree descent for insertion from the current root at
    /// `page`: among *alive* directory entries pick minimum area
    /// enlargement (ties: minimum area). The path's nodes leave the set
    /// until [`PprTree::propagate`] puts them back.
    fn descend_for_insert(
        &self,
        set: &mut NodeSet,
        mut page: PageId,
        rect: &Rect2,
    ) -> Result<Path, StorageError> {
        let mut ancestors: Vec<Ancestor> = Vec::new();
        // bounded: one level down per pass, and a node must sit one
        // level below its parent, so the leaf ends it within the root's
        // level (a child pointer that leads elsewhere fails `Decode`).
        loop {
            let node = self.take_node(set, page)?;
            if ancestors.last().is_some_and(|parent| {
                node.node.level.checked_add(1) != Some(parent.node.node.level)
            }) {
                return Err(StorageError::Corrupt {
                    page,
                    reason: CorruptReason::Decode,
                });
            }
            if node.node.is_leaf() {
                return Ok(Path {
                    ancestors,
                    page,
                    node,
                });
            }
            let mut best: Option<(f64, f64, usize)> = None;
            for (i, e) in node.node.entries.iter().enumerate() {
                if !e.is_alive() {
                    continue;
                }
                let key = (e.rect.enlargement(rect), e.rect.area());
                if best.is_none_or(|(g, a, _)| (key.0, key.1) < (g, a)) {
                    best = Some((key.0, key.1, i));
                }
            }
            #[expect(
                clippy::expect_used,
                reason = "the weak version condition keeps every reachable directory node at >= D alive children; check::validate reports EmptyDirectory if this is ever violated"
            )]
            let (_, _, child) = best.expect("alive directory node has an alive child");
            let next = node.node.entries[child].child_page();
            ancestors.push(Ancestor { page, node, child });
            page = next;
        }
    }

    /// DFS for the leaf holding the alive record `id` whose rect equals
    /// (is contained in) `rect`; returns the path to that leaf plus the
    /// record's entry index within it. Nodes off the path go back into
    /// the set as the search leaves them.
    fn locate_alive(
        &self,
        set: &mut NodeSet,
        id: u64,
        rect: &Rect2,
    ) -> Result<Option<(Path, usize)>, StorageError> {
        let Some(root) = self.current_root() else {
            return Ok(None);
        };
        let found = self.locate_rec(set, root.page, id, rect)?;
        Ok(found.map(|(mut path, idx)| {
            // `locate_rec` adds each ancestor on its way back up.
            path.ancestors.reverse();
            (path, idx)
        }))
    }

    /// [`PprTree::locate_alive`] below `page`, with the path's ancestors
    /// nearest first.
    fn locate_rec(
        &self,
        set: &mut NodeSet,
        page: PageId,
        id: u64,
        rect: &Rect2,
    ) -> Result<Option<(Path, usize)>, StorageError> {
        let node = self.take_node(set, page)?;
        if node.node.is_leaf() {
            let found = node
                .node
                .entries
                .iter()
                .position(|e| e.is_alive() && e.ptr == id && e.rect == *rect);
            return Ok(match found {
                Some(idx) => Some((Path::leaf(page, node), idx)),
                None => {
                    set.nodes.insert(page, node);
                    None
                }
            });
        }
        let mut hit = None;
        for (i, e) in node.node.entries.iter().enumerate() {
            if e.is_alive() && e.rect.contains_rect(rect) {
                hit = self
                    .locate_rec(set, e.child_page(), id, rect)?
                    .map(|f| (i, f));
                if hit.is_some() {
                    break;
                }
            }
        }
        Ok(match hit {
            Some((child, (mut path, idx))) => {
                path.ancestors.push(Ancestor { page, node, child });
                Some((path, idx))
            }
            None => {
                set.nodes.insert(page, node);
                None
            }
        })
    }

    /// Apply `ops` to the leaf of `path` and walk structural
    /// consequences up to the root, over the nodes the descent took out
    /// of the set: each goes back (or, closed, to its page) as the walk
    /// passes it.
    fn propagate(
        &mut self,
        set: &mut NodeSet,
        path: Path,
        mut ops: Ops,
        t: Time,
    ) -> Result<(), StorageError> {
        let Path {
            mut ancestors,
            mut page,
            mut node,
        } = path;
        // bounded: every pass pops one ancestor and the root (no parent)
        // returns, so it runs at most the path's length.
        loop {
            let parent = ancestors.pop();
            let up = self.apply_ops(set, page, node, ops, t, parent.as_ref())?;
            let Some(parent) = parent else {
                if let UpOps::Replace { adds, .. } = up {
                    self.replace_root(set, adds, t)?;
                }
                return Ok(());
            };
            ops = match up {
                UpOps::Done => {
                    // The rest of the path is unchanged: back it goes.
                    for a in std::iter::once(parent).chain(ancestors) {
                        set.nodes.insert(a.page, a.node);
                    }
                    return Ok(());
                }
                UpOps::Expand(rect) => Ops {
                    kills: Vec::new(),
                    expand: Some((parent.child, rect)),
                    adds: Vec::new(),
                },
                UpOps::Replace { kill_sibling, adds } => Ops {
                    kills: std::iter::once(parent.child).chain(kill_sibling).collect(),
                    expand: None,
                    adds,
                },
            };
            (page, node) = (parent.page, parent.node);
        }
    }

    /// Apply kills/expands/adds to `node`, the node of `page`, and mark
    /// it dirty if that changed a bit of it (an expand its entry already
    /// covers leaves it as it is, and the walk goes on up all the same).
    /// Version-split when the node is full or (for non-roots) the weak
    /// version condition breaks: the closed node is written now, if it
    /// differs from its page, and leaves the set; otherwise the node
    /// goes back into the set.
    fn apply_ops(
        &mut self,
        set: &mut NodeSet,
        page: PageId,
        mut node: Live,
        ops: Ops,
        t: Time,
        parent: Option<&Ancestor>,
    ) -> Result<UpOps, StorageError> {
        let entries = &mut node.node.entries;
        let mut changed = false;
        for &k in &ops.kills {
            debug_assert!(entries[k].is_alive(), "killing a dead entry");
            changed |= entries[k].deletion != t;
            entries[k].deletion = t;
        }
        if let Some((idx, rect)) = ops.expand {
            let before = entries[idx].rect;
            entries[idx].rect.expand(&rect);
            changed |= !same_bits(&before, &entries[idx].rect);
        }
        let mut adds = ops.adds;
        let mut grow = ops.expand.map(|(_, r)| r).unwrap_or(Rect2::EMPTY);
        for e in &adds {
            grow.expand(&e.rect);
        }
        let alive = node.node.alive_count() + adds.len();
        let is_root = parent.is_none();
        // A full node, or a non-root that breaks the weak version
        // condition, is closed and its survivors copied (possibly merged
        // with a sibling). The adds must NOT be written into the closed
        // node — it covers history strictly before `t`, and a
        // never-deleted copy left behind would resurface in interval
        // queries that span the split — so only the kills and expands
        // are persisted, historically, and the adds go into the copies.
        let split = node.node.entries.len() + adds.len() > self.params.max_entries
            || (!is_root && alive < self.params.weak_min());
        if !split {
            changed |= !adds.is_empty();
            node.node.entries.append(&mut adds);
        }
        if split {
            if node.dirty || changed {
                self.write_node(page, &node.node)?;
            }
            node.node.entries.append(&mut adds);
            return self.version_split(set, &node.node, t, parent);
        }
        if changed {
            set.mark(page, &mut node);
        }
        let level = node.node.level;
        set.nodes.insert(page, node);
        if is_root && level > 0 && alive == 0 {
            // Directory root lost its last child: close the current
            // evolution; a future insert starts a fresh root.
            self.close_current_root(t);
            return Ok(UpOps::Done);
        }
        Ok(if grow.is_empty() {
            UpOps::Done
        } else {
            UpOps::Expand(grow)
        })
    }

    /// Copy the alive entries of `node` into fresh node(s) at time `t`,
    /// applying the strong version overflow / underflow rules. The
    /// copies join the set, dirty. Returns the replacement directive for
    /// the parent.
    fn version_split(
        &mut self,
        set: &mut NodeSet,
        node: &PprNode,
        t: Time,
        parent: Option<&Ancestor>,
    ) -> Result<UpOps, StorageError> {
        let mut copies: Vec<PprEntry> = node
            .entries
            .iter()
            .filter(|e| e.is_alive())
            .map(|e| PprEntry { insertion: t, ..*e })
            .collect();

        if copies.is_empty() {
            return Ok(UpOps::Replace {
                kill_sibling: None,
                adds: Vec::new(),
            });
        }

        let svu = self.params.strong_underflow();
        let svo = self.params.strong_overflow();
        let mut kill_sibling = None;

        if copies.len() < svu {
            // Strong version underflow: merge with a version-split
            // sibling when one exists.
            if let Some(parent) = parent {
                if let Some((sib_idx, sib_page)) = pick_sibling(parent, node) {
                    // The sibling closes with this node: its page takes
                    // whatever the batch changed in it, and it leaves
                    // the set.
                    let sib = self.take_node(set, sib_page)?;
                    if sib.dirty {
                        self.write_node(sib_page, &sib.node)?;
                    }
                    debug_assert_eq!(sib.node.level, node.level, "merge across levels");
                    copies.extend(
                        sib.node
                            .entries
                            .iter()
                            .filter(|e| e.is_alive())
                            .map(|e| PprEntry { insertion: t, ..*e }),
                    );
                    kill_sibling = Some(sib_idx);
                }
                // No alive sibling: fall through and create the sparse
                // copy anyway — the weak condition is best-effort when the
                // parent has a single alive child.
            }
        }

        let groups: Vec<Vec<PprEntry>> = if copies.len() > svo {
            let (g1, g2) = key_split(copies, svu);
            vec![g1, g2]
        } else {
            vec![copies]
        };

        let mut adds = Vec::with_capacity(groups.len());
        for g in groups {
            assert!(
                g.len() <= self.params.max_entries,
                "version split overflowed a node"
            );
            let new_node = PprNode {
                level: node.level,
                entries: g,
            };
            let new_page = self.store.allocate()?;
            adds.push(PprEntry::alive(new_node.full_mbr(), u64::from(new_page), t));
            set.add(new_page, new_node);
        }
        Ok(UpOps::Replace { kill_sibling, adds })
    }

    /// Install replacements for a version-split root.
    fn replace_root(
        &mut self,
        set: &mut NodeSet,
        adds: Vec<PprEntry>,
        t: Time,
    ) -> Result<(), StorageError> {
        #[expect(
            clippy::expect_used,
            reason = "only called from propagate while the current root overflows, so a current root exists"
        )]
        let old = self.current_root().expect("a root was being split");
        self.close_current_root(t);
        match adds.len() {
            0 => {}
            1 => {
                self.roots.push(RootSpan {
                    interval: TimeInterval::open(t),
                    page: adds[0].child_page(),
                    level: old.level,
                });
            }
            2 => {
                let new_root = PprNode {
                    level: old.level + 1,
                    entries: adds,
                };
                let page = self.store.allocate()?;
                set.add(page, new_root);
                self.roots.push(RootSpan {
                    interval: TimeInterval::open(t),
                    page,
                    level: old.level + 1,
                });
            }
            #[expect(
                clippy::unreachable,
                reason = "apply_version_split emits at most two replacement nodes (copy + optional key-split sibling)"
            )]
            n => unreachable!("version split produced {n} nodes"),
        }
        Ok(())
    }

    fn close_current_root(&mut self, t: Time) {
        #[expect(
            clippy::expect_used,
            reason = "callers close the root only after current_root() returned Some"
        )]
        let span = self.roots.last_mut().expect("root exists");
        debug_assert!(span.interval.is_open());
        span.interval.end = t;
        if span.interval.is_empty() {
            // Root that was opened and closed at the same instant covers
            // no queryable time; drop it from the log.
            self.roots.pop();
        }
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Save the whole index (pages + parameters + root log) to a file.
    ///
    /// The save is atomic and epoch-stamped: the image streams to a
    /// temp sibling a page at a time, is synced, then renamed over
    /// `path` and the directory synced, so a crash at any point leaves
    /// either the previous complete file or the new one (see
    /// [`sti_storage::persist`]).
    pub fn save_to_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.save_with_owner(path, &[])
    }

    /// [`PprTree::save_to_file`] with `owner` bytes appended after the
    /// root log, inside the image's checksummed metadata region, so the
    /// owner's state commits with the tree in one rename.
    /// [`PprTree::open_with_owner`] returns them; [`PprTree::open_file`]
    /// ignores them. The region's only bound is the format's `u32`
    /// length; a save over it is refused with `InvalidInput` before the
    /// temp file exists, and leaves the file at `path` as it was.
    pub fn save_with_owner(&self, path: &std::path::Path, owner: &[u8]) -> std::io::Result<()> {
        let meta_u32 = |n: usize, what: &str| {
            u32::try_from(n).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{what} too large for the index file format: {n}"),
                )
            })
        };
        let mut meta = vec![0u8; 1 + 4 + 8 * 3 + 4 + 4 + 8 + 8 + 4 + self.roots.len() * 16];
        {
            let mut w = sti_storage::ByteWriter::new(&mut meta);
            w.put_u8(b'P'); // backend tag: partially persistent R-Tree
            w.put_u32(meta_u32(self.params.max_entries, "max_entries")?);
            w.put_f64(self.params.p_version);
            w.put_f64(self.params.p_svo);
            w.put_f64(self.params.p_svu);
            w.put_u32(meta_u32(self.params.buffer_pages, "buffer_pages")?);
            w.put_u32(self.now);
            w.put_u64(self.alive_records);
            w.put_u64(self.total_posted);
            w.put_u32(meta_u32(self.roots.len(), "root log length")?);
            for r in &self.roots {
                w.put_u32(r.interval.start);
                w.put_u32(r.interval.end);
                w.put_u32(r.page);
                w.put_u32(r.level);
            }
        }
        meta.extend_from_slice(owner);
        self.store.save_to(path, &meta)
    }

    /// Load an index previously written by [`PprTree::save_to_file`].
    ///
    /// Fails closed: any checksum, magic, epoch or structural mismatch in
    /// the file, and parameters outside [`PprParams::check`]'s ranges,
    /// are a typed error before a single page is trusted.
    pub fn open_file(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(Self::open_with_owner(path)?.0)
    }

    /// [`PprTree::open_file`], also returning the owner bytes that
    /// [`PprTree::save_with_owner`] appended after the root log (empty
    /// for a plain save).
    pub fn open_with_owner(path: &std::path::Path) -> std::io::Result<(Self, Vec<u8>)> {
        use std::io::{Error, ErrorKind};
        let bad = |m: &'static str| Error::new(ErrorKind::InvalidData, m);
        // Buffer capacity is re-read from the metadata below; load with a
        // placeholder first.
        let (mut store, meta) = PageStore::load_from(path, 0)?;
        let mut r = sti_storage::ByteReader::new(&meta);
        match r.get_u8().map_err(|_| bad("backend tag"))? {
            b'P' => {}
            b'R' => return Err(bad("R*-Tree images are no longer supported")),
            _ => return Err(bad("unknown index backend tag")),
        }
        let mut take = |what: &'static str| r.get_u32().map_err(move |_| bad(what));
        let max_entries = take("max_entries")? as usize;
        let mut rf = |what: &'static str| r.get_f64().map_err(move |_| bad(what));
        let p_version = rf("p_version")?;
        let p_svo = rf("p_svo")?;
        let p_svu = rf("p_svu")?;
        let params = PprParams {
            max_entries,
            p_version,
            p_svo,
            p_svu,
            buffer_pages: r.get_u32().map_err(|_| bad("buffer_pages"))? as usize,
        };
        params
            .check()
            .map_err(|e| Error::new(ErrorKind::InvalidData, format!("parameters: {e}")))?;
        store.set_buffer_capacity(params.buffer_pages);
        let now = r.get_u32().map_err(|_| bad("now"))?;
        let alive_records = r.get_u64().map_err(|_| bad("alive"))?;
        let total_posted = r.get_u64().map_err(|_| bad("total"))?;
        let count = r.get_u32().map_err(|_| bad("root count"))? as usize;
        let mut roots = Vec::with_capacity(count);
        for _ in 0..count {
            let start = r.get_u32().map_err(|_| bad("root start"))?;
            let end = r.get_u32().map_err(|_| bad("root end"))?;
            let page = r.get_u32().map_err(|_| bad("root page"))?;
            let level = r.get_u32().map_err(|_| bad("root level"))?;
            if end < start || (page as usize) >= store.num_pages() {
                return Err(bad("corrupt root span"));
            }
            roots.push(RootSpan {
                interval: TimeInterval { start, end },
                page,
                level,
            });
        }
        let owner = meta.get(r.position()..).unwrap_or_default().to_vec();
        let tree = Self::assemble(store, params, roots, now, alive_records, total_posted);
        Ok((tree, owner))
    }

    /// Panic unless every structural invariant holds (test aid).
    ///
    /// Delegates to [`crate::check::validate`], which walks the whole
    /// history — root log, MBR containment, lifetime nesting, weak
    /// version condition, record accounting — and returns typed
    /// [`crate::check::Violation`]s; this wrapper only turns them into a
    /// panic for `assert!`-style test call sites.
    #[doc(hidden)]
    #[expect(
        clippy::panic,
        reason = "test-only wrapper; the typed API is check::validate"
    )]
    pub fn validate(&self) {
        if let Err(violations) = crate::check::validate(self) {
            let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            panic!("PPR-Tree invariant check failed:\n{}", lines.join("\n"));
        }
    }
}

/// One timestamped change to the current tree, for [`PprTree::apply`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    /// Insert record `id` with rectangle `rect`, alive from `t`.
    Insert {
        /// The record's id.
        id: u64,
        /// Its rectangle; the empty sentinel is refused.
        rect: Rect2,
        /// The insertion time.
        t: Time,
    },
    /// Delete the alive record `(id, rect)` at `t`; `rect` must be
    /// exactly the rectangle it was inserted with.
    Delete {
        /// The record's id.
        id: u64,
        /// Its rectangle, as inserted.
        rect: Rect2,
        /// The deletion time.
        t: Time,
    },
}

impl Update {
    /// When the update happens.
    pub fn time(&self) -> Time {
        match *self {
            Update::Insert { t, .. } | Update::Delete { t, .. } => t,
        }
    }
}

/// The nodes of the current tree one batch of updates has touched,
/// decoded, by page: the batch reads each page at most once and writes
/// it at most once. An update takes the nodes on its path out and puts
/// them back; a node a version split closes is written then and leaves
/// for good, so the set only ever holds alive nodes.
#[derive(Default)]
struct NodeSet {
    nodes: HashMap<PageId, Live>,
    /// Pages in the order the batch first changed them: the order of
    /// the end-of-batch writes.
    dirtied: Vec<PageId>,
}

impl NodeSet {
    /// Record that `node`, the node of `page`, now differs from its page.
    fn mark(&mut self, page: PageId, node: &mut Live) {
        if !node.dirty {
            node.dirty = true;
            self.dirtied.push(page);
        }
    }

    /// Put a node of a freshly allocated page in the set, dirty.
    fn add(&mut self, page: PageId, node: PprNode) {
        let mut node = Live::clean(node);
        self.mark(page, &mut node);
        self.nodes.insert(page, node);
    }
}

/// A decoded node of the current tree.
struct Live {
    node: PprNode,
    /// Whether the batch changed it since its page was last written.
    dirty: bool,
}

impl Live {
    /// A node as its page holds it.
    fn clean(node: PprNode) -> Self {
        Self { node, dirty: false }
    }
}

/// Root-to-leaf path recorded during descent: every node on it, taken
/// out of the batch's [`NodeSet`] until the update has passed it.
struct Path {
    /// The directory nodes above the leaf, root first.
    ancestors: Vec<Ancestor>,
    /// The leaf's page.
    page: PageId,
    /// The leaf.
    node: Live,
}

impl Path {
    /// The path of a tree whose root is the leaf `node` at `page`.
    fn leaf(page: PageId, node: Live) -> Self {
        Self {
            ancestors: Vec::new(),
            page,
            node,
        }
    }
}

/// A directory node on a [`Path`].
struct Ancestor {
    page: PageId,
    node: Live,
    /// Index within `node` of the entry pointing one level down the path.
    child: usize,
}

/// Choose an alive sibling of the entry `parent.child`, preferring the
/// one whose MBR is closest (smallest union area) to the underflowing
/// `node`.
fn pick_sibling(parent: &Ancestor, node: &PprNode) -> Option<(usize, PageId)> {
    let my_rect = node.alive_mbr();
    let mut best: Option<(f64, usize, PageId)> = None;
    for (i, e) in parent.node.node.entries.iter().enumerate() {
        if i == parent.child || !e.is_alive() {
            continue;
        }
        // Any alive sibling is safe: the combined copies are at most
        // (svu − 1) + B entries, and when that exceeds svo the key
        // split's min-fill bound (svu each, checked by
        // `PprParams::validate`) caps each half below B.
        let key = if my_rect.is_empty() {
            e.rect.area()
        } else {
            my_rect.union(&e.rect).area()
        };
        if best.is_none_or(|(b, _, _)| key < b) {
            best = Some((key, i, e.child_page()));
        }
    }
    best.map(|(_, i, p)| (i, p))
}

/// Whether two rectangles encode to the same bytes: `-0.0` and `0.0`
/// compare equal but are different bits on the page.
fn same_bits(a: &Rect2, b: &Rect2) -> bool {
    let bits = |r: &Rect2| [r.lo.x, r.lo.y, r.hi.x, r.hi.y].map(f64::to_bits);
    bits(a) == bits(b)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use sti_storage::{FaultKind, FaultPlan, FaultyBackend, MemBackend, ScheduledFault};

    fn small_params() -> PprParams {
        // B = 10: D = ceil(2.2) = 3, svo = 8, svu = 4; svo+1 ≥ 2·svu ✓
        PprParams {
            max_entries: 10,
            p_version: 0.22,
            p_svo: 0.8,
            p_svu: 0.4,
            buffer_pages: 4,
        }
    }

    fn rect(x: f64, y: f64) -> Rect2 {
        Rect2::from_bounds(x, y, x + 0.02, y + 0.02)
    }

    /// Naive shadow structure for cross-checking queries.
    struct Shadow {
        records: Vec<(u64, Rect2, Time, Time)>,
    }

    impl Shadow {
        fn snapshot(&self, area: &Rect2, t: Time) -> Vec<u64> {
            let mut v: Vec<u64> = self
                .records
                .iter()
                .filter(|(_, r, s, e)| *s <= t && t < *e && r.intersects(area))
                .map(|&(id, ..)| id)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        }

        fn interval(&self, area: &Rect2, range: &TimeInterval) -> Vec<u64> {
            let mut v: Vec<u64> = self
                .records
                .iter()
                .filter(|(_, r, s, e)| {
                    TimeInterval::new(*s, *e).overlaps(range) && r.intersects(area)
                })
                .map(|&(id, ..)| id)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        }
    }

    #[test]
    fn empty_tree_answers_nothing() {
        let t = PprTree::new(small_params());
        let mut out = Vec::new();
        t.query_snapshot(&Rect2::UNIT, 5, &mut out).unwrap();
        assert!(out.is_empty());
        t.query_interval(&Rect2::UNIT, &TimeInterval::new(0, 100), &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(t.roots().len(), 0);
    }

    #[test]
    fn single_record_lifecycle() {
        let mut t = PprTree::new(small_params());
        let r = rect(0.5, 0.5);
        t.insert(1, r, 10).unwrap();
        t.delete(1, r, 20).unwrap();
        assert_eq!(t.alive_records(), 0);
        assert_eq!(t.total_records(), 1);

        let mut out = Vec::new();
        t.query_snapshot(&r, 15, &mut out).unwrap();
        assert_eq!(out, vec![1]);
        out.clear();
        t.query_snapshot(&r, 9, &mut out).unwrap();
        assert!(out.is_empty());
        out.clear();
        t.query_snapshot(&r, 20, &mut out).unwrap(); // half-open lifetime
        assert!(out.is_empty());
        out.clear();
        t.query_interval(&r, &TimeInterval::new(0, 100), &mut out)
            .unwrap();
        assert_eq!(out, vec![1]);
    }

    /// The cursor filters a snapshot at `t` as the span `[t, t + 1)`:
    /// at the last instants before `Time::MAX` — which doubles as the
    /// "not deleted yet" stamp — that must neither overflow nor
    /// disagree with `alive_at` / `lifetime().intersect` over the owned
    /// decode, for open lifetimes and an instantaneous one alike.
    #[test]
    fn a_snapshot_at_the_end_of_time_cannot_overflow() {
        const LAST: Time = Time::MAX - 1;
        let mut t = PprTree::new(small_params());
        t.insert(1, rect(0.1, 0.1), 5).unwrap();
        t.insert(2, rect(0.2, 0.2), 7).unwrap();
        t.delete(2, rect(0.2, 0.2), 7).unwrap(); // insertion == deletion
        t.insert(3, rect(0.3, 0.3), 9).unwrap();
        t.delete(3, rect(0.3, 0.3), LAST).unwrap();
        t.insert(4, rect(0.4, 0.4), LAST).unwrap();
        assert_eq!(t.num_pages(), 1, "one leaf: its owned decode is the oracle");
        let frame = t.store.peek(t.roots[0].page).unwrap();
        let leaf = PprNode::decode(&frame).unwrap();
        let ids = |keep: &dyn Fn(&PprEntry) -> bool| -> Vec<u64> {
            leaf.entries
                .iter()
                .filter(|e| keep(e))
                .map(|e| e.ptr)
                .collect()
        };

        for instant in [0, 5, 7, 9, LAST - 1, LAST, Time::MAX] {
            let want = ids(&|e| e.alive_at(instant));
            let mut got = Vec::new();
            t.query_snapshot(&Rect2::UNIT, instant, &mut got).unwrap();
            got.sort_unstable();
            assert_eq!(got, want, "snapshot at {instant}");
            let view = NodeView::new(&frame).unwrap();
            let scanned: Vec<u64> = view
                .scan(TimeInterval::instant(instant))
                .map(|e| e.ptr)
                .collect();
            assert_eq!(scanned, want, "cursor at {instant}");
        }
        assert_eq!(ids(&|e| e.alive_at(LAST)), vec![1, 4]);
        assert_eq!(ids(&|e| e.alive_at(Time::MAX)), Vec::<u64>::new());

        for start in [0, 7, 8, LAST, Time::MAX] {
            for end in [start, LAST, TimeInterval::OPEN_END] {
                if end <= start {
                    continue;
                }
                let range = TimeInterval::new(start, end);
                let want = ids(&|e| e.lifetime().intersect(&range).is_some());
                let mut got = Vec::new();
                t.query_interval(&Rect2::UNIT, &range, &mut got).unwrap();
                got.sort_unstable();
                assert_eq!(got, want, "interval {range}");
            }
        }
    }

    /// `TimeInterval::instant(Time::MAX)` is the empty span, so a
    /// snapshot at the last instant finds nothing even in a tree whose
    /// records are all still open, and costs no page read.
    #[test]
    fn a_snapshot_at_time_max_returns_nothing() {
        let mut t = PprTree::new(small_params());
        for i in 0..40u32 {
            t.insert(u64::from(i), rect(0.02 * f64::from(i), 0.5), i)
                .unwrap();
        }
        assert!(t.num_pages() > 1, "a directory above the leaves");
        let mut out = Vec::new();
        let stats = t.query_snapshot(&Rect2::UNIT, Time::MAX, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, QueryStats::new(), "no root span holds MAX");
        let stats = t
            .query_interval(&Rect2::UNIT, &TimeInterval::instant(Time::MAX), &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, QueryStats::new());
    }

    /// Build a deterministic tree with inserts and deletes for the
    /// interleaving / accounting tests below.
    fn populated_tree() -> PprTree {
        let mut t = PprTree::new(small_params());
        for i in 0..120u32 {
            t.insert(
                u64::from(i),
                rect(0.008 * f64::from(i % 100), 0.009 * f64::from(i % 90)),
                i,
            )
            .unwrap();
        }
        for i in (0..60u32).step_by(3) {
            t.delete(
                u64::from(i),
                rect(0.008 * f64::from(i % 100), 0.009 * f64::from(i % 90)),
                120 + i,
            )
            .unwrap();
        }
        t
    }

    /// Satellite regression: scratch reuse must not leak state between
    /// queries. Interleaving snapshot and interval queries (and running
    /// each twice) returns exactly what a fresh tree returns per query.
    #[test]
    fn interleaved_queries_match_fresh_queries() {
        let areas = [
            Rect2::UNIT,
            Rect2::from_bounds(0.0, 0.0, 0.3, 0.3),
            Rect2::from_bounds(0.2, 0.1, 0.7, 0.8),
            Rect2::from_bounds(0.9, 0.9, 1.0, 1.0),
        ];
        let times: [Time; 3] = [5, 60, 150];
        let ranges = [
            TimeInterval::new(0, 40),
            TimeInterval::new(50, 130),
            TimeInterval::new(0, 500),
        ];

        // Expected answers, each from a fresh tree (no shared scratch).
        let mut expected_snap = Vec::new();
        for area in &areas {
            for &t in &times {
                let fresh = populated_tree();
                let mut out = Vec::new();
                fresh.query_snapshot(area, t, &mut out).unwrap();
                out.sort_unstable();
                expected_snap.push(out);
            }
        }
        let mut expected_int = Vec::new();
        for area in &areas {
            for range in &ranges {
                let fresh = populated_tree();
                let mut out = Vec::new();
                fresh.query_interval(area, range, &mut out).unwrap();
                out.sort_unstable();
                expected_int.push(out);
            }
        }

        // One tree, queries interleaved and repeated.
        let tree = populated_tree();
        for round in 0..2 {
            let mut si = 0;
            let mut ii = 0;
            for area in &areas {
                for &t in &times {
                    let mut out = Vec::new();
                    tree.query_snapshot(area, t, &mut out).unwrap();
                    out.sort_unstable();
                    assert_eq!(out, expected_snap[si], "snapshot {si} round {round}");
                    si += 1;
                    // Interleave an interval query between snapshots.
                    if ii < expected_int.len() {
                        let mut out = Vec::new();
                        tree.query_interval(
                            &areas[ii % areas.len()],
                            &ranges[ii % ranges.len()],
                            &mut out,
                        )
                        .unwrap();
                        out.sort_unstable();
                        let fresh = populated_tree();
                        let mut want = Vec::new();
                        fresh
                            .query_interval(
                                &areas[ii % areas.len()],
                                &ranges[ii % ranges.len()],
                                &mut want,
                            )
                            .unwrap();
                        want.sort_unstable();
                        assert_eq!(out, want, "interleaved interval {ii} round {round}");
                        ii += 1;
                    }
                }
            }
        }
    }

    /// Queries append to `out` without clearing it.
    #[test]
    fn queries_append_without_clearing() {
        let t = populated_tree();
        let mut out = vec![u64::MAX];
        t.query_snapshot(&Rect2::UNIT, 50, &mut out).unwrap();
        assert_eq!(out[0], u64::MAX);
        let before = out.len();
        t.query_interval(&Rect2::UNIT, &TimeInterval::new(0, 20), &mut out)
            .unwrap();
        assert!(out.len() > before);
        assert_eq!(out[0], u64::MAX);
    }

    /// Per-query deltas reported by `QueryStats` reconcile with the
    /// global store counters, and traversal tallies are populated.
    #[test]
    fn query_stats_reconcile_with_global_counters() {
        let t = populated_tree();
        let base = t.io_stats();
        let mut sum = QueryStats::new();
        let mut out = Vec::new();
        for i in 0..10u32 {
            let area = Rect2::from_bounds(0.0, 0.0, 0.1 * f64::from(i % 9), 1.0);
            let s1 = t.query_snapshot(&area, 30 + i, &mut out).unwrap();
            let s2 = t
                .query_interval(&area, &TimeInterval::new(i, 90 + i), &mut out)
                .unwrap();
            assert_eq!(
                s1.results as usize + s2.results as usize + sum.results as usize,
                out.len()
            );
            assert!(s1.nodes_visited >= 1);
            assert!(s1.entries_scanned >= s1.results);
            assert_eq!(s2.dedup_candidates, s2.results);
            assert_eq!(s1.io_faults_injected, 0, "no fault injector attached");
            sum += s1;
            sum += s2;
        }
        let now = t.io_stats();
        assert_eq!(sum.disk_reads, now.reads - base.reads);
        assert_eq!(sum.buffer_hits, now.buffer_hits - base.buffer_hits);
        assert_eq!(sum.disk_writes, now.writes - base.writes);
        assert_eq!(sum.disk_writes, 0, "queries are read-only");
        assert_eq!(sum.io_retries, 0, "no faults, no retries");
        assert_eq!(sum.checksum_failures, 0);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_time_travel() {
        let mut t = PprTree::new(small_params());
        t.insert(1, rect(0.1, 0.1), 10).unwrap();
        let _ = t.insert(2, rect(0.2, 0.2), 5);
    }

    #[test]
    fn deleting_missing_record_is_an_error_and_leaves_tree_intact() {
        let mut t = PprTree::new(small_params());
        t.insert(1, rect(0.1, 0.1), 10).unwrap();
        assert_eq!(
            t.delete(99, rect(0.1, 0.1), 11),
            Err(DeleteError::NotFound { id: 99, t: 11 })
        );
        // Wrong rectangle is also not found, and the real record stays.
        assert!(t.delete(1, rect(0.5, 0.5), 11).is_err());
        assert_eq!(t.alive_records(), 1);
        t.delete(1, rect(0.1, 0.1), 11).unwrap();
        assert_eq!(t.alive_records(), 0);
    }

    #[test]
    fn version_split_preserves_history() {
        // Fill one leaf beyond capacity; the old state must stay
        // queryable at old timestamps.
        let mut t = PprTree::new(small_params());
        for i in 0..30u64 {
            t.insert(i, rect(0.01 * i as f64, 0.0), i as Time).unwrap();
        }
        t.validate();
        let mut out = Vec::new();
        // At time 5, exactly records 0..=5 are alive.
        t.query_snapshot(&Rect2::UNIT, 5, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, (0..=5).collect::<Vec<u64>>());
        // At time 29 all 30 are alive.
        out.clear();
        t.query_snapshot(&Rect2::UNIT, 29, &mut out).unwrap();
        assert_eq!(out.len(), 30);
    }

    #[test]
    fn mass_deletion_triggers_weak_underflow_handling() {
        let mut t = PprTree::new(small_params());
        for i in 0..40u64 {
            t.insert(i, rect(0.02 * (i % 20) as f64, 0.1 * (i / 20) as f64), 0)
                .unwrap();
        }
        // Delete most of them, forcing weak underflows and merges.
        for i in 0..36u64 {
            t.delete(
                i,
                rect(0.02 * (i % 20) as f64, 0.1 * (i / 20) as f64),
                10 + i as Time,
            )
            .unwrap();
        }
        t.validate();
        let mut out = Vec::new();
        t.query_snapshot(&Rect2::UNIT, 60, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![36, 37, 38, 39]);
        // History intact: at t=5 all 40 alive.
        out.clear();
        t.query_snapshot(&Rect2::UNIT, 5, &mut out).unwrap();
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut t = PprTree::new(small_params());
        for i in 0..8u64 {
            t.insert(i, rect(0.1 * i as f64, 0.0), 0).unwrap();
        }
        for i in 0..8u64 {
            t.delete(i, rect(0.1 * i as f64, 0.0), 10).unwrap();
        }
        assert_eq!(t.alive_records(), 0);
        // New evolution after a gap.
        t.insert(100, rect(0.5, 0.5), 50).unwrap();
        t.validate();
        let mut out = Vec::new();
        t.query_snapshot(&Rect2::UNIT, 30, &mut out).unwrap();
        assert!(out.is_empty(), "gap between evolutions must be empty");
        out.clear();
        t.query_snapshot(&Rect2::UNIT, 50, &mut out).unwrap();
        assert_eq!(out, vec![100]);
        out.clear();
        t.query_snapshot(&Rect2::UNIT, 5, &mut out).unwrap();
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn interval_query_deduplicates_copies() {
        let mut t = PprTree::new(small_params());
        // One long-lived record that will be copied by version splits
        // caused by churning neighbors.
        let target = rect(0.5, 0.5);
        t.insert(999, target, 0).unwrap();
        for round in 0u64..20 {
            let tt = 1 + round as Time * 2;
            for j in 0..5u64 {
                t.insert(round * 10 + j, rect(0.01 * j as f64, 0.9), tt)
                    .unwrap();
            }
            for j in 0..5u64 {
                t.delete(round * 10 + j, rect(0.01 * j as f64, 0.9), tt + 1)
                    .unwrap();
            }
        }
        t.validate();
        let mut out = Vec::new();
        t.query_interval(&target, &TimeInterval::new(0, 100), &mut out)
            .unwrap();
        assert_eq!(
            out,
            vec![999],
            "the surviving record is reported exactly once"
        );
    }

    #[test]
    fn randomized_against_shadow() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut tree = PprTree::new(small_params());
        let mut shadow = Shadow {
            records: Vec::new(),
        };
        let mut alive: Vec<(u64, Rect2)> = Vec::new();
        let mut next_id = 0u64;

        for t in 0..300u32 {
            // A few births.
            for _ in 0..rng.random_range(0..4) {
                let r = rect(rng.random::<f64>() * 0.9, rng.random::<f64>() * 0.9);
                tree.insert(next_id, r, t).unwrap();
                shadow.records.push((next_id, r, t, TimeInterval::OPEN_END));
                alive.push((next_id, r));
                next_id += 1;
            }
            // A few deaths.
            for _ in 0..rng.random_range(0..3) {
                if alive.is_empty() {
                    break;
                }
                let k = rng.random_range(0..alive.len());
                let (id, r) = alive.swap_remove(k);
                tree.delete(id, r, t).unwrap();
                let rec = shadow
                    .records
                    .iter_mut()
                    .find(|(i, ..)| *i == id)
                    .expect("exists");
                rec.3 = t;
            }
        }
        tree.validate();

        // Snapshot checks across the whole evolution.
        for t in (0..300).step_by(13) {
            let area = Rect2::from_bounds(0.2, 0.2, 0.7, 0.7);
            let mut got = Vec::new();
            tree.query_snapshot(&area, t, &mut got).unwrap();
            got.sort_unstable();
            assert_eq!(got, shadow.snapshot(&area, t), "snapshot at {t}");
        }
        // Interval checks.
        for start in (0..280).step_by(31) {
            let range = TimeInterval::new(start, start + 17);
            let area = Rect2::from_bounds(0.1, 0.1, 0.6, 0.8);
            let mut got = Vec::new();
            tree.query_interval(&area, &range, &mut got).unwrap();
            got.sort_unstable();
            assert_eq!(got, shadow.interval(&area, &range), "interval at {range}");
        }
    }

    #[test]
    fn snapshot_io_scales_with_alive_not_history() {
        // Insert 60 churning generations; at any instant only ~10 alive.
        let mut t = PprTree::new(small_params());
        let mut clock: Time = 0;
        for gen in 0..60u64 {
            for j in 0..10u64 {
                t.insert(gen * 100 + j, rect(0.05 * j as f64, 0.3), clock)
                    .unwrap();
            }
            clock += 5;
            for j in 0..10u64 {
                t.delete(gen * 100 + j, rect(0.05 * j as f64, 0.3), clock)
                    .unwrap();
            }
        }
        let pages = t.num_pages();
        assert!(pages > 30, "history should occupy many pages, got {pages}");
        t.reset_for_query();
        let mut out = Vec::new();
        t.query_snapshot(&Rect2::UNIT, 7, &mut out).unwrap();
        let io = t.io_stats().reads;
        assert_eq!(out.len(), 10);
        assert!(
            io <= 8,
            "snapshot must touch only the ephemeral tree of its instant ({io} reads, {pages} pages)"
        );
    }

    #[test]
    fn roots_partition_time() {
        let mut t = PprTree::new(small_params());
        for i in 0..200u64 {
            t.insert(i, rect(0.004 * i as f64, 0.004 * i as f64), i as Time)
                .unwrap();
        }
        let roots = t.roots();
        assert!(!roots.is_empty());
        for w in roots.windows(2) {
            assert_eq!(
                w[0].interval.end, w[1].interval.start,
                "root spans must be consecutive"
            );
        }
        assert!(roots.last().expect("nonempty").interval.is_open());
    }

    /// A permanent write fault mid-insert rolls the whole update back:
    /// pages, root log, clock and counters all keep their prior values,
    /// and the structure still validates.
    #[test]
    fn failed_insert_rolls_back_completely() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 40,
            kind: FaultKind::Fail { transient: false },
        }]);
        let backend = FaultyBackend::new(Box::new(MemBackend::new()), plan);
        let mut t = PprTree::with_backend(small_params(), Box::new(backend));

        let mut i = 0u64;
        // bounded: the plan fails operation 40, and the assert stops it
        // at 10 000 inserts if the fault never fires.
        let err = loop {
            match t.insert(i, rect(0.03 * (i % 25) as f64, 0.2), i as Time) {
                Ok(()) => {
                    i += 1;
                    assert!(i < 10_000, "fault never fired");
                }
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StorageError::Injected { .. }), "{err:?}");
        assert_eq!(t.alive_records(), i, "failed insert must not count");
        assert_eq!(t.now(), i.saturating_sub(1) as Time, "clock rolled back");
        t.validate();

        // The tree keeps working once the fault has passed.
        t.insert(i, rect(0.03 * (i % 25) as f64, 0.2), i as Time)
            .unwrap();
        assert_eq!(t.alive_records(), i + 1);
        t.validate();
    }

    /// Transient faults are absorbed by the store's retry loop: the
    /// update succeeds and the retries surface in the fault counters.
    #[test]
    fn transient_faults_are_invisible_to_updates() {
        let plan = FaultPlan::new(vec![
            ScheduledFault {
                at_op: 3,
                kind: FaultKind::Fail { transient: true },
            },
            ScheduledFault {
                at_op: 9,
                kind: FaultKind::Fail { transient: true },
            },
        ]);
        let backend = FaultyBackend::new(Box::new(MemBackend::new()), plan);
        let mut t = PprTree::with_backend(small_params(), Box::new(backend));
        for i in 0..20u64 {
            t.insert(i, rect(0.04 * (i % 20) as f64, 0.4), i as Time)
                .unwrap();
        }
        t.validate();
        let fs = t.fault_stats();
        assert_eq!(fs.io_faults_injected, 2);
        assert_eq!(fs.io_retries, 2);
        let mut out = Vec::new();
        t.query_snapshot(&Rect2::UNIT, 19, &mut out).unwrap();
        assert_eq!(out.len(), 20);
    }

    /// A failing read mid-query surfaces a typed error, and the very next
    /// query (fault exhausted) works on untouched state.
    #[test]
    fn failed_query_is_typed_and_recoverable() {
        let t = populated_tree();
        let pages = t.num_pages();
        // Rebuild over a faulty backend that dies on an early read.
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 1,
            kind: FaultKind::Fail { transient: false },
        }]);
        let backend = FaultyBackend::new(Box::new(MemBackend::new()), plan);
        let mut ft = PprTree::with_backend(small_params(), Box::new(backend));
        let err = ft
            .insert(1, rect(0.1, 0.1), 0)
            .expect_err("fault on op 1 must surface");
        assert!(matches!(err, StorageError::Injected { .. }));
        // After the plan is exhausted everything works again.
        ft.insert(1, rect(0.1, 0.1), 0).unwrap();
        let mut out = Vec::new();
        ft.query_snapshot(&Rect2::UNIT, 0, &mut out).unwrap();
        assert_eq!(out, vec![1]);
        assert!(pages > 0);
    }

    /// A directory entry bent back onto its own node: the level check
    /// fails the walk typed instead of letting it circle forever.
    #[test]
    fn child_pointer_cycle_fails_typed() {
        let mut t = populated_tree();
        let root = t.current_root().unwrap();
        assert!(root.level > 0, "the fixture has a directory root");
        let mut node = t.read_node(root.page).unwrap();
        for alive in node.entries.iter_mut().filter(|e| e.is_alive()) {
            alive.ptr = u64::from(root.page);
        }
        t.write_node(root.page, &node).unwrap();
        let cycle = StorageError::Corrupt {
            page: root.page,
            reason: CorruptReason::Decode,
        };
        let mut out = Vec::new();
        let now = t.now();
        assert_eq!(
            t.query_snapshot(&Rect2::UNIT, now, &mut out),
            Err(cycle.clone())
        );
        let recent = TimeInterval::new(now - 1, now + 1);
        assert_eq!(
            t.query_interval(&Rect2::UNIT, &recent, &mut out),
            Err(cycle.clone())
        );
        // The insert descent ends at the cycle too, instead of going
        // round it forever.
        assert_eq!(t.insert(u64::MAX, rect(0.4, 0.4), now), Err(cycle));
    }

    /// `t` over a copy of its pages with `page` replaced by `bytes`: the
    /// damage sits at rest under a checksum that matches it (adoption
    /// records what it finds), below a pool that never saw it.
    pub(crate) fn adopted_with(t: &PprTree, page: PageId, bytes: &Page) -> PprTree {
        let mut pages = MemBackend::new();
        for id in 0..PageId::try_from(t.num_pages()).unwrap() {
            let at_rest = t.store.peek(id).unwrap();
            let content = if id == page { bytes } else { &at_rest };
            let copy = pages.allocate().unwrap();
            pages.write(copy, &content.bytes()[..]).unwrap();
        }
        PprTree::assemble(
            PageStore::with_backend(Box::new(pages), t.params.buffer_pages),
            t.params,
            t.roots.clone(),
            t.now,
            t.alive_records,
            t.total_posted,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

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
            page in 0u32..40,
            entry in 0usize..12,
            field in 0usize..6,
            kind in 0usize..5,
            noise in proptest::prelude::any::<u64>(),
        ) {
            let mut t = populated_tree();
            let page = page % u32::try_from(t.num_pages()).unwrap();
            // On a field of one of the first entries (or, last field
            // value, straddling the lifetime and the next entry).
            let at = 6 + entry * 48 + field * 8;
            let patch = [
                noise.to_le_bytes(),
                f64::NAN.to_le_bytes(),
                f64::INFINITY.to_le_bytes(),
                u64::MAX.to_le_bytes(),
                (noise % 40).to_le_bytes(), // a plausible page id
            ][kind];
            let mut bytes = t.store.peek(page).unwrap();
            bytes.bytes_mut()[at..at + 8].copy_from_slice(&patch);
            let malformed = !PprNode::well_formed(&bytes);
            let refused = StorageError::Corrupt { page, reason: CorruptReason::Decode };

            let below = adopted_with(&t, page, &bytes);
            let written = t.store.write(page, &bytes.bytes()[..]);
            proptest::prop_assert_eq!(written, if malformed { Err(refused.clone()) } else { Ok(()) });

            for tree in [&t, &below] {
                let typed = |outcome: Option<StorageError>| {
                    let decoder_caught_it = matches!(
                        outcome,
                        None | Some(StorageError::Corrupt { reason: CorruptReason::Decode, .. })
                            | Some(StorageError::Unallocated { .. })
                    );
                    proptest::prop_assert!(decoder_caught_it, "{outcome:?}");
                };
                let mut out = Vec::new();
                for instant in [0, 60, 119, 150, 200] {
                    typed(tree.query_snapshot(&Rect2::UNIT, instant, &mut out).err());
                }
                let all = TimeInterval::new(0, 500);
                typed(tree.query_interval(&Rect2::UNIT, &all, &mut out).err());
                // The checker reads the same bytes through the owned decode.
                let _ = crate::check::validate(tree);
            }
            if malformed {
                // The refused write changed nothing; the copy damaged at
                // rest fails at the page, at every touch, because the
                // page never becomes resident.
                proptest::prop_assert!(crate::check::validate(&t).is_ok());
                let mut probe = ReadProbe::new();
                for _ in 0..2 {
                    proptest::prop_assert_eq!(below.store.read(page, &mut probe), Err(refused.clone()));
                    proptest::prop_assert!(!below.store.buffer().resident(page));
                }
                proptest::prop_assert_eq!((probe.disk_reads, probe.buffer_hits), (0, 0));
            }
        }
    }

    mod descent_reference {
        //! Differential test of the interval query's level-by-level descent
        //! against the depth-first walk it replaced.
        //!
        //! The depth-first walk pushes a child once per parent path, so a page
        //! that the old and the new copy of a version-split parent both point
        //! at is scanned twice when a range crosses the split. It is kept here
        //! as the reference: the descent must return the same ids, visit
        //! exactly the walk's distinct pages, and fetch each page once. The
        //! trees are the ones the index builds: incremental trees over 0 % and
        //! 150 % LAGreedy plans of random and railway data, a bulk tree whose
        //! sort spilled, and a tree sealed by the live ingest pipeline.

        use crate::tree::{apply_probe, PprTree};
        use crate::{BulkLoader, BulkPiece, PprNode, PprParams};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::HashSet;
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        use sti_core::{
            DistributionAlgorithm, IndexBackend, IndexConfig, IngestPipeline, ObjectRecord,
            OnlineSplitConfig, SingleSplitAlgorithm, SplitBudget, SplitPlan,
        };
        use sti_datagen::{RailwayDatasetSpec, RandomDatasetSpec};
        use sti_geom::{Rect2, Time, TimeInterval};
        use sti_obs::QueryStats;
        use sti_storage::{
            MemBackend, PageBackend, PageId, PageStore, ReadProbe, StorageError, PAGE_SIZE,
        };
        use sti_trajectory::RasterizedObject;

        /// The depth-first `query_interval` the descent replaced. Every visit
        /// is appended to `pages`, repeats included; the ids come back sorted.
        fn depth_first(
            tree: &PprTree,
            area: &Rect2,
            range: &TimeInterval,
            pages: &mut Vec<PageId>,
        ) -> (Vec<u64>, QueryStats) {
            let mut stats = QueryStats::new();
            let mut probe = ReadProbe::new();
            let mut seen = HashSet::new();
            let mut stack = Vec::new();
            for span in tree.roots().iter().filter(|s| s.interval.overlaps(range)) {
                let Some(root_range) = span.interval.intersect(range) else {
                    continue;
                };
                stack.push((span.page, span.level, root_range));
                while let Some((page, level, clipped)) = stack.pop() {
                    stats.nodes_visited += 1;
                    pages.push(page);
                    let entries = tree.visit(page, level, clipped, &mut probe, |e| {
                        if !e.rect.intersects(area) {
                            return;
                        }
                        if level == 0 {
                            seen.insert(e.ptr);
                        } else if let Some(sub) = e.lifetime().intersect(&clipped) {
                            stack.push((e.child_page(), level - 1, sub));
                        }
                    });
                    stats.entries_scanned += entries.unwrap();
                }
            }
            stats.dedup_candidates = seen.len() as u64;
            stats.results = stats.dedup_candidates;
            apply_probe(&mut stats, &probe);
            let mut ids: Vec<u64> = seen.into_iter().collect();
            ids.sort_unstable();
            (ids, stats)
        }

        /// A page device that counts the reads of each page below the pool.
        #[derive(Debug, Clone)]
        struct Counted {
            pages: MemBackend,
            reads: Arc<Vec<AtomicU32>>,
        }

        impl PageBackend for Counted {
            fn num_pages(&self) -> usize {
                self.pages.num_pages()
            }

            fn read_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
                if let Some(count) = self.reads.get(id as usize) {
                    // ordering: a tally read after the query returns; it
                    // publishes no memory.
                    count.fetch_add(1, Ordering::Relaxed);
                }
                self.pages.read_into(id, buf)
            }

            fn peek_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
                self.pages.peek_into(id, buf)
            }

            fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
                self.pages.write(id, payload)
            }

            fn allocate(&mut self) -> Result<PageId, StorageError> {
                self.pages.allocate()
            }

            fn truncate(&mut self, len: usize) {
                self.pages.truncate(len);
            }

            fn sync(&mut self) -> Result<(), StorageError> {
                self.pages.sync()
            }

            fn clone_box(&self) -> Box<dyn PageBackend> {
                Box::new(self.clone())
            }
        }

        /// A copy of `tree` over a [`Counted`] device, with a pool that holds
        /// every page: after `reset_for_query`, a page read twice in one query
        /// is a buffer hit, and the device sees each page at most once.
        fn counted(tree: &PprTree) -> (PprTree, Arc<Vec<AtomicU32>>) {
            let n = tree.num_pages();
            let mut pages = MemBackend::new();
            for id in 0..PageId::try_from(n).unwrap() {
                let copy = pages.allocate().unwrap();
                let bytes = tree.store_ref().peek(id).unwrap();
                pages.write(copy, &bytes.bytes()[..]).unwrap();
            }
            let reads: Arc<Vec<AtomicU32>> = Arc::new((0..n).map(|_| AtomicU32::new(0)).collect());
            let device = Counted {
                pages,
                reads: Arc::clone(&reads),
            };
            let copy = PprTree::assemble(
                PageStore::with_backend(Box::new(device), n),
                *tree.params(),
                tree.roots().to_vec(),
                tree.now(),
                tree.alive_records(),
                tree.total_records(),
            );
            (copy, reads)
        }

        /// Drain the per-page read counts: the pages the device served since
        /// the last drain, each with how often.
        fn drain(reads: &[AtomicU32]) -> Vec<(PageId, u32)> {
            (0..)
                .zip(reads)
                // ordering: the query that bumped the counts ran on this thread.
                .map(|(id, count)| (id, count.swap(0, Ordering::Relaxed)))
                .filter(|&(_, count)| count > 0)
                .collect()
        }

        /// What one tree's query set added up to, for the revisit check.
        #[derive(Debug, Default)]
        struct Totals {
            queries: u64,
            nodes: u64,
            reference_nodes: u64,
        }

        /// Run seeded interval queries (durations 1–400) and a snapshot at each
        /// range's start through `tree` and the reference, asserting every
        /// property the descent promises.
        fn differential(name: &str, tree: &PprTree, seed: u64, queries: usize) -> Totals {
            tree.validate();
            let (mut tree, reads) = counted(tree);
            let horizon = tree.now().max(1);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut totals = Totals::default();
            for q in 0..queries {
                let side = 0.05 + 0.35 * rng.random::<f64>();
                let (x, y) = (
                    rng.random::<f64>() * (1.0 - side),
                    rng.random::<f64>() * (1.0 - side),
                );
                let area = Rect2::from_bounds(x, y, x + side, y + side);
                let duration = if q % 2 == 0 {
                    rng.random_range(1..=50)
                } else {
                    rng.random_range(1..=400)
                };
                let start = rng.random_range(0..horizon);
                let range = TimeInterval::new(start, start.saturating_add(duration));
                let what = format!("{name}: query {q}, {range}");

                tree.reset_for_query();
                drain(&reads);
                let mut got = Vec::new();
                let stats = tree.query_interval(&area, &range, &mut got).unwrap();
                got.sort_unstable();
                let fetched = drain(&reads);
                assert!(
                    fetched.iter().all(|&(_, count)| count == 1),
                    "{what}: a page fetched twice"
                );
                assert_eq!(stats.buffer_hits, 0, "{what}: a page visited twice");
                assert_eq!(stats.disk_reads, stats.nodes_visited, "{what}");
                assert_eq!(stats.nodes_visited, fetched.len() as u64, "{what}");

                tree.reset_for_query();
                let mut walked = Vec::new();
                let (want, reference) = depth_first(&tree, &area, &range, &mut walked);
                drain(&reads);
                assert_eq!(got, want, "{what}: ids");
                assert_eq!(stats.results, reference.results, "{what}");
                walked.sort_unstable();
                walked.dedup();
                let visited: Vec<PageId> = fetched.iter().map(|&(page, _)| page).collect();
                assert_eq!(visited, walked, "{what}: pages visited");
                assert!(stats.nodes_visited <= reference.nodes_visited, "{what}");
                assert!(stats.entries_scanned <= reference.entries_scanned, "{what}");
                totals.queries += 1;
                totals.nodes += stats.nodes_visited;
                totals.reference_nodes += reference.nodes_visited;

                // A snapshot walks one root span depth first, exactly as the
                // reference walks a one-instant range; only the dedup tally,
                // which a snapshot does not keep, differs.
                tree.reset_for_query();
                let mut snap = Vec::new();
                let snap_stats = tree.query_snapshot(&area, start, &mut snap).unwrap();
                snap.sort_unstable();
                tree.reset_for_query();
                let (want, reference) =
                    depth_first(&tree, &area, &TimeInterval::instant(start), &mut Vec::new());
                assert_eq!(snap, want, "{name}: snapshot {q} at {start}");
                assert_eq!(
                    snap_stats,
                    QueryStats {
                        dedup_candidates: 0,
                        ..reference
                    },
                    "{name}: snapshot {q} at {start}"
                );
            }
            totals
        }

        fn params() -> PprParams {
            PprParams {
                max_entries: 12,
                buffer_pages: 10,
                ..PprParams::default()
            }
        }

        fn lagreedy(objects: &[RasterizedObject], percent: f64) -> Vec<ObjectRecord> {
            let plan = SplitPlan::build(
                objects,
                SingleSplitAlgorithm::MergeSplit,
                DistributionAlgorithm::LaGreedy,
                SplitBudget::Percent(percent),
                None,
            );
            plan.records(objects)
        }

        /// Time-ordered updates, deletions first at an instant, so an object's
        /// consecutive pieces never coexist.
        fn incremental(records: &[ObjectRecord]) -> PprTree {
            let mut events: Vec<(Time, bool, usize)> = Vec::new();
            for (i, r) in records.iter().enumerate() {
                events.push((r.stbox.lifetime.start, true, i));
                events.push((r.stbox.lifetime.end, false, i));
            }
            events.sort_unstable();
            let mut tree = PprTree::new(params());
            for (t, insert, i) in events {
                let r = &records[i];
                if insert {
                    tree.insert(r.id, r.stbox.rect, t).unwrap();
                } else {
                    tree.delete(r.id, r.stbox.rect, t).unwrap();
                }
            }
            tree
        }

        fn scratch_path(name: &str) -> std::path::PathBuf {
            std::env::temp_dir().join(format!("sti-descent-{name}-{}", std::process::id()))
        }

        /// Every query set must show revisits for the descent to remove;
        /// otherwise the trees are too small to test anything.
        fn assert_revisits_removed(name: &str, totals: &Totals) {
            assert!(
                totals.nodes < totals.reference_nodes,
                "{name}: {totals:?} — no page was ever reached twice"
            );
        }

        #[test]
        fn incremental_trees_match_the_depth_first_walk() {
            let random = RandomDatasetSpec::paper(300).generate();
            let railway = RailwayDatasetSpec::paper(400).generate_rasterized();
            let mut all = Totals::default();
            for (data, objects) in [("random", &random), ("railway", &railway)] {
                for percent in [0.0, 150.0] {
                    let name = format!("{data} {percent} %");
                    let tree = incremental(&lagreedy(objects, percent));
                    let totals = differential(&name, &tree, 7, 120);
                    all.queries += totals.queries;
                    all.nodes += totals.nodes;
                    all.reference_nodes += totals.reference_nodes;
                }
            }
            assert_revisits_removed("incremental", &all);
        }

        #[test]
        fn a_spilled_bulk_tree_matches_the_depth_first_walk() {
            let records = lagreedy(&RandomDatasetSpec::paper(600).generate(), 150.0);
            assert!(
                records.len() > 1024,
                "{} pieces cannot spill",
                records.len()
            );
            let dir = scratch_path("bulk");
            let mut loader = BulkLoader::new(params(), &dir).chunk_capacity(1024);
            for r in &records {
                loader
                    .push(BulkPiece {
                        rect: r.stbox.rect,
                        ptr: r.id,
                        insertion: r.stbox.lifetime.start,
                        deletion: r.stbox.lifetime.end,
                    })
                    .unwrap();
            }
            let (tree, stats) = loader.finish(PageStore::new(10)).unwrap();
            std::fs::remove_dir_all(&dir).ok();
            assert!(stats.spilled_runs > 0, "{stats:?}");
            differential("bulk", &tree, 11, 120);
        }

        #[test]
        fn a_sealed_pipeline_tree_matches_the_depth_first_walk() {
            let objects = RandomDatasetSpec::paper(200).generate();
            let mut ops: Vec<(Time, u64, Option<usize>)> = Vec::new();
            for o in &objects {
                ops.extend((0..o.len()).map(|i| (o.start() + i as Time, o.id(), Some(i))));
                ops.push((o.lifetime().end, o.id(), None));
            }
            ops.sort_unstable();
            // The pipeline's tree is the library's own type, not this test
            // build's: so are its parameters, and it is handed over as the
            // saved image.
            let mut fanout = IndexConfig::paper(IndexBackend::PprTree).ppr;
            fanout.max_entries = params().max_entries;
            let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), fanout);
            let mut clock = 0;
            for (t, id, at) in ops {
                if t >= clock + 16 {
                    clock = t;
                    assert!(pipeline.commit().rejected.is_empty());
                }
                match at {
                    Some(i) => pipeline.enqueue_update(id, objects[id as usize].rect(i), t),
                    None => pipeline.enqueue_finish(id, t),
                }
            }
            let sealed = pipeline.seal();
            assert!(sealed.rejected.is_empty() && sealed.error.is_none());
            let path = scratch_path("pipeline.idx");
            pipeline.into_published_tree().save_to_file(&path).unwrap();
            let tree = PprTree::open_file(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let totals = differential("pipeline", &tree, 13, 120);
            assert_revisits_removed("pipeline", &totals);
        }

        /// DESIGN.md §10's case: a version split leaves the old leaf's copy of
        /// a record with an open `deletion`, and the record dies after the
        /// split. A range that starts before the split reaches the old leaf,
        /// and no range after the death may report the record.
        #[test]
        fn a_dead_copy_with_an_open_deletion_is_not_resurrected() {
            const X: u64 = 1_000;
            let target = Rect2::from_bounds(0.5, 0.5, 0.51, 0.51);
            let mut tree = PprTree::new(PprParams {
                max_entries: 10,
                ..params()
            });
            tree.insert(X, target, 0).unwrap();
            for i in 0..30u32 {
                let at = 0.5 + 0.01 * f64::from(i % 5);
                let r = Rect2::from_bounds(at, 0.45, at + 0.01, 0.46);
                tree.insert(u64::from(i), r, 1 + i).unwrap();
                if i >= 3 {
                    let j = i - 3;
                    let at = 0.5 + 0.01 * f64::from(j % 5);
                    let r = Rect2::from_bounds(at, 0.45, at + 0.01, 0.46);
                    tree.delete(u64::from(j), r, 1 + i).unwrap();
                }
            }
            let death: Time = 40;
            tree.delete(X, target, death).unwrap();
            tree.validate();

            let copies: Vec<TimeInterval> = (0..PageId::try_from(tree.num_pages()).unwrap())
                .filter_map(|page| PprNode::decode(&tree.store_ref().peek(page)?).ok())
                .filter(|node| node.is_leaf())
                .flat_map(|node| node.entries)
                .filter(|e| e.ptr == X)
                .map(|e| e.lifetime())
                .collect();
            assert!(
                copies.iter().any(|life| life.is_open())
                    && copies.iter().any(|life| life.end == death),
                "X needs a dead open copy and a killed live one: {copies:?}"
            );

            let (tree, reads) = counted(&tree);
            for range in [
                TimeInterval::new(0, 100),
                TimeInterval::new(death - 1, death + 20),
                TimeInterval::new(death, death + 20),
                TimeInterval::new(death + 5, 100),
            ] {
                let mut got = Vec::new();
                tree.query_interval(&target, &range, &mut got).unwrap();
                let (want, _) = depth_first(&tree, &target, &range, &mut Vec::new());
                drain(&reads);
                assert_eq!(got, want, "{range}");
                let alive = range.start < death;
                assert_eq!(got, if alive { vec![X] } else { Vec::new() }, "{range}");
            }
        }
    }
}
