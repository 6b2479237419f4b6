//! An update writes exactly the pages whose bytes it changes, and a
//! batch of updates is those updates one at a time.
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
//!
//! The same streams, cut into random batches for [`PprTree::apply`],
//! must write each changed page once per batch, read no page twice, and
//! leave pages, root log and counters exactly as a twin fed the same
//! updates one `insert` / `delete` at a time. A batch fails whole: a
//! permanent write fault where a version split closes a node or in the
//! end-of-batch flush, or a delete that finds nothing halfway through,
//! leaves the tree as it was before the batch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::{Arc, Mutex};
use sti_geom::{Rect2, Time};
use sti_pprtree::{check, DeleteError, PprNode, PprParams, PprTree, Update};
use sti_storage::{
    FaultKind, FaultPlan, FaultyBackend, IoOp, MemBackend, Page, PageBackend, PageId,
    ScheduledFault, StorageError, PAGE_SIZE,
};

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
fn stream(seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut updates = Vec::new();
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
                updates.push(Update::Insert { id, rect, t });
                alive.push((id, rect));
            }
            if rng.random_bool(0.4) && alive.len() > 4 {
                let (id, rect) = alive.swap_remove(rng.random_range(0..alive.len()));
                updates.push(Update::Delete { id, rect, t });
            }
        }
        while !alive.is_empty() {
            t += 1;
            for _ in 0..rng.random_range(1..4).min(alive.len()) {
                let (id, rect) = alive.swap_remove(rng.random_range(0..alive.len()));
                updates.push(Update::Delete { id, rect, t });
            }
        }
    }
    updates
}

/// Apply `update` through the single-update API.
fn one_at_a_time(tree: &mut PprTree, update: &Update) {
    match *update {
        Update::Insert { id, rect, t } => tree.insert(id, rect, t).unwrap(),
        Update::Delete { id, rect, t } => tree.delete(id, rect, t).unwrap(),
    }
}

fn run_stream(seed: u64) -> Seen {
    let mut checked = Checked {
        tree: PprTree::new(params()),
        seen: Seen::default(),
    };
    for update in stream(seed) {
        checked.update(update.time(), |tree| one_at_a_time(tree, &update));
    }
    checked.seen
}

/// `updates` cut into consecutive batches of 1 to 100.
fn batches(updates: &[Update], seed: u64) -> Vec<&[Update]> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
    let mut rest = updates;
    let mut out = Vec::new();
    while !rest.is_empty() {
        let (batch, tail) = rest.split_at(rng.random_range(1..=100).min(rest.len()));
        out.push(batch);
        rest = tail;
    }
    out
}

/// What a failed batch must leave as it found: pages at rest, root
/// log, clock and record counters.
#[derive(Debug, PartialEq)]
struct State {
    pages: Vec<Page>,
    roots: Vec<sti_pprtree::RootSpan>,
    counters: (Time, u64, u64),
}

fn state(tree: &mut PprTree) -> State {
    State {
        pages: pages_at_rest(tree),
        roots: tree.roots().to_vec(),
        counters: (tree.now(), tree.alive_records(), tree.total_records()),
    }
}

fn run_batches(seed: u64) {
    let updates = stream(seed);
    let mut batched = PprTree::new(params());
    let mut twin = PprTree::new(params());
    for (b, batch) in batches(&updates, seed).into_iter().enumerate() {
        let before = pages_at_rest(&mut batched);
        let io_before = batched.io_stats();
        batched.apply(batch).unwrap();
        let io = batched.io_stats();
        let after = state(&mut batched);

        let zero = Page::zeroed();
        let changed = after
            .pages
            .iter()
            .enumerate()
            .filter(|&(i, page)| page != before.get(i).unwrap_or(&zero))
            .count() as u64;
        let what = format!("seed {seed}, batch {b} of {} updates", batch.len());
        assert_eq!(io.writes - io_before.writes, changed, "{what}: writes");
        let visits = io.reads + io.buffer_hits - io_before.reads - io_before.buffer_hits;
        assert!(
            visits <= before.len() as u64,
            "{what}: {visits} node reads over {} pages",
            before.len()
        );
        if let Err(violations) = check::validate(&batched) {
            panic!("{what}: {violations:?}");
        }

        for update in batch {
            one_at_a_time(&mut twin, update);
        }
        assert!(after == state(&mut twin), "{what}: differs from its twin");
    }
}

/// One operation as the device saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read,
    Write(PageId),
    Allocate,
    Sync,
}

/// A page device that logs every operation reaching it. Under a
/// [`FaultyBackend`] with no faults, the log's index of an operation is
/// the fault clock's.
#[derive(Debug, Clone)]
struct Logged {
    pages: MemBackend,
    log: Arc<Mutex<Vec<Op>>>,
}

impl Logged {
    fn record(&self, op: Op) {
        self.log.lock().unwrap().push(op);
    }
}

impl PageBackend for Logged {
    fn num_pages(&self) -> usize {
        self.pages.num_pages()
    }

    fn read_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.record(Op::Read);
        self.pages.read_into(id, buf)
    }

    fn peek_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.pages.peek_into(id, buf)
    }

    fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        self.record(Op::Write(id));
        self.pages.write(id, payload)
    }

    fn restore(&mut self, id: PageId, bytes: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.pages.restore(id, bytes)
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        self.record(Op::Allocate);
        self.pages.allocate()
    }

    fn truncate(&mut self, len: usize) {
        self.pages.truncate(len);
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.record(Op::Sync);
        self.pages.sync()
    }

    fn clone_box(&self) -> Box<dyn PageBackend> {
        Box::new(self.clone())
    }
}

/// A tree over a [`FaultyBackend`] that runs `plan` over a [`Logged`]
/// device, and the device's log.
fn faulty_tree(plan: FaultPlan) -> (PprTree, Arc<Mutex<Vec<Op>>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let device = Logged {
        pages: MemBackend::new(),
        log: Arc::clone(&log),
    };
    let backend = FaultyBackend::new(Box::new(device), plan);
    (PprTree::with_backend(params(), Box::new(backend)), log)
}

/// Where in a batch's device operations a fault can be aimed.
#[derive(Debug, Clone, Copy)]
enum Aim {
    /// The write of a node a version split closes: every write before
    /// the batch's last allocation.
    SplitClose,
    /// A write of the end-of-batch flush: every write after the batch's
    /// last read or allocation.
    Flush,
}

/// Feed `stream(seed)`'s batches to a fault-free tree and find, from a
/// seeded pick, a batch with a write at `aim`: its index, and the fault
/// clock of that write.
fn calibrate(seed: u64, aim: Aim) -> Option<(usize, u64)> {
    let updates = stream(seed);
    let (mut tree, log) = faulty_tree(FaultPlan::none());
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA1);
    let mut candidates = Vec::new();
    for (b, batch) in batches(&updates, seed).into_iter().enumerate() {
        let start = log.lock().unwrap().len();
        tree.apply(batch).unwrap();
        let ops = log.lock().unwrap()[start..].to_vec();
        let last = |keep: fn(&Op) -> bool| ops.iter().rposition(keep);
        let writes = ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Write(_)))
            .map(|(i, _)| i);
        let aimed: Vec<usize> = match aim {
            Aim::SplitClose => {
                let last_allocate = last(|op| *op == Op::Allocate);
                writes
                    .filter(|&i| last_allocate.is_some_and(|a| i < a))
                    .collect()
            }
            Aim::Flush => {
                let last_other = last(|op| matches!(op, Op::Read | Op::Allocate));
                writes
                    .filter(|&i| last_other.is_none_or(|o| i > o))
                    .collect()
            }
        };
        if !aimed.is_empty() {
            let i = aimed[rng.random_range(0..aimed.len())];
            candidates.push((b, (start + i) as u64));
        }
    }
    (!candidates.is_empty()).then(|| candidates[rng.random_range(0..candidates.len())])
}

/// A permanent write fault at `aim` fails its batch whole; the same
/// batch then applies, and the tree matches a fault-free twin.
fn fault_at(seed: u64, aim: Aim) {
    let Some((at, at_op)) = calibrate(seed, aim) else {
        panic!("seed {seed}: no batch has a write at {aim:?}");
    };
    let updates = stream(seed);
    let cut = batches(&updates, seed);
    let plan = FaultPlan::new(vec![ScheduledFault {
        at_op,
        kind: FaultKind::Fail { transient: false },
    }]);
    let (mut tree, _) = faulty_tree(plan);
    let mut twin = PprTree::new(params());
    for batch in &cut[..at] {
        tree.apply(batch).unwrap();
        twin.apply(batch).unwrap();
    }
    let before = state(&mut tree);
    let what = format!("seed {seed}, {aim:?} fault in batch {at} at op {at_op}");
    match tree.apply(cut[at]) {
        Err(DeleteError::Storage(StorageError::Injected {
            op: IoOp::Write, ..
        })) => {}
        other => panic!("{what}: {other:?}"),
    }
    assert!(
        before == state(&mut tree),
        "{what}: the failed batch left a trace"
    );
    tree.validate();
    for batch in &cut[at..] {
        tree.apply(batch).unwrap();
        twin.apply(batch).unwrap();
    }
    assert!(
        state(&mut tree) == state(&mut twin),
        "{what}: retried batches differ"
    );
}

/// A delete of a record that is not alive, in the middle of a batch,
/// fails the batch whole with `NotFound`; the batch without it applies.
fn missing_delete(seed: u64) {
    let updates = stream(seed);
    let cut = batches(&updates, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3D);
    let at = rng.random_range(0..cut.len());
    let batch = cut[at];
    let mut tree = PprTree::new(params());
    for earlier in &cut[..at] {
        tree.apply(earlier).unwrap();
    }
    let middle = batch.len() / 2;
    let t = batch[middle].time();
    let missing = Update::Delete {
        id: u64::MAX,
        rect: Rect2::from_bounds(0.5, 0.5, 0.51, 0.51),
        t,
    };
    let poisoned: Vec<Update> = batch[..middle]
        .iter()
        .copied()
        .chain(std::iter::once(missing))
        .chain(batch[middle..].iter().copied())
        .collect();
    let before = state(&mut tree);
    assert_eq!(
        tree.apply(&poisoned),
        Err(DeleteError::NotFound { id: u64::MAX, t }),
        "seed {seed}, batch {at}"
    );
    assert!(
        before == state(&mut tree),
        "seed {seed}, batch {at}: left a trace"
    );
    tree.apply(batch).unwrap();
    tree.validate();
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

    #[test]
    fn a_batch_is_its_updates_one_at_a_time(seed in any::<u64>()) {
        run_batches(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn a_batch_fails_whole(seed in any::<u64>()) {
        fault_at(seed, Aim::SplitClose);
        fault_at(seed, Aim::Flush);
        missing_delete(seed);
    }
}
