//! The simulated disk: a pluggable page backend behind a frame-owning
//! LRU buffer pool, with checksums, bounded retry, and an
//! undo log for atomic multi-page operations.
//!
//! Concurrency model (DESIGN.md §6): [`PageStore::read`] takes `&self`
//! so any number of readers can share one store; all mutation stays on
//! `&mut self`, so Rust's aliasing rules make reader/writer races
//! unrepresentable. Internally the backend and the recorded checksums
//! live under one `RwLock` that readers only ever take shared (a miss
//! holds it for one positional read and its verification), hit/miss
//! accounting and the page frames live in the buffer pool, and
//! failure counters are atomics.
//!
//! Pool invariant: a store whose owner gave it a [`PageValidator`]
//! never holds a frame that validator rejects. There are exactly three
//! places a frame enters the pool — the fetch install in
//! [`PageStore::read`] and the write-through installs in
//! [`PageStore::write`] and [`PageStore::append_run`] — and all of them
//! run the validator first, so whoever pins a frame may read it without
//! checking it again.

use crate::backend::{MemBackend, PageBackend};
use crate::buffer::BufferPool;
use crate::checksum::{xxh64, zero_page_sum};
use crate::error::{CorruptReason, IoOp, StorageError};
use crate::shard::ReadProbe;
use crate::{Page, PageId, PAGE_SIZE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};

/// Counters for logical disk traffic.
///
/// A *read* is counted whenever a page is fetched and misses the buffer
/// pool; buffer hits are free, matching how the paper reports "average
/// number of disk accesses" with a 10-page LRU buffer. These are the
/// paper's cost-model counters: a write that needed retries still counts
/// as one logical write (the physical re-attempts live in
/// [`FaultStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page fetches that missed the buffer.
    pub reads: u64,
    /// Page writes (build-time traffic; not part of the query metric).
    pub writes: u64,
    /// Page fetches that hit the buffer (for diagnostics).
    pub buffer_hits: u64,
}

impl IoStats {
    /// Total disk accesses (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Counters for the failure path, separate from the paper's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations re-attempted after a transient error.
    pub io_retries: u64,
    /// Faults the backend injected (zero for real backends).
    pub io_faults_injected: u64,
    /// Page verifications that failed (reads that did not match the
    /// recorded checksum, or writes whose stored bytes did not match the
    /// intended payload).
    pub checksum_failures: u64,
}

/// What the owner of a store accepts as a page of its own: a tree's
/// "this decodes as one of my nodes". See [`PageStore::set_validator`].
pub type PageValidator = fn(&Page) -> bool;

/// One recorded undo step; rollback applies them in reverse.
#[derive(Debug)]
enum UndoOp {
    /// First write to a page inside the transaction: its prior content
    /// (sharing the frame it had, when it was resident).
    Image { id: PageId, bytes: Page, sum: u64 },
    /// `allocate` grew the backend by one page (always the current tail
    /// when undone in reverse order).
    Appended,
}

/// The bytes at rest and what they should hash to. Shared-read
/// (`&self`) paths take this under an `RwLock`, shared; exclusive
/// (`&mut self`) paths go through `get_mut` and never lock.
#[derive(Debug, Clone)]
struct StoreCore {
    backend: Box<dyn PageBackend>,
    /// Checksum of each page's current intended content.
    sums: Vec<u64>,
}

impl StoreCore {
    /// The recorded checksum of page `id`, or the dangling-pointer error
    /// for `op`.
    fn sum(&self, op: IoOp, id: PageId) -> Result<u64, StorageError> {
        let sum = self.sums.get(id as usize).copied();
        sum.ok_or(StorageError::Unallocated {
            op,
            page: id,
            pages: self.sums.len(),
        })
    }

    /// One transfer of page `id` into `buf`, verified against its
    /// recorded checksum.
    fn fetch(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        let expected = self.sum(IoOp::Read, id)?;
        self.backend.read_into(id, buf)?;
        verify(id, buf, expected)
    }

    /// One transfer of `intended` — a whole page: the payload and its
    /// zero-padded tail — to page `id`, then a read-back of the stored
    /// bytes compared with it (detects silent write-side corruption
    /// anywhere in the page, as a checksum of the page would).
    fn store(&mut self, id: PageId, intended: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.backend.write(id, intended)?;
        let mut stored = [0u8; PAGE_SIZE];
        self.backend.peek_into(id, &mut stored)?;
        if stored == *intended {
            return Ok(());
        }
        Err(StorageError::Corrupt {
            page: id,
            reason: CorruptReason::Checksum,
        })
    }

    /// One append of `pages` past the last page, then one read-back of
    /// the run compared page by page with what was meant to land (the
    /// check [`StoreCore::store`] makes for a single page). A mismatch
    /// names the first page that differs.
    fn append(
        &mut self,
        pages: &[[u8; PAGE_SIZE]],
        stored: &mut Vec<[u8; PAGE_SIZE]>,
    ) -> Result<(), StorageError> {
        let first = self.backend.append_run(pages)?;
        stored.resize(pages.len(), [0u8; PAGE_SIZE]);
        self.backend.peek_run_into(first, stored)?;
        let mut pairs = (first..).zip(pages.iter().zip(stored.iter()));
        match pairs.find(|(_, (meant, landed))| meant != landed) {
            Some((page, _)) => Err(StorageError::Corrupt {
                page,
                reason: CorruptReason::Checksum,
            }),
            None => Ok(()),
        }
    }

    /// The bytes of page `id` at rest: no accounting, no faults, no
    /// verification.
    fn page(&self, id: PageId) -> Result<Page, StorageError> {
        let mut page = Page::zeroed();
        self.backend.peek_into(id, page.bytes_mut())?;
        Ok(page)
    }
}

fn verify(page: PageId, bytes: &[u8; PAGE_SIZE], expected: u64) -> Result<(), StorageError> {
    if xxh64(bytes) == expected {
        Ok(())
    } else {
        Err(StorageError::Corrupt {
            page,
            reason: CorruptReason::Checksum,
        })
    }
}

/// Whether `frame` may become resident as page `id` of a store guarded
/// by `validator`.
fn admit(validator: Option<PageValidator>, id: PageId, frame: &Page) -> Result<(), StorageError> {
    match validator {
        Some(well_formed) if !well_formed(frame) => Err(StorageError::Corrupt {
            page: id,
            reason: CorruptReason::Decode,
        }),
        _ => Ok(()),
    }
}

/// Poison-tolerant `get_mut`: no code path panics while holding the
/// core lock (clippy's `unwrap_used`/`panic` gates), and the core's invariants are
/// re-established before every unlock, so a poisoned lock carries no
/// broken state worth propagating.
fn core_mut(lock: &mut RwLock<StoreCore>) -> &mut StoreCore {
    lock.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// Attempts per backend operation, the first included: a transient
/// error is re-attempted at once, up to two times.
const MAX_ATTEMPTS: u32 = 3;

/// The bounded retry loop every backend operation runs in, with the
/// counters it moves.
#[derive(Debug)]
struct Retrier {
    io_retries: AtomicU64,
    checksum_failures: AtomicU64,
}

impl Retrier {
    /// Run `op` until it succeeds, fails permanently, or
    /// [`MAX_ATTEMPTS`] are spent; the last error is returned unchanged.
    /// `probe` receives exactly the counter movement of this call (and
    /// is what `op` itself may attribute to).
    fn run<T>(
        &self,
        probe: &mut ReadProbe,
        mut op: impl FnMut(&mut ReadProbe) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let mut attempt = 0u32;
        // bounded: every pass counts an attempt, and the pass that
        // reaches `MAX_ATTEMPTS` returns.
        loop {
            attempt += 1;
            let e = match op(probe) {
                Ok(done) => return Ok(done),
                Err(e) => e,
            };
            if matches!(
                e,
                StorageError::Corrupt {
                    reason: CorruptReason::Checksum,
                    ..
                }
            ) {
                probe.checksum_failures += 1;
                // ordering: independent stat counter, read only for reporting.
                self.checksum_failures.fetch_add(1, Ordering::Relaxed);
            }
            if !e.is_transient() || attempt >= MAX_ATTEMPTS {
                return Err(e);
            }
            probe.io_retries += 1;
            // ordering: independent stat counter, read only for reporting.
            self.io_retries.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A simulated disk of fixed-size pages with an LRU buffer pool, I/O
/// accounting, per-page checksums, bounded retry for transient faults,
/// and page-level undo.
///
/// The tree implementations own one `PageStore` each and route *all*
/// node traffic through it, so query-time I/O counts are faithful to a
/// disk-resident index: the paper's page capacity is enforced by the
/// node serializers (entries per node), and the buffer is reset before
/// every measured query via [`PageStore::reset_buffer`].
///
/// Failure discipline (DESIGN.md §6): every fallible method returns a
/// typed [`StorageError`]. A failed `write` restores the page's prior
/// bytes before returning, so a single write is atomic; multi-page
/// mutations bracket themselves with [`PageStore::begin_txn`] /
/// [`PageStore::rollback_txn`] so a failure midway leaves the store
/// exactly as it was. A transaction spans one tree update and does not
/// nest.
///
/// Accounting invariant: `stats().reads` and `stats().buffer_hits` are
/// *defined* as the buffer pool's miss/hit counters, so no
/// code path (including test hooks) can move one without the other.
#[derive(Debug)]
pub struct PageStore {
    core: RwLock<StoreCore>,
    /// The frame pool: the only page bytes the store keeps in memory.
    buffer: BufferPool,
    /// Logical writes. Atomic so [`PageStore::reset_stats`] can zero the
    /// counters from `&self` while readers run.
    writes: AtomicU64,
    retry: Retrier,
    /// Backend fault count when fault stats were last reset, so
    /// [`PageStore::fault_stats`] reports a delta.
    injected_at_reset: AtomicU64,
    /// The open transaction's undo log, `None` outside one. A
    /// transaction spans one update, which writes O(height) pages, so
    /// a page's pre-image is deduplicated by scanning this short list.
    txn: Option<Vec<UndoOp>>,
    /// Monotonic save epoch (bumped by `persist::save`). Atomic so a
    /// save needs no exclusive access: a published, shared store can be
    /// checkpointed in place.
    epoch: AtomicU64,
    /// What every frame must pass before it becomes resident; `None`
    /// for a bare store, whose pages are opaque bytes.
    validator: Option<PageValidator>,
    /// The read-back buffer of [`PageStore::append_run`], kept between
    /// runs.
    run_readback: Vec<[u8; PAGE_SIZE]>,
}

impl Clone for PageStore {
    /// A copy-on-write fork: the backend's clone (one pointer per page
    /// over a [`MemBackend`], whose pages the two stores then share until
    /// either writes one), one recorded checksum per page, and a pool
    /// holding the same frames as this one. From here on each side
    /// writes, evicts and counts on its own; the counters start where
    /// this store's stand. An open undo log is not copied: forks are
    /// taken between updates, and every update holds `&mut self`.
    fn clone(&self) -> Self {
        // ordering: relaxed snapshot of independent stat counters; the
        // clone starts from whatever each counter held, no cross-counter
        // consistency is promised.
        let snapshot = |counter: &AtomicU64| AtomicU64::new(counter.load(Ordering::Relaxed));
        Self {
            core: RwLock::new(self.core_read().clone()),
            buffer: self.buffer.clone(),
            writes: snapshot(&self.writes),
            retry: Retrier {
                io_retries: snapshot(&self.retry.io_retries),
                checksum_failures: snapshot(&self.retry.checksum_failures),
            },
            injected_at_reset: snapshot(&self.injected_at_reset),
            txn: None,
            epoch: snapshot(&self.epoch),
            validator: self.validator,
            run_readback: Vec::new(),
        }
    }
}

impl PageStore {
    /// Create an empty in-memory store with a buffer pool of
    /// `buffer_capacity` pages.
    pub fn new(buffer_capacity: usize) -> Self {
        Self::with_backend(Box::new(MemBackend::new()), buffer_capacity)
    }

    /// Create a store over an explicit backend (in-memory, file-backed,
    /// or fault-injecting).
    ///
    /// Pages the backend already holds are adopted as they are: each is
    /// read once, off the books, to record the checksum later fetches
    /// are verified against. None of them becomes resident.
    pub fn with_backend(backend: Box<dyn PageBackend>, buffer_capacity: usize) -> Self {
        let mut bytes = [0u8; PAGE_SIZE];
        let sums = (0..backend.num_pages())
            .map(|i| {
                let id = PageId::try_from(i).unwrap_or(PageId::MAX);
                match backend.peek_into(id, &mut bytes) {
                    Ok(()) => xxh64(&bytes),
                    Err(_) => zero_page_sum(),
                }
            })
            .collect();
        let injected = backend.faults_injected();
        Self {
            core: RwLock::new(StoreCore { backend, sums }),
            buffer: BufferPool::new(buffer_capacity),
            writes: AtomicU64::new(0),
            retry: Retrier {
                io_retries: AtomicU64::new(0),
                checksum_failures: AtomicU64::new(0),
            },
            injected_at_reset: AtomicU64::new(injected),
            txn: None,
            epoch: AtomicU64::new(0),
            validator: None,
            run_readback: Vec::new(),
        }
    }

    /// Make `well_formed` the condition of residency: from here on a
    /// page it rejects is never installed in the pool. A fetch of such a
    /// page fails with [`CorruptReason::Decode`] and a write of one is
    /// refused (see [`PageStore::read`] and [`PageStore::write`]).
    ///
    /// Not a tuning knob: a store has one owner, and each tree passes
    /// its own node check when it takes ownership, before it reads or
    /// writes a page through the store. Frames resident from before the
    /// store had a validator are dropped, since nothing checked them.
    pub fn set_validator(&mut self, well_formed: PageValidator) {
        if self.validator.replace(well_formed).is_none() {
            self.buffer.clear();
        }
    }

    /// This store's buffer pool, for inspecting residency (tests and
    /// tooling).
    pub fn buffer(&self) -> &BufferPool {
        &self.buffer
    }

    fn core_read(&self) -> RwLockReadGuard<'_, StoreCore> {
        // See `core_mut` for why poison recovery is sound here.
        self.core.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of allocated pages (the index's disk footprint, fig. 16).
    pub fn num_pages(&self) -> usize {
        self.core_read().backend.num_pages()
    }

    /// Disk footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.num_pages() * PAGE_SIZE
    }

    /// Pages the backend copied on write because a fork of this store
    /// still shared them ([`PageBackend::pages_copied`]).
    pub fn pages_copied(&self) -> u64 {
        self.core_read().backend.pages_copied()
    }

    /// The backend, for inspection in tests and tooling.
    /// `&mut self` because the backend lives under the read-path lock;
    /// exclusive access borrows it without locking.
    pub fn backend(&mut self) -> &dyn PageBackend {
        core_mut(&mut self.core).backend.as_ref()
    }

    /// Append a page to the store and return its id. Allocation is
    /// append-only: no page is ever handed out twice.
    pub fn allocate(&mut self) -> Result<PageId, StorageError> {
        let Self {
            core, retry, txn, ..
        } = self;
        let core = core_mut(core);
        let id = retry.run(&mut ReadProbe::new(), |_| core.backend.allocate())?;
        core.sums.push(zero_page_sum());
        if let Some(txn) = txn.as_mut() {
            txn.push(UndoOp::Appended);
        }
        Ok(id)
    }

    /// Fetch a page for reading, going through the buffer pool. The
    /// returned [`Page`] *is* the pool's frame, shared by reference
    /// count: a hit copies nothing and the caller scans it outside every
    /// lock. Holding it pins those bytes, which never change — a later
    /// write or eviction of the page replaces the pool's frame instead
    /// of touching this one — and dropping it is all the release there
    /// is.
    ///
    /// A miss costs one disk read: one positional transfer straight
    /// into a frame, verified against the page's recorded checksum
    /// *before* the frame becomes visible to anyone. Verification
    /// failures are retried (a re-fetch repairs corruption that happened
    /// in transfer) within the retry budget, then surface as
    /// [`StorageError::Corrupt`]. Bytes that checksum clean but fail the
    /// owner's validator ([`PageStore::set_validator`]) are what was
    /// written, so re-fetching cannot help: they fail at once with
    /// [`CorruptReason::Decode`]. Either way a failed fetch leaves no
    /// frame behind and moves no counter.
    ///
    /// Shared: concurrent readers are safe, and none of them ever takes
    /// a store-wide exclusive lock — a hit takes the pool's mutex for
    /// the LRU bookkeeping, a miss additionally holds the core lock
    /// *shared* per transfer attempt. Two readers that miss the same
    /// page at once both fetch it; the second install finds the page
    /// resident and is accounted as the hit it would have been a moment
    /// later.
    ///
    /// The caller's [`ReadProbe`] receives exactly this call's counter
    /// movement, mirroring the global accounting increment for
    /// increment — that one-to-one mirroring is what makes per-query
    /// stats sum to the global [`IoStats`] delta under concurrency.
    /// (`io_faults_injected` is the backend's own count across each
    /// transfer attempt, so readers racing on a fault-injecting backend
    /// may both see a fault that fired while they overlapped.)
    pub fn read(&self, id: PageId, probe: &mut ReadProbe) -> Result<Page, StorageError> {
        if let Some(frame) = self.buffer.get(id) {
            probe.buffer_hits += 1;
            return Ok(frame);
        }
        let mut frame = self.buffer.blank();
        let bytes = frame.bytes_mut();
        self.retry.run(probe, |probe| {
            let core = self.core_read();
            let injected_before = core.backend.faults_injected();
            let fetched = core.fetch(id, bytes);
            probe.io_faults_injected += core
                .backend
                .faults_injected()
                .saturating_sub(injected_before);
            fetched
        })?;
        admit(self.validator, id, &frame)?;
        // The pool counts the access; mirror whatever it counted so
        // the probe can never disagree with the global sum.
        if self.buffer.install(id, frame.clone(), true) {
            probe.buffer_hits += 1;
        } else {
            probe.disk_reads += 1;
        }
        Ok(frame)
    }

    /// Overwrite a page's payload. Costs one disk write; the new content
    /// becomes buffer-resident (write-through).
    ///
    /// Accounting policy (see DESIGN.md §6): a successful write *always*
    /// costs exactly one disk write, independent of buffer residency —
    /// the paper's cost model has no notion of absorbed writes, and its
    /// query metric counts read misses only. Write-through *does* warm
    /// the buffer (and refreshes LRU recency), so a read immediately
    /// after a write hits; but that residency update is a caching side
    /// effect, not a read, so it must not increment `buffer_hits`. The
    /// new frame is therefore installed uncounted.
    ///
    /// Failure discipline: the stored bytes are read back after the
    /// write and compared with the intended page, zero-padded tail
    /// included (catching silent at-rest bit flips and torn writes the
    /// device acknowledged); a mismatch is a
    /// [`CorruptReason::Checksum`] failure and is retried — rewriting
    /// heals medium corruption — and on final failure the page's prior
    /// content is restored and its frame dropped, so a failed write never
    /// leaves a torn page behind. The page is hashed once, for the
    /// checksum later fetches are verified against.
    ///
    /// A payload the owner's validator rejects
    /// ([`PageStore::set_validator`]) is refused before anything is
    /// touched — [`CorruptReason::Decode`], with no byte written, no
    /// undo step logged and no counter moved — so nothing this store
    /// wrote can fail its own fetch install later, and the tree update
    /// that produced the page rolls back like any other failed write.
    /// Bytes that reach a slot by another road (pages adopted from a
    /// backend or loaded from an image, pre-images a rollback restores,
    /// damage at rest) are never installed by that road: they meet the
    /// validator at their first fetch.
    pub fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        let Self {
            core,
            buffer,
            writes,
            retry,
            txn,
            validator,
            ..
        } = self;
        let core = core_mut(core);
        let prior_sum = core.sum(IoOp::Write, id)?;
        if payload.len() > PAGE_SIZE {
            return Err(StorageError::PayloadTooLarge { len: payload.len() });
        }
        let mut frame = buffer.blank();
        frame.fill_from(payload);
        admit(*validator, id, &frame)?;
        // Pre-image for this write's own rollback, and for the enclosing
        // transaction's (captured once per page per transaction): the
        // frame the page has, or its bytes at rest.
        let prior = match buffer.peek(id) {
            Some(frame) => frame,
            None => core.page(id)?,
        };
        if let Some(txn) = txn.as_mut() {
            let imaged = txn
                .iter()
                .any(|op| matches!(op, UndoOp::Image { id: seen, .. } if *seen == id));
            if !imaged {
                txn.push(UndoOp::Image {
                    id,
                    bytes: prior.clone(),
                    sum: prior_sum,
                });
            }
        }
        match retry.run(&mut ReadProbe::new(), |_| core.store(id, frame.bytes())) {
            Ok(()) => {
                if let Some(sum) = core.sums.get_mut(id as usize) {
                    *sum = xxh64(frame.bytes());
                }
                // ordering: independent stat counter, read only for reporting.
                writes.fetch_add(1, Ordering::Relaxed);
                // Let go of the old frame first: unless a reader or the
                // undo log still holds it, the pool recycles it.
                drop(prior);
                buffer.install(id, frame, false);
                Ok(())
            }
            Err(e) => {
                // Restore the pre-image: a failed write (torn or
                // otherwise) must not change observable state. If the
                // device refuses that too, the recorded checksum still
                // describes the prior content, so the page fails closed.
                let _ = core.backend.restore(id, prior.bytes());
                buffer.invalidate(id);
                Err(e)
            }
        }
    }

    /// Append `pages` as consecutive new pages and return the first id:
    /// what [`PageStore::allocate`] and [`PageStore::write`] do for each
    /// page, with one backend transfer and one read-back for the whole
    /// run where the backend can ([`PageBackend::append_run`]).
    ///
    /// Each page gets exactly what `write` gives it: the owner's
    /// validator passes it before anything is touched, it is read back
    /// and compared byte for byte, its checksum is recorded, it counts as
    /// one write, and it is installed write-through, uncounted. A new
    /// page has no pre-image to restore: a failed attempt is retried from
    /// the store's length before the run, and a final failure truncates
    /// back to that length, installs no frame and moves no write counter.
    /// Inside a transaction each page is logged as an allocation, so a
    /// rollback drops the run.
    pub fn append_run(&mut self, pages: &[[u8; PAGE_SIZE]]) -> Result<PageId, StorageError> {
        let Self {
            core,
            buffer,
            writes,
            retry,
            txn,
            validator,
            run_readback,
            ..
        } = self;
        let core = core_mut(core);
        let len = core.backend.num_pages();
        let first = PageId::try_from(len).map_err(|_| StorageError::OutOfPageIds)?;
        PageId::try_from(len + pages.len()).map_err(|_| StorageError::OutOfPageIds)?;
        let mut frames = Vec::with_capacity(pages.len());
        for (id, bytes) in (first..).zip(pages) {
            let mut frame = buffer.blank();
            *frame.bytes_mut() = *bytes;
            admit(*validator, id, &frame)?;
            frames.push(frame);
        }
        let appended = retry.run(&mut ReadProbe::new(), |_| {
            if core.backend.num_pages() != len {
                core.backend.truncate(len);
            }
            core.append(pages, run_readback)
        });
        if let Err(e) = appended {
            core.backend.truncate(len);
            return Err(e);
        }
        for (id, frame) in (first..).zip(frames) {
            core.sums.push(xxh64(frame.bytes()));
            if let Some(txn) = txn.as_mut() {
                txn.push(UndoOp::Appended);
            }
            buffer.install(id, frame, false);
        }
        // ordering: independent stat counter, read only for reporting.
        writes.fetch_add(pages.len() as u64, Ordering::Relaxed);
        Ok(first)
    }

    /// Flush the backend to durable storage, retrying transient faults.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        let Self { core, retry, .. } = self;
        let core = core_mut(core);
        retry.run(&mut ReadProbe::new(), |_| core.backend.sync())
    }

    // --- transactions -------------------------------------------------

    /// Start recording undo information for one multi-page update.
    /// Transactions do not nest: a failure in a larger unit of work
    /// (a pipeline commit) is undone by dropping the copy-on-write fork
    /// it ran on, not by an enclosing log.
    pub fn begin_txn(&mut self) {
        debug_assert!(self.txn.is_none(), "a transaction is already open");
        self.txn = Some(Vec::new());
    }

    /// Keep every change since [`PageStore::begin_txn`] and drop the
    /// undo log.
    pub fn commit_txn(&mut self) {
        self.txn = None;
    }

    /// Undo every `write`/`allocate` since [`PageStore::begin_txn`],
    /// in reverse order, then clear the buffer pool (residency and
    /// frames acquired during the transaction are no longer meaningful).
    /// Rollback restores pages off the books, bypassing fault injection:
    /// recovery must not re-enter the failure it is recovering from. It
    /// cannot fail either: a pre-image the device refuses to take back
    /// leaves a page that no longer matches its restored checksum, which
    /// fails closed on the next fetch.
    pub fn rollback_txn(&mut self) {
        let Some(txn) = self.txn.take() else {
            return;
        };
        let core = core_mut(&mut self.core);
        for op in txn.into_iter().rev() {
            match op {
                UndoOp::Image { id, bytes, sum } => {
                    let _ = core.backend.restore(id, bytes.bytes());
                    if let Some(slot) = core.sums.get_mut(id as usize) {
                        *slot = sum;
                    }
                }
                UndoOp::Appended => {
                    let len = core.backend.num_pages().saturating_sub(1);
                    core.backend.truncate(len);
                    core.sums.pop();
                }
            }
        }
        self.buffer.clear();
    }

    // --- inspection ---------------------------------------------------

    /// Inspect a page without touching the buffer pool or I/O counters,
    /// or `None` for an id the backend cannot produce.
    ///
    /// For integrity checkers and tooling only: unlike
    /// [`PageStore::read`], a `peek` is invisible to the paper's I/O
    /// accounting, so walking a whole index for validation does not
    /// perturb a measured query that follows. Returns an owned copy of
    /// the bytes at rest (write-through keeps them current), unverified.
    pub fn peek(&self, id: PageId) -> Option<Page> {
        self.core_read().page(id).ok()
    }

    /// Accumulated I/O counters. Reads and hits are the buffer pool's
    /// counters — the single source of truth shared with
    /// per-call [`ReadProbe`]s.
    pub fn stats(&self) -> IoStats {
        let counters = self.buffer.counters();
        IoStats {
            reads: counters.misses,
            // ordering: relaxed counter snapshot; stats are advisory.
            writes: self.writes.load(Ordering::Relaxed),
            buffer_hits: counters.hits,
        }
    }

    /// Accumulated failure-path counters since the last reset.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            // ordering: relaxed counter snapshots; stats are advisory.
            io_retries: self.retry.io_retries.load(Ordering::Relaxed),
            io_faults_injected: self
                .core_read()
                .backend
                .faults_injected()
                .saturating_sub(self.injected_at_reset.load(Ordering::Relaxed)),
            checksum_failures: self.retry.checksum_failures.load(Ordering::Relaxed),
        }
    }

    /// Zero the I/O and fault counters (start of a measured query
    /// batch). Shared: counters are atomics (and, for reads/hits, live
    /// inside the buffer pool), so an accounting reset needs no
    /// exclusive access — see [`PageStore::reset_buffer`] for the
    /// residency half, which does.
    pub fn reset_stats(&self) {
        self.buffer.reset_counters();
        // ordering: relaxed zeroing of independent stat counters; callers
        // quiesce queries around a reset, nothing synchronizes on these.
        self.writes.store(0, Ordering::Relaxed);
        self.retry.io_retries.store(0, Ordering::Relaxed);
        self.retry.checksum_failures.store(0, Ordering::Relaxed);
        self.injected_at_reset.store(
            self.core_read().backend.faults_injected(),
            Ordering::Relaxed,
        );
    }

    /// Empty the buffer pool (the paper resets it before every query).
    /// Residency and frames only: the accumulated counters are
    /// untouched.
    pub fn reset_buffer(&mut self) {
        self.buffer.clear();
    }

    /// Replace the buffer pool capacity (clears residency, keeps the
    /// accumulated counters).
    pub fn set_buffer_capacity(&mut self, capacity: usize) {
        self.buffer.set_capacity(capacity);
    }

    /// The save epoch this store was loaded at (0 for a fresh store);
    /// `persist::save` bumps it monotonically.
    pub fn epoch(&self) -> u64 {
        // ordering: the epoch stamps files, it publishes no memory.
        self.epoch.load(Ordering::Relaxed)
    }

    // --- persistence plumbing (see `crate::persist`) ------------------

    /// Restore the save epoch after loading / bump it when saving.
    pub(crate) fn set_epoch(&self, epoch: u64) {
        // ordering: the epoch stamps files, it publishes no memory.
        self.epoch.store(epoch, Ordering::Relaxed);
    }

    /// A page's bytes at rest with its *recorded* checksum (serialization
    /// reuses it instead of re-hashing, so bytes damaged at rest still
    /// fail the load).
    pub(crate) fn page_and_sum(&self, id: PageId) -> Result<(Page, u64), StorageError> {
        let core = self.core_read();
        Ok((core.page(id)?, core.sum(IoOp::Read, id)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::tests::{VecLru, XorShift};
    use crate::fault::{FaultKind, FaultPlan, FaultyBackend, ScheduledFault};

    /// Read discarding the per-call probe (the tests below assert on
    /// the global counters unless they are probing attribution itself).
    fn read(s: &PageStore, id: PageId) -> Result<Page, StorageError> {
        s.read(id, &mut ReadProbe::new())
    }

    #[test]
    fn allocate_read_write_round_trip() {
        let mut s = PageStore::new(4);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(s.num_pages(), 2);
        assert_eq!(s.bytes(), 2 * PAGE_SIZE);

        s.write(a, &[1, 2, 3]).unwrap();
        assert_eq!(&read(&s, a).unwrap().bytes()[..3], &[1, 2, 3]);
    }

    #[test]
    fn read_miss_then_hit_accounting() {
        let mut s = PageStore::new(2);
        let a = s.allocate().unwrap();
        s.reset_stats();
        s.reset_buffer();
        read(&s, a).unwrap(); // miss
        read(&s, a).unwrap(); // hit
        let st = s.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.buffer_hits, 1);
    }

    #[test]
    fn probe_mirrors_global_counters_exactly() {
        let mut s = PageStore::new(1);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.reset_stats();
        s.reset_buffer();
        let mut probe = ReadProbe::new();
        s.read(a, &mut probe).unwrap(); // miss
        s.read(a, &mut probe).unwrap(); // hit
        s.read(b, &mut probe).unwrap(); // miss, evicts a
        s.read(a, &mut probe).unwrap(); // miss
        assert_eq!(probe.disk_reads, 3);
        assert_eq!(probe.buffer_hits, 1);
        let st = s.stats();
        assert_eq!(st.reads, probe.disk_reads);
        assert_eq!(st.buffer_hits, probe.buffer_hits);
        assert_eq!(probe.io_retries, 0);
        assert_eq!(probe.checksum_failures, 0);
    }

    #[test]
    fn concurrent_probes_sum_to_the_global_delta() {
        let mut s = PageStore::new(4);
        let pages: Vec<PageId> = (0..8).map(|_| s.allocate().unwrap()).collect();
        for &p in &pages {
            s.write(p, &[p as u8]).unwrap();
        }
        s.reset_stats();
        s.reset_buffer();
        let store = &s;
        let pages = &pages;
        let probes: Vec<ReadProbe> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    scope.spawn(move || {
                        let mut probe = ReadProbe::new();
                        for round in 0..50u32 {
                            let p = pages[((t + round) % 8) as usize];
                            let page = store.read(p, &mut probe).unwrap();
                            assert_eq!(page.bytes()[0], p as u8, "torn read");
                        }
                        probe
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut total = ReadProbe::new();
        for p in &probes {
            total.merge(p);
        }
        let st = s.stats();
        assert_eq!(st.reads, total.disk_reads, "Σ probe reads == global");
        assert_eq!(st.buffer_hits, total.buffer_hits, "Σ probe hits == global");
        assert_eq!(st.reads + st.buffer_hits, 4 * 50, "every access accounted");
    }

    #[test]
    fn buffer_reset_makes_reads_cost_again() {
        let mut s = PageStore::new(2);
        let a = s.allocate().unwrap();
        read(&s, a).unwrap();
        s.reset_stats();
        s.reset_buffer();
        read(&s, a).unwrap();
        assert_eq!(s.stats().reads, 1);
    }

    #[test]
    fn write_is_write_through() {
        let mut s = PageStore::new(2);
        let a = s.allocate().unwrap();
        s.reset_stats();
        s.write(a, &[7]).unwrap();
        read(&s, a).unwrap(); // should hit: write populated the buffer
        let st = s.stats();
        assert_eq!(st.writes, 1);
        assert_eq!(st.reads, 0);
        assert_eq!(st.buffer_hits, 1);
    }

    /// Regression pin for the write-accounting decision: writes always
    /// cost one disk write each (resident or not), never a buffer hit;
    /// they warm the buffer for subsequent reads; and read accounting is
    /// unaffected. The exact counters for this scripted sequence are the
    /// contract — if they drift, the paper's figures drift with them.
    #[test]
    fn scripted_sequence_counts_are_pinned() {
        let mut s = PageStore::new(2);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        let c = s.allocate().unwrap();
        s.reset_stats();
        s.reset_buffer();

        s.write(a, &[1]).unwrap(); // writes=1, buffer: [a]
        s.write(a, &[2]).unwrap(); // resident: writes=2, still one write each
        read(&s, a).unwrap(); //       hit:          hits=1
        read(&s, b).unwrap(); //       miss:         reads=1, buffer: [b, a]
        s.write(c, &[3]).unwrap(); // miss-install: writes=3, evicts a → [c, b]
        read(&s, a).unwrap(); //       miss:         reads=2, evicts b → [a, c]
        read(&s, c).unwrap(); //       hit:          hits=2
        s.write(b, &[4]).unwrap(); // writes=4, evicts a → [b, c]
        read(&s, b).unwrap(); //       hit:          hits=3

        assert_eq!(
            s.stats(),
            IoStats {
                reads: 2,
                writes: 4,
                buffer_hits: 3,
            }
        );
        assert_eq!(s.fault_stats(), FaultStats::default());
    }

    #[test]
    fn eviction_under_pressure() {
        let mut s = PageStore::new(1);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.reset_stats();
        read(&s, a).unwrap();
        read(&s, b).unwrap(); // evicts a
        read(&s, a).unwrap(); // miss again
        assert_eq!(s.stats().reads, 3);
        assert_eq!(s.stats().buffer_hits, 0);
    }

    #[test]
    fn unallocated_access_is_a_typed_error() {
        let mut s = PageStore::new(2);
        assert!(matches!(
            read(&s, 0),
            Err(StorageError::Unallocated { page: 0, .. })
        ));
        assert!(matches!(
            s.write(5, &[1]),
            Err(StorageError::Unallocated { page: 5, .. })
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_without_touching_state() {
        let mut s = PageStore::new(2);
        let a = s.allocate().unwrap();
        s.write(a, &[3; 10]).unwrap();
        s.reset_stats();
        let big = vec![1u8; PAGE_SIZE + 1];
        assert_eq!(
            s.write(a, &big),
            Err(StorageError::PayloadTooLarge { len: PAGE_SIZE + 1 })
        );
        assert_eq!(s.stats().writes, 0);
        assert_eq!(&read(&s, a).unwrap().bytes()[..10], &[3; 10]);
    }

    #[test]
    fn stats_total() {
        let st = IoStats {
            reads: 3,
            writes: 4,
            buffer_hits: 9,
        };
        assert_eq!(st.total(), 7);
    }

    // --- retry and fault behaviour ------------------------------------

    fn faulty_store(plan: FaultPlan) -> PageStore {
        PageStore::with_backend(Box::new(FaultyBackend::new_mem(plan)), 4)
    }

    #[test]
    fn transient_fault_is_retried_and_counted() {
        // Op 0 is the allocate; op 1 the write (faulted, transient,
        // retried as op 2 and succeeds).
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 1,
            kind: FaultKind::Fail { transient: true },
        }]);
        let mut s = faulty_store(plan);
        let a = s.allocate().unwrap();
        s.write(a, &[5]).unwrap();
        assert_eq!(&read(&s, a).unwrap().bytes()[..1], &[5]);
        let fs = s.fault_stats();
        assert_eq!(fs.io_retries, 1, "one transient fault, one retry");
        assert_eq!(fs.io_faults_injected, 1);
    }

    #[test]
    fn permanent_fault_returns_original_error_unchanged() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 1,
            kind: FaultKind::Fail { transient: false },
        }]);
        let mut s = faulty_store(plan);
        let a = s.allocate().unwrap();
        let err = s.write(a, &[1]).unwrap_err();
        assert_eq!(
            err,
            StorageError::Injected {
                op: IoOp::Write,
                page: Some(a),
                transient: false,
            }
        );
        assert_eq!(s.fault_stats().io_retries, 0, "permanent: no retry");
        // State unchanged: the page still reads back zeroed.
        assert!(read(&s, a).unwrap().bytes().iter().all(|&x| x == 0));
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_transient_error() {
        // Three consecutive transient faults exceed MAX_ATTEMPTS = 3's
        // two retries: ops 1, 2, 3 all fail.
        let plan = FaultPlan::new(
            (1..=3)
                .map(|at_op| ScheduledFault {
                    at_op,
                    kind: FaultKind::Fail { transient: true },
                })
                .collect(),
        );
        let mut s = faulty_store(plan);
        let a = s.allocate().unwrap();
        let err = s.write(a, &[1]).unwrap_err();
        assert!(err.is_transient(), "the original transient error surfaces");
        assert_eq!(s.fault_stats().io_retries, 2, "budget of 3 attempts");
    }

    #[test]
    fn torn_write_is_rolled_back_to_the_prior_content() {
        // Op 0 allocate, op 1 the good write, op 2 the torn write.
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 2,
            kind: FaultKind::TornWrite { keep_bytes: 3 },
        }]);
        let mut s = faulty_store(plan);
        let a = s.allocate().unwrap();
        s.write(a, &[7; 8]).unwrap();
        let err = s.write(a, &[9; 8]).unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(
            &read(&s, a).unwrap().bytes()[..8],
            &[7; 8],
            "torn write rolled back"
        );
        assert_eq!(s.fault_stats().io_faults_injected, 1);
    }

    #[test]
    fn read_bit_flip_heals_via_retry_and_counts_checksum_failure() {
        // Op 0 allocate, op 1 write, op 2 the read transfer (flipped).
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 2,
            kind: FaultKind::BitFlip { byte: 0, bit: 0 },
        }]);
        let mut s = faulty_store(plan);
        let a = s.allocate().unwrap();
        s.write(a, &[0b10]).unwrap();
        s.reset_buffer();
        s.reset_stats();
        let mut probe = ReadProbe::new();
        let got = s.read(a, &mut probe).unwrap().bytes()[0];
        assert_eq!(got, 0b10, "retry re-fetched the clean page");
        let fs = s.fault_stats();
        assert_eq!(fs.checksum_failures, 1);
        assert_eq!(fs.io_retries, 1);
        assert_eq!(s.stats().reads, 1, "one logical read despite the retry");
        // The probe attributes the whole failure path to this call.
        assert_eq!(probe.disk_reads, 1);
        assert_eq!(probe.io_retries, 1);
        assert_eq!(probe.checksum_failures, 1);
        assert_eq!(probe.io_faults_injected, 1);
    }

    #[test]
    fn write_bit_flip_is_caught_and_healed_by_rewrite() {
        // Op 0 allocate, op 1 the flipped write; the verify catches it
        // and the retry rewrites cleanly.
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 1,
            kind: FaultKind::BitFlip { byte: 0, bit: 3 },
        }]);
        let mut s = faulty_store(plan);
        let a = s.allocate().unwrap();
        s.write(a, &[1]).unwrap();
        assert_eq!(read(&s, a).unwrap().bytes()[0], 1, "flip did not stick");
        let fs = s.fault_stats();
        assert_eq!(fs.checksum_failures, 1);
        assert_eq!(fs.io_retries, 1);
    }

    /// A device that acknowledges every write, torn or not: what the
    /// wrapped injector tears still lands, but its error never reaches
    /// the store.
    #[derive(Debug, Clone)]
    struct AcksTornWrites(FaultyBackend);

    impl PageBackend for AcksTornWrites {
        fn num_pages(&self) -> usize {
            self.0.num_pages()
        }
        fn read_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
            self.0.read_into(id, buf)
        }
        fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
            let _ = self.0.write(id, payload);
            Ok(())
        }
        fn allocate(&mut self) -> Result<PageId, StorageError> {
            self.0.allocate()
        }
        fn truncate(&mut self, len: usize) {
            self.0.truncate(len);
        }
        fn sync(&mut self) -> Result<(), StorageError> {
            self.0.sync()
        }
        fn peek_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
            self.0.peek_into(id, buf)
        }
        fn restore(&mut self, id: PageId, bytes: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
            self.0.restore(id, bytes)
        }
        fn faults_injected(&self) -> u64 {
            self.0.faults_injected()
        }
        fn clone_box(&self) -> Box<dyn PageBackend> {
            Box::new(self.clone())
        }
    }

    /// What the damaged-write sweep damages: a `write` over a page, or
    /// an `append_run` of [`RUN`] new pages, damaged in its page `page`.
    #[derive(Debug, Clone, Copy)]
    enum Damaged {
        Write,
        Run { page: usize },
    }

    const RUN: usize = 2;

    /// Damage on the write side of a transfer, wherever in the page it
    /// lands — every byte offset of a short payload's page, its
    /// zero-padded tail included, every byte offset of either page of a
    /// run, and torn writes the device acknowledged — is caught by the
    /// read-back (one for the whole run): each attempt surfaces as
    /// `Corrupt { Checksum }` naming the damaged page, counts as a
    /// checksum failure and is retried. Damage on one attempt is healed
    /// by the next; damage on every attempt fails the operation, which
    /// leaves the write's pre-image, or no page past the run's start, no
    /// frame and no write.
    #[test]
    fn every_damaged_write_is_caught_retried_and_undone() {
        const LEN: usize = 100;
        let payload: Vec<u8> = (0..LEN as u8).map(|i| i | 0x80).collect();
        let mut intended = [0u8; PAGE_SIZE];
        intended[..LEN].copy_from_slice(&payload);
        let mut run = [intended; RUN];
        run[1][0] = 0x7F;
        let pre_image = [0xA5u8; PAGE_SIZE];
        // Op 0 allocates, op 1 writes the pre-image; from op 2 on, each
        // attempt of a write is one op, and each attempt of a run an
        // allocate and a write per page.
        let op = |target: Damaged, attempt: u64| match target {
            Damaged::Write => 2 + attempt,
            Damaged::Run { page } => 2 + attempt * 2 * RUN as u64 + 2 * page as u64 + 1,
        };
        let damage_by = |target: Damaged, kind: FaultKind| {
            (0..=MAX_ATTEMPTS).map(move |damaged| {
                let faults = (0..u64::from(damaged))
                    .map(|i| ScheduledFault {
                        at_op: op(target, i),
                        kind,
                    })
                    .collect();
                (target, kind, damaged, FaultPlan::new(faults))
            })
        };
        let flip = |offset: usize| FaultKind::BitFlip {
            byte: (offset % PAGE_SIZE) as u16,
            bit: (offset % 8) as u8,
        };
        let flips = (0..PAGE_SIZE).flat_map(|byte| damage_by(Damaged::Write, flip(byte)));
        let run_flips = (0..RUN * PAGE_SIZE).flat_map(|offset| {
            damage_by(
                Damaged::Run {
                    page: offset / PAGE_SIZE,
                },
                flip(offset),
            )
        });
        let targets = [
            Damaged::Write,
            Damaged::Run { page: 0 },
            Damaged::Run { page: 1 },
        ];
        let tears = [0, 1, 8, 57, LEN as u32 - 1]
            .into_iter()
            .flat_map(|keep_bytes| {
                targets
                    .into_iter()
                    .flat_map(move |target| damage_by(target, FaultKind::TornWrite { keep_bytes }))
            });
        for (target, kind, damaged, plan) in flips.chain(run_flips).chain(tears) {
            let at = format!("{kind:?} on {target:?}, {damaged} of {MAX_ATTEMPTS} attempts");
            let device = AcksTornWrites(FaultyBackend::new_mem(plan));
            let mut s = PageStore::with_backend(Box::new(device), 4);
            let a = s.allocate().unwrap();
            s.write(a, &pre_image).unwrap();
            s.reset_stats();

            let failed = damaged == MAX_ATTEMPTS;
            let (outcome, first, bad_page) = match target {
                Damaged::Write => (s.write(a, &payload).map(|()| a), a, a),
                Damaged::Run { page } => (s.append_run(&run), a + 1, a + 1 + page as PageId),
            };
            let expected = if failed {
                Err(StorageError::Corrupt {
                    page: bad_page,
                    reason: CorruptReason::Checksum,
                })
            } else {
                Ok(first)
            };
            assert_eq!(outcome, expected, "{at}");
            let fs = s.fault_stats();
            assert_eq!(fs.checksum_failures, u64::from(damaged), "{at}");
            assert_eq!(
                fs.io_retries,
                u64::from(damaged.min(MAX_ATTEMPTS - 1)),
                "{at}"
            );
            let (writes, at_rest): (u64, Vec<&[u8; PAGE_SIZE]>) = match (target, failed) {
                (_, true) => (0, vec![&pre_image]),
                (Damaged::Write, false) => (1, vec![&intended]),
                (Damaged::Run { .. }, false) => {
                    (RUN as u64, [&pre_image].into_iter().chain(&run).collect())
                }
            };
            assert_eq!(s.stats().writes, writes, "{at}");
            if failed {
                let mut run_ids = a + 1..=a + RUN as PageId;
                assert!(
                    run_ids.all(|id| s.buffer.peek(id).is_none()),
                    "{at}: no frame"
                );
            }
            assert_eq!(
                s.num_pages(),
                at_rest.len(),
                "{at}: no page past the run's start"
            );
            for (id, bytes) in (a..).zip(at_rest) {
                assert!(
                    s.peek(id).unwrap().bytes() == bytes,
                    "{at}: page {id} at rest"
                );
                assert!(
                    read(&s, id).unwrap().bytes() == bytes,
                    "{at}: page {id} fetched"
                );
            }
        }
    }

    /// A run lands like the pages `allocate` + `write` would have made
    /// one by one: same ids, same bytes, same checksums, same counters,
    /// on memory and on a file. A page the validator refuses stops the
    /// run before anything is touched, and a rolled-back transaction
    /// drops it.
    #[test]
    fn a_run_is_the_pages_written_one_by_one() {
        let path = std::env::temp_dir().join(format!("sti-run-{}.pages", std::process::id()));
        let mut run = [[0u8; PAGE_SIZE]; 5];
        for (i, page) in run.iter_mut().enumerate() {
            page[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
        }
        for on_file in [false, true] {
            let backend: Box<dyn PageBackend> = if on_file {
                Box::new(crate::FileBackend::create(&path).unwrap())
            } else {
                Box::new(MemBackend::new())
            };
            let mut one_by_one = PageStore::new(8);
            one_by_one.allocate().unwrap();
            for page in &run {
                let id = one_by_one.allocate().unwrap();
                one_by_one.write(id, page).unwrap();
            }
            let mut s = PageStore::with_backend(backend, 8);
            s.set_validator(starts_sane);
            s.allocate().unwrap();
            assert_eq!(s.append_run(&run), Ok(1), "file {on_file}");
            assert_eq!(s.stats(), one_by_one.stats(), "file {on_file}");
            for id in 0..6 {
                let (got, want) = (s.page_and_sum(id), one_by_one.page_and_sum(id));
                assert_eq!(got.unwrap(), want.unwrap(), "file {on_file}, page {id}");
            }

            let mut refused = run;
            refused[3][0] = 0xFF;
            let before = (s.stats(), s.num_pages());
            assert_eq!(
                s.append_run(&refused),
                Err(StorageError::Corrupt {
                    page: 9,
                    reason: CorruptReason::Decode
                })
            );
            assert_eq!((s.stats(), s.num_pages()), before, "file {on_file}");

            s.begin_txn();
            assert_eq!(s.append_run(&run[..2]), Ok(6));
            s.rollback_txn();
            assert_eq!(s.num_pages(), 6, "file {on_file}: rollback drops the run");
            assert_eq!(s.append_run(&run[..1]), Ok(6), "file {on_file}");
            drop(s);
            if on_file {
                let len = std::fs::metadata(&path).unwrap().len();
                assert_eq!(len, 7 * PAGE_SIZE as u64, "the file holds every page");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    // --- transactions -------------------------------------------------

    #[test]
    fn rollback_restores_writes_and_allocations() {
        let mut s = PageStore::new(4);
        let a = s.allocate().unwrap();
        let b = s.allocate().unwrap();
        s.write(a, &[1; 4]).unwrap();
        s.write(b, &[2; 4]).unwrap();

        s.begin_txn();
        s.write(a, &[9; 4]).unwrap();
        let c = s.allocate().unwrap();
        s.write(c, &[8; 4]).unwrap();
        let d = s.allocate().unwrap();
        assert_eq!((c, d), (2, 3), "allocation only appends");
        s.rollback_txn();

        assert_eq!(s.num_pages(), 2, "appended pages gone");
        assert_eq!(&read(&s, a).unwrap().bytes()[..4], &[1; 4], "write undone");
        assert_eq!(&read(&s, b).unwrap().bytes()[..4], &[2; 4]);
        assert_eq!(s.allocate().unwrap(), 2, "the next page appends again");
        assert!(s.txn.is_none());
    }

    #[test]
    fn commit_keeps_changes_and_drops_the_log() {
        let mut s = PageStore::new(4);
        let a = s.allocate().unwrap();
        s.begin_txn();
        s.write(a, &[5]).unwrap();
        s.commit_txn();
        assert!(s.txn.is_none());
        assert_eq!(read(&s, a).unwrap().bytes()[0], 5);
        s.rollback_txn(); // no-op outside a txn
        assert_eq!(read(&s, a).unwrap().bytes()[0], 5);
    }

    #[test]
    fn with_backend_adopts_existing_pages_and_checksums() {
        let mut m = MemBackend::new();
        let id = m.allocate().unwrap();
        m.write(id, &[4; 4]).unwrap();
        let s = PageStore::with_backend(Box::new(m), 4);
        assert_eq!(s.num_pages(), 1);
        assert_eq!(&read(&s, id).unwrap().bytes()[..4], &[4; 4]);
        assert_eq!(s.fault_stats().checksum_failures, 0);
    }

    // --- the pool invariant ------------------------------------------

    /// A toy owner: a page is one of its own unless it starts with 0xFF.
    fn starts_sane(page: &Page) -> bool {
        page.bytes()[0] != 0xFF
    }

    const BAD: PageId = 3;

    /// Eight pages holding their own id, or `0xFF` at [`BAD`].
    fn pages_with(bad: bool) -> Box<MemBackend> {
        let mut m = MemBackend::new();
        for i in 0..8u8 {
            let id = m.allocate().unwrap();
            let first = if bad && id == BAD { 0xFF } else { i };
            m.write(id, &[first; 16]).unwrap();
        }
        Box::new(m)
    }

    fn guarded(backend: Box<dyn PageBackend>, capacity: usize) -> PageStore {
        let mut s = PageStore::with_backend(backend, capacity);
        s.set_validator(starts_sane);
        s
    }

    /// No resident frame fails the validator, and a fetch of [`BAD`]
    /// is refused at every touch without a count or a frame.
    fn assert_refused_and_pool_clean(s: &PageStore, route: &str) {
        let before = s.stats();
        for _ in 0..2 {
            let mut probe = ReadProbe::new();
            assert_eq!(
                s.read(BAD, &mut probe),
                Err(StorageError::Corrupt {
                    page: BAD,
                    reason: CorruptReason::Decode
                }),
                "{route}"
            );
            assert_eq!(
                probe,
                ReadProbe::new(),
                "{route}: a refused fetch counts nothing"
            );
        }
        assert_eq!(s.stats(), before, "{route}");
        for id in 0..8 {
            assert!(
                s.buffer.peek(id).is_none_or(|f| starts_sane(&f)),
                "{route}: page {id}"
            );
        }
    }

    /// Every road by which bytes reach a slot, against a validator: the
    /// two installs check, and no other road installs.
    #[test]
    fn no_route_into_the_pool_skips_the_validator() {
        for capacity in [0, 1, 64] {
            let at = |route: &str| format!("{route}, capacity {capacity}");

            // A write the validator rejects: refused whole, and a pin
            // taken before it still reads what it pinned.
            let mut s = guarded(pages_with(false), capacity);
            let pinned = read(&s, BAD).unwrap();
            let before = (s.stats(), s.peek(BAD).unwrap());
            s.begin_txn();
            assert_eq!(
                s.write(BAD, &[0xFF; 16]),
                Err(StorageError::Corrupt {
                    page: BAD,
                    reason: CorruptReason::Decode
                })
            );
            assert!(
                s.txn.as_ref().is_some_and(Vec::is_empty),
                "{}",
                at("write: nothing to undo")
            );
            s.commit_txn();
            assert_eq!((s.stats(), s.peek(BAD).unwrap()), before, "{}", at("write"));
            assert_eq!(read(&s, BAD).unwrap(), pinned, "{}", at("write"));

            // Damage at rest under a store that wrote the page itself:
            // the checksum is the guard, and a warm pool never looks.
            let mut s = guarded(pages_with(false), capacity);
            let pinned = read(&s, BAD).unwrap();
            core_mut(&mut s.core)
                .backend
                .write(BAD, &[0xFF; 16])
                .unwrap();
            match read(&s, BAD) {
                Ok(frame) => assert!(capacity > 0 && frame == pinned, "{}", at("at rest")),
                Err(e) => assert_eq!(
                    e,
                    StorageError::Corrupt {
                        page: BAD,
                        reason: CorruptReason::Checksum
                    }
                ),
            }
            assert_eq!(pinned.bytes()[0], 3, "{}", at("at rest: the pin"));

            // Adopted from a backend: the recorded checksum matches the
            // malformed bytes, so only the fetch install stands guard.
            let mut s = guarded(pages_with(true), capacity);
            assert_refused_and_pool_clean(&s, &at("adopted"));

            // A rolled-back transaction puts the malformed pre-image
            // back at rest, and no frame with it.
            s.begin_txn();
            s.write(BAD, &[7; 16]).unwrap();
            let overwritten = read(&s, BAD).unwrap();
            s.rollback_txn();
            assert_refused_and_pool_clean(&s, &at("rolled back"));
            assert_eq!(overwritten.bytes()[0], 7, "{}", at("rolled back: the pin"));

            // Loaded from a saved image, which carries the page and a
            // checksum that matches it.
            let path = std::env::temp_dir().join(format!(
                "sti-pool-invariant-{}-{capacity}.idx",
                std::process::id()
            ));
            PageStore::with_backend(pages_with(true), capacity)
                .save_to(&path, b"meta")
                .unwrap();
            let (mut s, _) = PageStore::load_from(&path, capacity).unwrap();
            std::fs::remove_file(&path).ok();
            // Unguarded, the page is opaque bytes and becomes resident…
            assert_eq!(read(&s, BAD).unwrap().bytes()[0], 0xFF);
            // …until the owner arrives: unchecked frames are dropped.
            s.set_validator(starts_sane);
            assert_refused_and_pool_clean(&s, &at("loaded"));
            assert_eq!(read(&s, 5).unwrap().bytes()[0], 5, "{}", at("loaded"));
        }
    }

    /// Seeded interleavings of every operation that touches a frame,
    /// against a flat model of the page bytes and the reference LRU:
    /// every read returns the model's bytes, and hits and misses fall
    /// exactly where a pool that tracked residency alone would put
    /// them — at every capacity, over memory and over a file, with
    /// faults firing underneath.
    #[test]
    fn frames_stay_coherent_and_accounting_matches_the_reference_lru() {
        let dir = std::env::temp_dir();
        // Two cases per capacity and medium: the case number seeds the
        // fault plan and the operation trace.
        for case in 0..16usize {
            let (capacity, on_file) = ([0usize, 1, 10, 256][case / 4], case % 2 == 1);
            let path = dir.join(format!("sti-coherence-{}-{case}.pages", std::process::id()));
            let inner: Box<dyn PageBackend> = if on_file {
                Box::new(crate::FileBackend::create(&path).unwrap())
            } else {
                Box::new(MemBackend::new())
            };
            let plan = FaultPlan::seeded(case as u64, 4_000, 80);
            let mut s =
                PageStore::with_backend(Box::new(FaultyBackend::new(inner, plan)), capacity);
            let mut capacity = capacity;
            let mut reference = VecLru::new(capacity);
            // The model: committed bytes per page, and the copy of it a
            // rollback returns to.
            let mut pages: Vec<[u8; PAGE_SIZE]> = Vec::new();
            let mut at_begin = None;
            let mut rng = XorShift(0xc0ffee + case as u64);
            // Only the injector may fail an operation; damage in flight
            // or at rest is healed by the retry.
            let injected =
                |e: StorageError| assert!(matches!(e, StorageError::Injected { .. }), "{e}");
            for step in 0..3_000 {
                let at = format!("case {case} (cap {capacity}, file {on_file}) step {step}");
                let roll = rng.next() % 1000;
                let id = (rng.next() % (pages.len() as u64 + 1)) as PageId;
                let live = (id as usize) < pages.len();
                if roll < 40 {
                    match s.allocate() {
                        Ok(got) => {
                            assert_eq!(got as usize, pages.len(), "{at}");
                            pages.push([0; PAGE_SIZE]);
                        }
                        Err(e) => injected(e),
                    }
                } else if roll < 350 && live {
                    let mut bytes = [0u8; PAGE_SIZE];
                    let len = (rng.next() % PAGE_SIZE as u64) as usize;
                    bytes[..len].fill(step as u8 | 1);
                    match s.write(id, &bytes[..len]) {
                        Ok(()) => {
                            pages[id as usize] = bytes;
                            reference.access(id);
                        }
                        // A failed write leaves the old bytes and no frame.
                        Err(e) => {
                            injected(e);
                            reference.resident.retain(|&k| k != id);
                        }
                    }
                } else if roll < 900 && live {
                    let mut probe = ReadProbe::new();
                    match s.read(id, &mut probe) {
                        Ok(got) => {
                            assert!(got.bytes() == &pages[id as usize], "{at}: stale bytes");
                            let hit = reference.access(id);
                            assert_eq!(
                                (probe.buffer_hits, probe.disk_reads),
                                (u64::from(hit), u64::from(!hit)),
                                "{at}: page {id}"
                            );
                        }
                        // A failed fetch leaves no frame and no count.
                        Err(e) => {
                            injected(e);
                            assert_eq!((probe.buffer_hits, probe.disk_reads), (0, 0), "{at}");
                        }
                    }
                } else if roll < 950 && at_begin.is_none() {
                    s.begin_txn();
                    at_begin = Some(pages.clone());
                } else if roll < 980 {
                    if let Some(snapshot) = at_begin.take() {
                        if roll < 960 {
                            s.commit_txn();
                        } else {
                            s.rollback_txn();
                            pages = snapshot;
                            reference = VecLru::new(capacity);
                        }
                    }
                } else if roll < 985 {
                    s.reset_buffer();
                    reference = VecLru::new(capacity);
                } else if roll < 990 {
                    capacity = [0, 1, 10, 256][(rng.next() % 4) as usize];
                    s.set_buffer_capacity(capacity);
                    reference = VecLru::new(capacity);
                }
                assert!(s.buffer.frames() <= capacity + 1, "{at}: at most one spare");
            }
            let st = s.stats();
            assert!(
                st.reads > 0 && (capacity == 0 || st.buffer_hits > 0),
                "case {case}"
            );
            assert!(
                s.fault_stats().io_faults_injected > 0,
                "case {case}: no fault fired"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    /// Memory follows the pool, not the file: every page of a file many
    /// times the pool's size goes through it, and it never holds more
    /// frames than its capacity (plus the one recycled spare).
    #[test]
    fn a_small_pool_reads_a_large_file_in_bounded_frames() {
        let mut path = std::env::temp_dir();
        path.push(format!("sti-bounded-{}.pages", std::process::id()));
        {
            let mut s =
                PageStore::with_backend(Box::new(crate::FileBackend::create(&path).unwrap()), 8);
            for i in 0..200u32 {
                let id = s.allocate().unwrap();
                s.write(id, &i.to_le_bytes()).unwrap();
            }
            s.sync().unwrap();
        }
        let reopened = crate::FileBackend::open(&path).unwrap();
        let s = PageStore::with_backend(Box::new(reopened), 8);
        assert_eq!(s.buffer.frames(), 0, "opening reads nothing into the pool");
        for round in 0..2 {
            for i in 0..200u32 {
                assert_eq!(&read(&s, i).unwrap().bytes()[..4], &i.to_le_bytes());
                assert!(s.buffer.frames() <= 8 + 1, "round {round}, page {i}");
            }
        }
        assert_eq!(
            s.stats().reads,
            400,
            "a scan larger than the pool never hits"
        );
        std::fs::remove_file(&path).ok();
    }
}
