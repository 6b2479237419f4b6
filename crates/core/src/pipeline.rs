//! The single-writer/multi-reader live-ingestion pipeline: the one
//! front-end that turns a stream of position updates into a queryable
//! PPR-Tree (the on-line problem of the paper's §VII).
//!
//! Streaming into *one* tree would put every reader behind the same
//! `&mut` choke point as the writer. This module removes that coupling
//! by publishing copy-on-write versions, built from three parts:
//!
//! * a FIFO of [`IngestOp`]s — producers enqueue position updates and
//!   disappearances without touching any tree,
//! * a committer ([`IngestPipeline::commit`]) that drains the queue,
//!   validates operations through the [`OnlineSplitter`] (malformed
//!   streams surface as typed rejects, never panics), reorders closed
//!   pieces under the watermark, forks the published tree and applies
//!   the finalized batch to the **private** fork, once,
//! * an atomically published [`PublishedIndex`] — on success the fork
//!   is frozen behind an `Arc` and swapped into the shared slot with a
//!   bumped [`VersionStamp`]; readers that grabbed the old `Arc` keep
//!   reading the old version undisturbed, new readers see the new one.
//!   Readers never lock anything the writer holds during page work.
//!
//! A fork ([`PprTree::clone`]) copies one page pointer and one checksum
//! per page, plus the buffer pool's frame handles; the bytes stay
//! shared. Pages are copy-on-write `Arc`s, so the first write to a page
//! the fork still shares with an older version copies that page alone
//! ([`CommitReport::pages_copied`]): a batch costs the pages it
//! touches, not the tree. Pages the batch does not touch stay shared
//! with every older version, and a displaced page is freed when the
//! last version holding it is dropped — memory is one tree plus the
//! pages a pinned old version still holds on its own. Each version has
//! its own pool (the fork's starts with its parent's frames), so a
//! version's I/O counters count only its own reads and the committer's
//! page work never evicts a reader's frames.
//!
//! Before pages were copy-on-write, a fork meant copying every page, so
//! the pipeline kept two trees instead (left-right publication): each
//! batch went into the standby tree, which was then published, and was
//! replayed into the retired tree once its readers let go — every event
//! applied twice. DESIGN.md §11 keeps that design's numbers.
//!
//! A storage fault mid-commit drops the fork: the published version was
//! never touched, the finalized events stay pending, and the next
//! [`IngestPipeline::commit`] retries them on a fresh fork. Dropping the
//! fork is the commit's only undo; the store's transaction spans one
//! update, never the batch. Every batch walks the explicit
//! [`BatchState`] machine in [`crate::version`] and reports the
//! traversal in its [`CommitReport::trace`], which the property suite
//! replays against the pure [`transition`] function.

use crate::online::{Ev, ObserveError, OnlineError, OnlineSplitConfig, OnlineSplitter};
use crate::plan::{apply_events, RecordEvent};
use crate::recover::{
    decode_op, encode_op, idx_path, meta_path, prune_below, scan_generations, CheckpointMeta,
    CheckpointReport, CrashPoint, Durability, DurabilityError, RecoverError, RecoveryReport,
};
use crate::version::{transition, BatchEvent, BatchState, PublishedIndex, VersionStamp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use sti_geom::{Rect2, Time};
use sti_obs::MetricSet;
use sti_pprtree::{PprParams, PprTree, Update};
use sti_storage::{LeafMutex, MemBackend, PageBackend, StorageError, Wal, WalConfig, WalStats};

/// One queued ingest operation, mirroring the [`OnlineSplitter`] calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IngestOp {
    /// Object `id` occupies `rect` during instant `t`.
    Update {
        /// Object id.
        id: u64,
        /// Position during the instant.
        rect: Rect2,
        /// The observed instant.
        t: Time,
    },
    /// Object `id` disappears; `end` is one past its last observation.
    Finish {
        /// Object id.
        id: u64,
        /// Half-open lifetime end.
        end: Time,
    },
}

/// An operation the committer refused, with the typed reason. The
/// splitter state is untouched by a rejected operation (the satellite
/// guarantee of [`OnlineSplitter::observe`]), so one malformed producer
/// cannot poison the batch of a well-behaved one.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedOp {
    /// The operation as it was queued.
    pub op: IngestOp,
    /// Why it was refused.
    pub error: OnlineError,
}

/// What one [`IngestPipeline::commit`] call did.
#[derive(Debug)]
pub struct CommitReport {
    /// Where the batch ended: [`BatchState::Published`] on success,
    /// [`BatchState::RolledBack`] on a storage fault, or
    /// [`BatchState::Queued`] when nothing was *finalized* — drained
    /// operations may still have been absorbed into open pieces or the
    /// reordering buffer (`drained` and `rejected` record that work),
    /// but no event crossed the watermark and no version was published.
    pub state: BatchState,
    /// The published stamp after this call (unchanged unless `state`
    /// is `Published`).
    pub stamp: VersionStamp,
    /// Operations drained from the queue by this call.
    pub drained: usize,
    /// Operations refused with typed errors.
    pub rejected: Vec<RejectedOp>,
    /// Finalized events this batch tried to apply (0 for a pure
    /// watermark publish).
    pub batch_events: usize,
    /// Always 0: every event is applied once, to the fork being
    /// published. Kept for callers written when a second tree replayed
    /// each batch (see the module docs).
    pub lag_events: usize,
    /// Pages the batch copied because its fork still shared them with
    /// an older version — the cost a commit pays per page it touches.
    pub pages_copied: u64,
    /// Pages the batch wrote (its [`sti_storage::IoStats::writes`]
    /// delta). The batch is one [`PprTree::apply`], which writes each
    /// page whose bytes it changes exactly once, so this is the number
    /// of distinct pages the commit changed. A page is copied only by a
    /// write, so a batch that commits has `pages_copied ≤ pages_written`.
    pub pages_written: u64,
    /// The storage fault that rolled the batch back, if any.
    pub error: Option<StorageError>,
    /// Set only by [`IngestPipeline::seal`]: `true` when it gave up
    /// because a commit made no forward progress (nothing drained,
    /// finalized, rolled back, or published) while events were still
    /// pending — a diagnosable report instead of an infinite loop.
    pub stalled: bool,
    /// The durability failure that blocked or followed this commit, if
    /// any: a WAL sync error aborts the commit *before* any tree work
    /// (published state must never run ahead of the durable log), and
    /// an injected crash at the publish boundary lands here *after* a
    /// successful publish.
    pub durability: Option<DurabilityError>,
    /// Every [`BatchState`] the batch passed through, `Queued` first —
    /// the trace the property tests replay through [`transition`].
    pub trace: Vec<BatchState>,
}

impl CommitReport {
    /// A report of a call that drained, applied and hit nothing; each
    /// exit of `commit`/`seal` fills in what it actually did.
    fn empty(state: BatchState, stamp: VersionStamp, trace: Vec<BatchState>) -> Self {
        Self {
            state,
            stamp,
            drained: 0,
            rejected: Vec::new(),
            batch_events: 0,
            lag_events: 0,
            pages_copied: 0,
            pages_written: 0,
            error: None,
            stalled: false,
            durability: None,
            trace,
        }
    }
}

/// A cloneable, `Send + Sync` handle readers use to acquire the current
/// published version without touching the pipeline (or each other).
///
/// [`IngestReader::current`] is one mutex-protected pointer clone; the
/// mutex is held for nanoseconds and never while any page I/O runs, so
/// readers effectively coordinate with nothing. The returned
/// [`PublishedIndex`] is immutable — a reader can keep it across
/// commits and will simply (and consistently) see the old version.
#[derive(Debug, Clone)]
pub struct IngestReader {
    slot: Arc<LeafMutex<Arc<PublishedIndex>>>,
}

impl IngestReader {
    /// The currently published version.
    pub fn current(&self) -> Arc<PublishedIndex> {
        Arc::clone(&self.slot.lock())
    }
}

/// The single-writer side of the pipeline: owns the queue, the
/// splitter, the reordering buffer, and the published slot. See the
/// module docs for the full data flow; the external surface is
/// [`IngestPipeline::enqueue`] / [`IngestPipeline::commit`] /
/// [`IngestPipeline::reader`].
pub struct IngestPipeline {
    /// Operations awaiting the next commit, in arrival order. Producers
    /// only touch this; all tree work happens in the committer.
    queue: VecDeque<IngestOp>,
    splitter: OnlineSplitter,
    /// Closed pieces whose events are not yet below the watermark.
    reorder: BinaryHeap<Reverse<Ev>>,
    /// Finalized events (popped in order) awaiting a successful commit.
    pending: Vec<Ev>,
    /// Event sequence counter (orders equal-time events).
    seq: u64,
    /// The pipeline clock: largest accepted operation time.
    now: Time,
    slot: Arc<LeafMutex<Arc<PublishedIndex>>>,
    /// Successful commits (also the published version number).
    commits: u64,
    /// Batches undone by storage faults.
    rollbacks: u64,
    /// Operations refused with typed errors, ever.
    rejected_total: u64,
    /// Pages copied on write by every batch, rolled back or not.
    pages_copied: u64,
    /// Pages written by every batch, rolled back or not.
    pages_written: u64,
    /// Test hook: force [`IngestPipeline::seal`] to take its stalled
    /// exit (see [`IngestPipeline::wedge_seal_for_test`]).
    wedge_seal: bool,
    /// The durable half, when attached: WAL handle, retained
    /// checkpoints, crash-injection state (see [`crate::recover`]).
    durability: Option<Durability>,
}

impl IngestPipeline {
    /// A pipeline over an in-memory backend.
    pub fn new(config: OnlineSplitConfig, params: PprParams) -> Self {
        Self::with_backend(config, params, Box::new(MemBackend::new()))
    }

    /// A pipeline whose tree sits on `backend` — the fault suites pass
    /// a [`sti_storage::FaultyBackend`] here to storm the commit path.
    /// Every version is a fork of this one device; each owns a buffer
    /// pool of `params.buffer_pages`. Every commit clones the backend:
    /// a [`MemBackend`] (bare or under a fault injector) clones copy-on-
    /// write, while a [`sti_storage::FileBackend`] clone reads the whole
    /// file into memory.
    pub fn with_backend(
        config: OnlineSplitConfig,
        params: PprParams,
        backend: Box<dyn PageBackend>,
    ) -> Self {
        Self::publishing(
            OnlineSplitter::new(config),
            PublishedIndex::new(
                PprTree::with_backend(params, backend),
                VersionStamp::INITIAL,
            ),
        )
    }

    /// A pipeline with nothing queued, buffered or counted that
    /// publishes `published` — how fresh and recovered pipelines alike
    /// come to be.
    fn publishing(splitter: OnlineSplitter, published: PublishedIndex) -> Self {
        Self {
            queue: VecDeque::new(),
            splitter,
            reorder: BinaryHeap::new(),
            pending: Vec::new(),
            seq: 0,
            now: 0,
            slot: Arc::new(LeafMutex::new(Arc::new(published))),
            commits: 0,
            rollbacks: 0,
            rejected_total: 0,
            pages_copied: 0,
            pages_written: 0,
            wedge_seal: false,
            durability: None,
        }
    }

    /// Force the next [`IngestPipeline::seal`] to take its stalled exit
    /// even though the queue could drain, in the spirit of the storage
    /// layer's `SaveCrash` fault injection: the genuine stall — a
    /// reorder buffer that cannot drain — is unreachable from valid
    /// input by construction, but callers still must handle the
    /// [`CommitReport::stalled`] flag, and this hook lets tests pin
    /// that handling end-to-end with real queue-depth diagnostics.
    #[doc(hidden)]
    pub fn wedge_seal_for_test(&mut self) {
        self.wedge_seal = true;
    }

    /// Enqueue one operation (no validation happens here — the
    /// committer validates at drain time and reports typed rejects).
    pub fn enqueue(&mut self, op: IngestOp) {
        self.queue.push_back(op);
    }

    /// Convenience: enqueue an [`IngestOp::Update`].
    pub fn enqueue_update(&mut self, id: u64, rect: Rect2, t: Time) {
        self.enqueue(IngestOp::Update { id, rect, t });
    }

    /// Convenience: enqueue an [`IngestOp::Finish`].
    pub fn enqueue_finish(&mut self, id: u64, end: Time) {
        self.enqueue(IngestOp::Finish { id, end });
    }

    /// Operations waiting for the next commit.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Finalized-but-uncommitted events (nonzero after a rollback, or
    /// when a commit left events above the watermark).
    pub fn pending_events(&self) -> usize {
        self.pending.len() + self.reorder.len()
    }

    /// The pipeline clock (largest accepted operation time).
    pub fn now(&self) -> Time {
        self.now
    }

    /// A reader handle; clone it freely across threads.
    pub fn reader(&self) -> IngestReader {
        IngestReader {
            slot: Arc::clone(&self.slot),
        }
    }

    /// The currently published version (writer-side convenience).
    pub fn published(&self) -> Arc<PublishedIndex> {
        Arc::clone(&self.slot.lock())
    }

    /// Successful commits so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Rolled-back batches so far.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Export pipeline health as metrics: commit/rollback/reject
    /// counters, queue and reorder depths, the published version and
    /// watermark, and the commit lag (instants between the clock and
    /// the published watermark — how far behind live time a reader is).
    pub fn record_metrics(&self, set: &mut MetricSet) {
        let stamp = self.published().stamp();
        set.counter(
            "ingest_commits_total",
            "successful commits",
            self.commits as f64,
        );
        set.counter(
            "ingest_rollbacks_total",
            "batches undone by storage faults",
            self.rollbacks as f64,
        );
        set.counter(
            "ingest_rejected_ops_total",
            "operations refused with typed errors",
            self.rejected_total as f64,
        );
        set.counter(
            "ingest_splits_total",
            "artificial splits the online splitter issued",
            self.splitter.splits_issued() as f64,
        );
        set.counter(
            "ingest_objects_admitted_total",
            "objects whose first observation opened a piece; the split budget resolves against them",
            self.splitter.objects_admitted() as f64,
        );
        set.counter(
            "ingest_pages_copied_total",
            "pages commits copied on write because an older version still shared them",
            self.pages_copied as f64,
        );
        set.counter(
            "ingest_pages_written_total",
            "pages commits wrote, each because an update changed its bytes",
            self.pages_written as f64,
        );
        set.gauge(
            "ingest_queue_depth",
            "operations awaiting drain",
            self.queue.len() as f64,
        );
        set.gauge(
            "ingest_pending_events",
            "finalized or reordering events awaiting commit",
            self.pending_events() as f64,
        );
        set.gauge(
            "ingest_published_version",
            "version number of the published snapshot",
            stamp.version as f64,
        );
        set.gauge(
            "ingest_published_watermark",
            "first non-final instant of the published snapshot",
            f64::from(stamp.watermark),
        );
        set.gauge(
            "ingest_commit_lag_instants",
            "clock minus published watermark",
            f64::from(self.now.saturating_sub(stamp.watermark)),
        );
        if let Some(d) = &self.durability {
            let wal = d.wal.stats();
            set.counter(
                "wal_appends_total",
                "operations appended to the write-ahead log",
                wal.appends as f64,
            );
            set.counter(
                "wal_bytes_total",
                "bytes written to the write-ahead log",
                wal.bytes as f64,
            );
            set.counter(
                "wal_fsyncs_total",
                "fsync calls issued by the write-ahead log",
                wal.fsyncs as f64,
            );
            set.counter(
                "wal_segments_created_total",
                "log segments opened",
                wal.segments_created as f64,
            );
            set.counter(
                "wal_segments_deleted_total",
                "log segments reclaimed by checkpoints",
                wal.segments_deleted as f64,
            );
            set.gauge(
                "wal_segments",
                "log segments currently on disk",
                d.wal.segment_count() as f64,
            );
            set.gauge(
                "wal_next_lsn",
                "next log sequence number to be assigned",
                d.wal.next_lsn() as f64,
            );
            set.counter(
                "checkpoints_total",
                "checkpoints committed since attach or recovery",
                d.checkpoints_total as f64,
            );
        }
    }

    /// Drain the queue, validate, and commit one batch; on success the
    /// new version is atomically published. See the module docs for the
    /// full lifecycle and [`CommitReport`] for what comes back — this
    /// method returns `Ok` even when the batch rolls back (the report
    /// carries the fault), because a rolled-back batch is a *retryable*
    /// outcome, not a broken pipeline.
    ///
    /// Never blocks on a reader: the batch goes into a fork of the
    /// published version, and the one lock a commit shares with
    /// readers is the slot's, held for the pointer swap.
    pub fn commit(&mut self) -> CommitReport {
        self.commit_with(false)
    }

    /// [`IngestPipeline::commit`]; with `publish_unchanged`, a batch
    /// that finalizes nothing new is published all the same (the sealed
    /// version of [`IngestPipeline::seal`]).
    fn commit_with(&mut self, publish_unchanged: bool) -> CommitReport {
        let mut trace = vec![BatchState::Queued];
        let mut state = BatchState::Queued;

        // Durable prelude: everything this commit may publish must be
        // on disk first, whatever the fsync policy — a published
        // version must never run ahead of the durable log. A sync
        // failure (or an injected crash) aborts the commit before any
        // tree work; the queue and buffers are untouched and the next
        // commit retries.
        if let Some(d) = self.durability.as_mut() {
            let prelude = d
                .crash_check(CrashPoint::BeforeCommitSync)
                .and_then(|()| d.wal.sync().map_err(DurabilityError::from))
                .and_then(|()| d.crash_check(CrashPoint::AfterCommitSync));
            if let Err(e) = prelude {
                return CommitReport {
                    durability: Some(e),
                    ..CommitReport::empty(state, self.published().stamp(), trace)
                };
            }
        }

        // Drain + validate through the splitter (typed rejects).
        let drained = self.queue.len();
        let mut rejected = Vec::new();
        while let Some(op) = self.queue.pop_front() {
            if let Err(error) = self.absorb(op) {
                rejected.push(RejectedOp { op, error });
            }
        }
        self.rejected_total += rejected.len() as u64;

        // Finalize: everything strictly below the watermark is final.
        // With no open piece left there is no bound at all — every
        // buffered event is final (this is what lets `seal` flush the
        // deletes sitting exactly at the stream end).
        let flush_bound = self.splitter.watermark();
        while let Some(top) = self.reorder.peek() {
            if flush_bound.is_some_and(|w| top.0.time >= w) {
                break;
            }
            if let Some(Reverse(ev)) = self.reorder.pop() {
                self.pending.push(ev);
            }
        }
        let watermark = flush_bound.unwrap_or(self.now);

        let published = self.published();
        let stamp = published.stamp();
        if !publish_unchanged && self.pending.is_empty() && watermark == stamp.watermark {
            // Nothing finalized and no watermark motion: don't spin
            // version numbers on no-ops. Drained operations (if any)
            // were still absorbed into open pieces and the reordering
            // buffer above — `state: Queued` means "nothing published",
            // not "nothing happened".
            return CommitReport {
                drained,
                rejected,
                ..CommitReport::empty(state, stamp, trace)
            };
        }
        Self::step(&mut state, BatchEvent::Drain, &mut trace);

        // Fork the published version and apply the batch to the fork.
        let mut fork = published.tree().clone();
        drop(published);
        Self::step(&mut state, BatchEvent::Begin, &mut trace);
        let copied_before = fork.pages_copied();
        let written_before = fork.io_stats().writes;
        let batch_events = self.pending.len();
        let updates: Vec<Update> = self
            .pending
            .iter()
            .map(|ev| ev.kind.update(&ev.record, ev.time))
            .collect();
        let applied = apply_events(&mut fork, &updates);
        let pages_copied = fork.pages_copied() - copied_before;
        let pages_written = fork.io_stats().writes - written_before;
        self.pages_copied += pages_copied;
        self.pages_written += pages_written;

        let mut report = CommitReport {
            drained,
            rejected,
            batch_events,
            pages_copied,
            pages_written,
            ..CommitReport::empty(state, stamp, Vec::new())
        };
        match applied {
            Err(e) => {
                // The fork dies with the batch: the published version
                // never saw it, so there is nothing to restore.
                self.rollbacks += 1;
                Self::step(&mut state, BatchEvent::Fail, &mut trace);
                report.error = Some(e);
            }
            Ok(()) => {
                Self::step(&mut state, BatchEvent::Applied, &mut trace);
                self.commits += 1;
                self.pending.clear();
                report.stamp = VersionStamp {
                    version: stamp.version + 1,
                    watermark,
                };
                let fresh = Arc::new(PublishedIndex::new(fork, report.stamp));
                let retired = {
                    let mut slot = self.slot.lock();
                    std::mem::replace(&mut *slot, fresh)
                };
                // Outside the lock: if no reader pins it, the retired
                // version takes the pages only it still held with it.
                drop(retired);
                Self::step(&mut state, BatchEvent::Publish, &mut trace);
                // The publish boundary: an armed crash here models a
                // process dying with the new version already visible —
                // recovery must converge to this same published state.
                report.durability = self
                    .durability
                    .as_mut()
                    .and_then(|d| d.crash_check(CrashPoint::AfterPublish).err());
            }
        }
        report.state = state;
        report.trace = trace;
        report
    }

    /// Close every still-open piece (each at one past its last
    /// observation — stragglers whose last observation is behind the
    /// pipeline clock included), commit until nothing is pending, and
    /// publish the result: the sealed version, which covers the whole
    /// stream. It is a version of its own even when an earlier commit
    /// already published every event, so the report of a successful
    /// seal always says [`BatchState::Published`] and carries the sealed
    /// stamp. Returns the last commit's report, with the rejects of
    /// *every* commit this call made folded in; stops early (reporting
    /// the fault) if a commit rolls back twice in a row, or (flagging
    /// [`CommitReport::stalled`]) if a commit makes no forward progress.
    pub fn seal(&mut self) -> CommitReport {
        if self.wedge_seal {
            // Fault injection: report the genuine stalled exit before
            // any draining commit runs, so the queue/pending
            // diagnostics reflect the wedged state the caller sees.
            return CommitReport {
                stalled: true,
                ..CommitReport::empty(
                    BatchState::Queued,
                    self.published().stamp(),
                    vec![BatchState::Queued],
                )
            };
        }
        // Drain whatever producers queued first — the open-piece
        // snapshot below must reflect every operation actually sent
        // (a queued finish not yet absorbed would otherwise earn its
        // object a stale duplicate finish here).
        let mut report = self.commit();
        let mut rejected = std::mem::take(&mut report.rejected);
        for (id, last) in self.splitter.open_last_instants() {
            self.enqueue_finish(id, last + 1);
        }
        let mut consecutive_failures = 0u32;
        while (self.pending_events() > 0 || !self.queue.is_empty()) && consecutive_failures < 2 {
            let before = (self.pending_events(), self.queue_len());
            report = self.commit();
            rejected.extend(std::mem::take(&mut report.rejected));
            if report.state == BatchState::RolledBack {
                consecutive_failures += 1;
            } else {
                consecutive_failures = 0;
                if report.state != BatchState::Published
                    && (self.pending_events(), self.queue_len()) == before
                {
                    // No rollback, no publish, and nothing moved: the
                    // reorder buffer cannot drain. Surface the stuck
                    // state instead of spinning on no-op commits.
                    report.stalled = true;
                    break;
                }
            }
        }
        if report.state == BatchState::Queued && report.durability.is_none() && !report.stalled {
            // An earlier commit published the last event already.
            report = self.commit_with(true);
            rejected.extend(std::mem::take(&mut report.rejected));
        }
        report.rejected = rejected;
        report
    }

    /// Consume the pipeline and return the published tree, e.g. to save
    /// it to a file after [`IngestPipeline::seal`]. Uncommitted state
    /// (queued ops, pending events) is discarded. If a reader handle to
    /// the published version is still alive somewhere, it keeps its
    /// version and this returns a fork of it (see [`PprTree::clone`]).
    pub fn into_published_tree(self) -> PprTree {
        let published = self.published();
        drop(self);
        match Arc::try_unwrap(published) {
            Ok(published) => published.into_tree(),
            Err(shared) => shared.tree().clone(),
        }
    }

    /// Attach a write-ahead log rooted at `dir` (created if missing) to
    /// this pipeline. From here on, [`IngestPipeline::enqueue_durable`]
    /// logs every accepted operation before acknowledging it, every
    /// commit syncs the log before publishing, and
    /// [`IngestPipeline::checkpoint`] persists restartable state.
    ///
    /// Fails with [`DurabilityError::DirNotInitial`] if `dir` already
    /// holds WAL records or checkpoints: attaching a *fresh* pipeline
    /// to a *used* directory would silently shadow recoverable history
    /// — that directory belongs to [`IngestPipeline::recover`].
    pub fn attach_durability(
        &mut self,
        dir: &Path,
        config: WalConfig,
    ) -> Result<(), DurabilityError> {
        if self.durability.is_some() {
            return Err(DurabilityError::AlreadyAttached);
        }
        let opened = Wal::open(dir, config)?;
        let generations = scan_generations(dir)?;
        if !opened.records.is_empty() || opened.torn.is_some() || !generations.is_empty() {
            return Err(DurabilityError::DirNotInitial);
        }
        self.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal: opened.wal,
            retained: Vec::new(),
            next_generation: 1,
            crash: None,
            dead: false,
            checkpoints_total: 0,
        });
        Ok(())
    }

    /// Arm one [`CrashPoint`]: the next durable call that reaches it
    /// "kills" the pipeline (the crash-matrix hook, in the spirit of
    /// [`sti_storage::SaveCrash`]). Requires an attached WAL.
    #[doc(hidden)]
    pub fn arm_crash_point(&mut self, point: CrashPoint) -> Result<(), DurabilityError> {
        match self.durability.as_mut() {
            Some(d) => {
                d.crash = Some(point);
                Ok(())
            }
            None => Err(DurabilityError::NotAttached),
        }
    }

    /// Accumulated WAL counters, when a log is attached.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.wal.stats())
    }

    /// Enqueue one operation durably: the op is appended to the WAL
    /// (fsynced per the configured policy) *before* it enters the
    /// queue, so an `Ok` return is an acknowledgment recovery honors.
    /// Returns the op's log sequence number.
    pub fn enqueue_durable(&mut self, op: IngestOp) -> Result<u64, DurabilityError> {
        let Some(d) = self.durability.as_mut() else {
            return Err(DurabilityError::NotAttached);
        };
        d.crash_check(CrashPoint::BeforeWalAppend)?;
        let lsn = d.wal.append(&encode_op(&op))?;
        // A crash here leaves the op logged but unacknowledged: the
        // caller saw an error, yet recovery may legitimately replay it
        // (at-least-once for unacknowledged ops, exactly-once for
        // acknowledged ones).
        d.crash_check(CrashPoint::AfterWalAppend)?;
        self.queue.push_back(op);
        Ok(lsn)
    }

    /// Persist a restartable snapshot: sync the WAL, save the published
    /// tree to `checkpoint-<g>.idx` (via the crash-safe `save_to`
    /// path), then commit the generation by renaming its meta file into
    /// place. Keeps the last two generations and truncates WAL segments
    /// every retained checkpoint already covers.
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, DurabilityError> {
        // Phase 1 (durability borrow): sync and capture the cut.
        let (generation, wal_lsn, dir) = {
            let Some(d) = self.durability.as_mut() else {
                return Err(DurabilityError::NotAttached);
            };
            d.crash_check(CrashPoint::CheckpointBegin)?;
            d.wal.sync()?;
            (d.next_generation, d.wal.next_lsn(), d.dir.clone())
        };
        let idx = idx_path(&dir, generation);

        // Phase 2: the index image, saved from the published version in
        // place (a save reads pages at rest and needs no exclusive
        // access). An armed mid-save crash leaves a torn image at the
        // final path; no meta ever points at it, so recovery never
        // reads it.
        if let Some(d) = self.durability.as_mut() {
            if let Err(e) = d.crash_check(CrashPoint::CheckpointMidTreeSave) {
                if matches!(e, DurabilityError::InjectedCrash(_)) {
                    std::fs::write(&idx, b"torn checkpoint image").ok();
                }
                return Err(e);
            }
        }
        let meta = self.build_checkpoint_meta(generation, wal_lsn)?;
        self.published().tree().save_to_file(&idx)?;

        // Phase 3: commit the generation — meta temp, fsync, rename.
        let meta_target = meta_path(&dir, generation);
        let meta_tmp = {
            let mut os = meta_target.as_os_str().to_os_string();
            os.push(".tmp");
            std::path::PathBuf::from(os)
        };
        {
            let Some(d) = self.durability.as_mut() else {
                return Err(DurabilityError::NotAttached);
            };
            let image = meta.encode()?;
            let mut f = std::fs::File::create(&meta_tmp)?;
            f.write_all(&image)?;
            f.sync_all()?;
            drop(f);
            d.crash_check(CrashPoint::CheckpointBeforeMetaRename)?;
            std::fs::rename(&meta_tmp, &meta_target)?;
            std::fs::File::open(&dir)?.sync_all()?;
            d.crash_check(CrashPoint::CheckpointAfterMetaRename)?;
        }

        // Phase 4: retention. Keep two generations; prune everything
        // older (including crash orphans) and drop WAL segments fully
        // covered by the *oldest* retained cut, so a one-generation
        // fallback always finds its replay tail.
        let Some(d) = self.durability.as_mut() else {
            return Err(DurabilityError::NotAttached);
        };
        d.retained.push((generation, wal_lsn));
        while d.retained.len() > 2 {
            d.retained.remove(0);
        }
        let (keep_generation, keep_lsn) = match d.retained.first() {
            Some(&pair) => pair,
            None => (generation, wal_lsn), // unreachable: pushed above
        };
        let pruned_generations = prune_below(&dir, keep_generation)?;
        let wal_segments_deleted = d.wal.truncate_below(keep_lsn)?;
        d.next_generation = generation + 1;
        d.checkpoints_total += 1;
        d.crash_check(CrashPoint::CheckpointEnd)?;
        Ok(CheckpointReport {
            generation,
            wal_lsn,
            pruned_generations,
            wal_segments_deleted,
        })
    }

    /// Snapshot the committer's volatile state (everything a restart
    /// cannot re-derive from the saved tree alone).
    fn build_checkpoint_meta(
        &self,
        generation: u64,
        wal_lsn: u64,
    ) -> Result<CheckpointMeta, DurabilityError> {
        let mut reorder: Vec<Ev> = self.reorder.iter().map(|Reverse(ev)| ev.clone()).collect();
        // Heap iteration order is arbitrary; sort so identical states
        // always serialize to identical bytes.
        reorder.sort();
        Ok(CheckpointMeta {
            generation,
            wal_lsn,
            stamp: self.published().stamp(),
            now: self.now,
            seq: self.seq,
            commits: self.commits,
            rollbacks: self.rollbacks,
            rejected_total: self.rejected_total,
            splits_issued: self.splitter.splits_issued(),
            objects_admitted: self.splitter.objects_admitted(),
            open_pieces: self.splitter.snapshot_open_pieces(),
            reorder,
            pending: self.pending.clone(),
            queued: self.queue.iter().copied().collect(),
        })
    }

    /// Rebuild a pipeline from the WAL directory `dir`: load the newest
    /// usable checkpoint (meta + index), restore the committer's state
    /// exactly, then replay the WAL tail (`lsn >= wal_lsn`) into the
    /// queue — through the same validate/absorb path as live traffic,
    /// at the next commit. With no checkpoint yet, the whole WAL
    /// replays onto an empty pipeline.
    ///
    /// Nothing is committed here: the restored queue and buffers stay
    /// visible (non-zero `ingest_queue_depth` / `ingest_pending_events`
    /// gauges are how a dashboard tells a recovered process from a
    /// fresh one). Torn artifacts of a crash are truncated or skipped
    /// by design; genuine corruption is a typed [`RecoverError`].
    pub fn recover(
        dir: &Path,
        config: OnlineSplitConfig,
        params: PprParams,
        wal_config: WalConfig,
    ) -> Result<(Self, RecoveryReport), RecoverError> {
        let generations = scan_generations(dir)?;
        let mut checkpoints_skipped = 0u64;
        let mut chosen: Option<(CheckpointMeta, PprTree)> = None;
        for &g in generations.iter().rev() {
            let Ok(bytes) = std::fs::read(meta_path(dir, g)) else {
                checkpoints_skipped += 1;
                continue;
            };
            let Ok(meta) = CheckpointMeta::decode(&bytes) else {
                checkpoints_skipped += 1;
                continue;
            };
            let Ok(tree) = PprTree::open_file(&idx_path(dir, g)) else {
                checkpoints_skipped += 1;
                continue;
            };
            chosen = Some((meta, tree));
            break;
        }
        if chosen.is_none() && !generations.is_empty() {
            return Err(RecoverError::NoUsableCheckpoint {
                tried: generations.len(),
            });
        }

        let opened = Wal::open(dir, wal_config)?;
        let torn_tail = opened.torn.is_some();
        let (mut pipeline, meta) = match chosen {
            Some((meta, tree)) => {
                let mut pipeline = Self::publishing(
                    OnlineSplitter::restore(
                        config,
                        &meta.open_pieces,
                        meta.splits_issued,
                        meta.objects_admitted,
                    ),
                    PublishedIndex::new(tree, meta.stamp),
                );
                pipeline.reorder = meta.reorder.iter().cloned().map(Reverse).collect();
                pipeline.pending.clone_from(&meta.pending);
                pipeline.seq = meta.seq;
                pipeline.now = meta.now;
                pipeline.commits = meta.commits;
                pipeline.rollbacks = meta.rollbacks;
                pipeline.rejected_total = meta.rejected_total;
                (pipeline, Some(meta))
            }
            None => (Self::new(config, params), None),
        };

        // Restore the queue in arrival order: the checkpoint's queued
        // ops (all logged below `wal_lsn`) first, then the WAL tail.
        let mut queued_restored = 0u64;
        if let Some(m) = &meta {
            for op in &m.queued {
                pipeline.queue.push_back(*op);
                queued_restored += 1;
            }
        }
        let cut = meta.as_ref().map_or(0, |m| m.wal_lsn);
        let mut wal_records_replayed = 0u64;
        for record in &opened.records {
            if record.lsn < cut {
                continue;
            }
            let op = decode_op(&record.payload).map_err(|what| RecoverError::BadWalRecord {
                lsn: record.lsn,
                what,
            })?;
            pipeline.queue.push_back(op);
            wal_records_replayed += 1;
        }

        let report = RecoveryReport {
            checkpoint_generation: meta.as_ref().map(|m| m.generation),
            checkpoints_skipped,
            stamp: pipeline.published().stamp(),
            wal_records_replayed,
            torn_tail,
            queued_restored,
            pending_restored: meta
                .as_ref()
                .map_or(0, |m| (m.reorder.len() + m.pending.len()) as u64),
        };
        pipeline.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal: opened.wal,
            retained: meta
                .as_ref()
                .map_or_else(Vec::new, |m| vec![(m.generation, m.wal_lsn)]),
            next_generation: generations.last().map_or(1, |g| g + 1),
            crash: None,
            dead: false,
            checkpoints_total: 0,
        });
        Ok((pipeline, report))
    }

    /// Feed one operation into the splitter, buffering any closed
    /// pieces. The pipeline clock and splitter are untouched on error.
    fn absorb(&mut self, op: IngestOp) -> Result<(), OnlineError> {
        match op {
            IngestOp::Update { id, rect, t } => {
                if t < self.now {
                    return Err(ObserveError::OutOfOrder {
                        id,
                        t,
                        last: self.now,
                    }
                    .into());
                }
                if let Some(record) = self.splitter.observe(id, rect, t)? {
                    self.push_record_events(record);
                }
                self.now = t;
            }
            IngestOp::Finish { id, end } => {
                // A finish validates against the *object's own* stream
                // (the splitter demands `end == last + 1`), not the
                // global clock: a straggler whose last observation is
                // behind `self.now` can only legally finish in the
                // past, and its events cannot undercut the published
                // watermark — they start at the piece's start, which
                // the watermark never passes while the piece is open.
                let record = self.splitter.finish(id, end)?;
                self.now = self.now.max(end);
                self.push_record_events(record);
            }
        }
        Ok(())
    }

    fn push_record_events(&mut self, record: crate::plan::ObjectRecord) {
        let life = record.stbox.lifetime;
        self.reorder.push(Reverse(Ev {
            time: life.start,
            kind: RecordEvent::Insert,
            seq: self.seq,
            record,
        }));
        self.reorder.push(Reverse(Ev {
            time: life.end,
            kind: RecordEvent::Delete,
            seq: self.seq + 1,
            record,
        }));
        self.seq += 2;
    }

    /// Advance the batch state machine through the pure transition
    /// table, recording the hop.
    fn step(state: &mut BatchState, event: BatchEvent, trace: &mut Vec<BatchState>) {
        match transition(*state, event) {
            Ok(next) => {
                *state = next;
                trace.push(next);
            }
            #[expect(
                clippy::panic,
                reason = "the pipeline only drives documented edges; an illegal hop is a logic bug the state-machine tests exist to catch"
            )]
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::FinishError;
    use sti_geom::{Point2, Rect2, TimeInterval};

    fn params() -> PprParams {
        PprParams {
            max_entries: 10,
            p_version: 0.22,
            p_svo: 0.8,
            p_svu: 0.4,
            buffer_pages: 8,
        }
    }

    fn config() -> OnlineSplitConfig {
        OnlineSplitConfig {
            max_piece_instants: Some(8),
            ..OnlineSplitConfig::default()
        }
    }

    fn rect_at(id: u64, t: Time) -> Rect2 {
        let x = 0.05 + 0.8 * (0.13 * id as f64 + 0.011 * f64::from(t)).fract();
        Rect2::centered(Point2::new(x, 0.5), 0.02, 0.02)
    }

    /// Drive instants `range` of `n` objects, committing every
    /// `commit_every` instants. Returns the pages the commits wrote.
    fn drive(
        pipeline: &mut IngestPipeline,
        n: u64,
        range: std::ops::Range<Time>,
        commit_every: Time,
    ) -> u64 {
        let mut written = 0;
        for t in range {
            for id in 0..n {
                pipeline.enqueue_update(id, rect_at(id, t), t);
            }
            if (t + 1) % commit_every == 0 {
                let report = pipeline.commit();
                assert!(report.rejected.is_empty());
                assert_ne!(report.state, BatchState::RolledBack);
                assert!(
                    report.pages_copied <= report.pages_written,
                    "{} pages copied, {} written",
                    report.pages_copied,
                    report.pages_written
                );
                written += report.pages_written;
            }
        }
        written
    }

    #[test]
    fn initial_version_is_empty_and_stamped_zero() {
        let p = IngestPipeline::new(config(), params());
        let v = p.published();
        assert_eq!(v.stamp(), VersionStamp::INITIAL);
        assert_eq!(v.tree().total_records(), 0);
    }

    #[test]
    fn committed_history_is_queryable_through_the_published_version() {
        let mut p = IngestPipeline::new(config(), params());
        drive(&mut p, 6, 0..40, 10);
        let report = p.seal();
        assert_eq!(report.state, BatchState::Published);
        let v = p.published();
        assert!(v.stamp().version >= 1);
        assert_eq!(v.stamp().watermark, 40);
        let mut out = Vec::new();
        v.tree()
            .query_interval(&Rect2::UNIT, &TimeInterval::new(0, 40), &mut out)
            .unwrap();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out, (0..6).collect::<Vec<u64>>());
        v.tree().validate();
    }

    #[test]
    fn versions_are_immutable_across_later_commits() {
        let mut p = IngestPipeline::new(config(), params());
        drive(&mut p, 4, 0..20, 10);
        let v1 = p.published();
        let w = v1.stamp().watermark;
        assert!(w > 0, "twenty instants must finalize something");
        let probe = TimeInterval::new(0, w);
        let mut before = Vec::new();
        v1.tree()
            .query_interval(&Rect2::UNIT, &probe, &mut before)
            .unwrap();
        // Keep reading v1 while later commits publish v2, v3, ...
        drive(&mut p, 4, 20..40, 5);
        let mut after = Vec::new();
        v1.tree()
            .query_interval(&Rect2::UNIT, &probe, &mut after)
            .unwrap();
        // Interval answers are dedup sets (unordered by contract).
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "a held version must never change");
        drop(v1);
        let _ = p.seal();
    }

    #[test]
    fn malformed_ops_are_rejected_without_poisoning_the_batch() {
        let mut p = IngestPipeline::new(config(), params());
        for t in 0..6 {
            p.enqueue_update(1, rect_at(1, t), t);
            p.enqueue_update(2, rect_at(2, t), t);
        }
        p.enqueue_update(1, rect_at(1, 9), 9); // gap for object 1
        p.enqueue_finish(7, 3); // never observed + behind clock
        let report = p.commit();
        assert_eq!(report.rejected.len(), 2);
        assert!(matches!(
            report.rejected[0].error,
            OnlineError::Observe(ObserveError::Gap { id: 1, .. })
        ));
        // Both well-formed streams stay open and ingestible.
        p.enqueue_update(1, rect_at(1, 6), 6);
        p.enqueue_update(2, rect_at(2, 6), 6);
        let report = p.commit();
        assert!(report.rejected.is_empty());
        let report = p.seal();
        assert_eq!(report.state, BatchState::Published);
        let mut out = Vec::new();
        p.published()
            .tree()
            .query_interval(&Rect2::UNIT, &TimeInterval::new(0, 7), &mut out)
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2]);
    }

    /// The review repro: object 1 stops reporting at t=3 while object 2
    /// keeps going to t=10. Seal must close object 1's piece at 4 —
    /// *behind* the pipeline clock — and terminate instead of spinning
    /// on rejected straggler finishes.
    #[test]
    fn seal_closes_stragglers_behind_the_clock() {
        let mut p = IngestPipeline::new(config(), params());
        for t in 0..11 {
            if t < 4 {
                p.enqueue_update(1, rect_at(1, t), t);
            }
            p.enqueue_update(2, rect_at(2, t), t);
        }
        let report = p.commit();
        assert!(report.rejected.is_empty());
        let report = p.seal();
        assert_eq!(report.state, BatchState::Published);
        assert!(report.rejected.is_empty(), "{:?}", report.rejected);
        assert!(!report.stalled);
        assert_eq!(p.pending_events(), 0);
        let v = p.published();
        assert_eq!(v.stamp().watermark, 11);
        let mut out = Vec::new();
        v.tree().query_snapshot(&Rect2::UNIT, 3, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2], "both objects alive at t=3");
        out.clear();
        v.tree().query_snapshot(&Rect2::UNIT, 7, &mut out).unwrap();
        assert_eq!(out, vec![2], "object 1 finished at 4");
    }

    /// The wedge hook forces seal down its stalled exit: the report
    /// must carry `stalled = true` and leave the undrained queue depth
    /// visible, so callers can surface real diagnostics instead of
    /// silently saving a truncated index.
    #[test]
    fn wedged_seal_reports_stalled_with_undrained_work() {
        let mut p = IngestPipeline::new(config(), params());
        for t in 0..6 {
            p.enqueue_update(1, rect_at(1, t), t);
        }
        p.wedge_seal_for_test();
        let report = p.seal();
        assert!(report.stalled, "wedge must surface as a stall");
        assert!(report.error.is_none(), "a stall is not a storage fault");
        assert!(
            p.queue_len() + p.pending_events() > 0,
            "a stalled seal leaves undrained work behind for diagnostics"
        );
    }

    /// A producer-enqueued finish for a straggler object (end behind
    /// the pipeline clock but exactly one past the object's own last
    /// observation) is accepted, not rejected as out of order.
    #[test]
    fn straggler_finish_behind_the_clock_is_accepted() {
        let mut p = IngestPipeline::new(config(), params());
        for t in 0..8 {
            if t < 3 {
                p.enqueue_update(1, rect_at(1, t), t);
            }
            p.enqueue_update(2, rect_at(2, t), t);
        }
        p.enqueue_finish(1, 3); // clock is at 7 by drain time
        let report = p.commit();
        assert!(report.rejected.is_empty(), "{:?}", report.rejected);
        assert_eq!(p.now(), 7, "a past finish must not move the clock");
        let report = p.seal();
        assert_eq!(report.state, BatchState::Published);
        let mut out = Vec::new();
        p.published()
            .tree()
            .query_snapshot(&Rect2::UNIT, 5, &mut out)
            .unwrap();
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn empty_commit_is_a_no_op_and_burns_no_version() {
        let mut p = IngestPipeline::new(config(), params());
        let r1 = p.commit();
        assert_eq!(r1.state, BatchState::Queued);
        assert_eq!(r1.trace, vec![BatchState::Queued]);
        assert_eq!(p.published().stamp().version, 0);
    }

    #[test]
    fn successful_trace_matches_the_state_machine() {
        let mut p = IngestPipeline::new(config(), params());
        drive(&mut p, 3, 0..30, 30);
        let report = p.seal();
        assert_eq!(
            report.trace,
            vec![
                BatchState::Queued,
                BatchState::Batched,
                BatchState::Committing,
                BatchState::Committed,
                BatchState::Published,
            ]
        );
        // Replay through the pure transition function.
        let mut s = report.trace[0];
        for (next, ev) in report.trace[1..].iter().zip([
            BatchEvent::Drain,
            BatchEvent::Begin,
            BatchEvent::Applied,
            BatchEvent::Publish,
        ]) {
            s = transition(s, ev).unwrap();
            assert_eq!(s, *next);
        }
    }

    #[test]
    fn metrics_report_version_and_lag() {
        let mut p = IngestPipeline::new(config(), params());
        let written = drive(&mut p, 3, 0..40, 5);
        let mut set = MetricSet::new();
        p.record_metrics(&mut set);
        let json = set.to_json();
        assert!(json.contains("ingest_commits_total"));
        assert!(json.contains("ingest_published_version"));
        assert!(json.contains("ingest_commit_lag_instants"));
        let counter = |name: &str| -> f64 {
            set.to_prometheus()
                .lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{name} is exported"))
        };
        assert_eq!(counter("ingest_pages_copied_total"), p.pages_copied as f64);
        assert_eq!(counter("ingest_pages_written_total"), written as f64);
        assert!(written > 0, "forty instants finalize events");
        // Every commit after the first rewrites pages the previous
        // version still holds, and copies each of them at most once.
        let bound = p.published().tree().num_pages() as u64 * p.commits();
        assert!(p.commits() >= 3, "forty instants publish several versions");
        assert!(
            (1..=bound).contains(&p.pages_copied),
            "{} pages copied",
            p.pages_copied
        );
    }

    /// A finish the splitter refuses is a typed reject that leaves the
    /// clock where it was: the object keeps streaming afterwards.
    #[test]
    fn rejected_finish_does_not_advance_the_clock() {
        let mut p = IngestPipeline::new(config(), params());
        p.enqueue_update(1, rect_at(1, 0), 0);
        p.enqueue_finish(2, 5);
        let report = p.commit();
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(
            report.rejected[0].error,
            OnlineError::Split(FinishError::NotOpen { id: 2 })
        );
        assert_eq!(p.now(), 0, "the failed finish must not move the clock");
        p.enqueue_update(1, rect_at(1, 1), 1);
        p.enqueue_finish(1, 2);
        assert!(p.commit().rejected.is_empty());
    }

    /// A stream-clock regression and a finish that does not follow the
    /// object's last observation are both typed rejects; neither absorbs
    /// anything, and the well-formed object still finishes cleanly.
    #[test]
    fn backwards_stream_is_rejected_with_typed_errors() {
        let mut p = IngestPipeline::new(config(), params());
        let r = Rect2::from_bounds(0.1, 0.1, 0.2, 0.2);
        p.enqueue_update(1, r, 7);
        p.enqueue_update(2, r, 3);
        p.enqueue_finish(1, 5);
        let report = p.commit();
        let errors: Vec<_> = report.rejected.iter().map(|r| r.error.clone()).collect();
        assert_eq!(
            errors,
            vec![
                OnlineError::Observe(ObserveError::OutOfOrder {
                    id: 2,
                    t: 3,
                    last: 7
                }),
                OnlineError::Split(FinishError::WrongEnd {
                    id: 1,
                    end: 5,
                    expected: 8
                }),
            ]
        );
        // Object 2 was never absorbed; object 1 still finishes cleanly.
        p.enqueue_update(1, r, 8);
        p.enqueue_finish(1, 9);
        assert!(p.commit().rejected.is_empty());
        let report = p.seal();
        assert_eq!(report.state, BatchState::Published);
        let tree = p.into_published_tree();
        assert_eq!(tree.total_records(), 1);
        assert!(sti_pprtree::check::validate(&tree).is_ok());
    }

    /// Failed finishes change nothing — not the splitter watermark, not
    /// the pending events, not the published stamp — the corrected call
    /// succeeds, and the sealed tree passes the full-history sanitizer.
    #[test]
    fn failed_finish_then_corrected_retry() {
        let mut p = IngestPipeline::new(config(), params());
        let r = Rect2::from_bounds(0.3, 0.3, 0.35, 0.35);
        for t in 0..10 {
            p.enqueue_update(5, r, t);
        }
        assert!(p.commit().rejected.is_empty());
        let before = (
            p.now(),
            p.pending_events(),
            p.splitter.watermark(),
            p.published().stamp(),
        );

        p.enqueue_finish(5, 25);
        p.enqueue_finish(6, 10);
        let report = p.commit();
        let errors: Vec<_> = report.rejected.iter().map(|r| r.error.clone()).collect();
        assert_eq!(
            errors,
            vec![
                OnlineError::Split(FinishError::WrongEnd {
                    id: 5,
                    end: 25,
                    expected: 10
                }),
                OnlineError::Split(FinishError::NotOpen { id: 6 }),
            ]
        );
        let after = (
            p.now(),
            p.pending_events(),
            p.splitter.watermark(),
            p.published().stamp(),
        );
        assert_eq!(after, before, "failed finishes must move nothing");

        p.enqueue_finish(5, 10);
        assert!(p.commit().rejected.is_empty());
        assert_eq!(p.seal().state, BatchState::Published);
        let tree = p.into_published_tree();
        assert_eq!(tree.alive_records(), 0);
        assert!(sti_pprtree::check::validate(&tree).is_ok());
    }

    /// Two staggered movers and one stationary anchor, committed every
    /// instant: the sealed version answers hand-computed history.
    #[test]
    fn streams_and_answers_history() {
        let mover =
            |i: Time| Rect2::centered(Point2::new(0.05 + 0.01 * f64::from(i), 0.5), 0.02, 0.02);
        let mut p = IngestPipeline::new(OnlineSplitConfig::default(), params());
        for t in 0..60 {
            if t < 40 {
                p.enqueue_update(1, mover(t), t);
            }
            if t == 40 {
                p.enqueue_finish(1, 40);
            }
            if (10..50).contains(&t) {
                p.enqueue_update(2, mover(t - 10), t);
            }
            if t == 50 {
                p.enqueue_finish(2, 50);
            }
            p.enqueue_update(3, Rect2::from_bounds(0.9, 0.9, 0.95, 0.95), t);
            assert!(p.commit().rejected.is_empty());
        }
        assert!(p.splitter.splits_issued() >= 2, "movers should have split");
        assert_eq!(p.seal().state, BatchState::Published);
        let v = p.published();
        assert_eq!(v.stamp().watermark, 60);
        v.tree().validate();
        let mut out = Vec::new();
        v.tree().query_snapshot(&Rect2::UNIT, 5, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 3]);
        out.clear();
        v.tree().query_snapshot(&Rect2::UNIT, 45, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![2, 3]);
        out.clear();
        // Each object is many pieces, found once over its whole life.
        v.tree()
            .query_interval(&Rect2::UNIT, &TimeInterval::new(0, 60), &mut out)
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    /// Length-capped pieces keep the published watermark moving while
    /// the object is still open, and history just below it is final.
    #[test]
    fn length_capped_pieces_advance_the_published_watermark() {
        let capped = OnlineSplitConfig {
            max_piece_instants: Some(4),
            ..OnlineSplitConfig::default()
        };
        let mut p = IngestPipeline::new(capped, params());
        for t in 0..30 {
            p.enqueue_update(1, rect_at(1, t), t);
        }
        let report = p.commit();
        assert_eq!(report.state, BatchState::Published);
        let w = report.stamp.watermark;
        assert!(w > 0, "length-capped pieces must advance the watermark");
        assert_eq!(Some(w), p.splitter.watermark());
        let mut out = Vec::new();
        p.published()
            .tree()
            .query_snapshot(&Rect2::UNIT, w - 1, &mut out)
            .unwrap();
        assert_eq!(out, vec![1]);
    }

    /// Everything a rejected operation could have moved, captured with
    /// same-module access to the private fields so the equality below
    /// really is "nothing moved", not "the accessors still agree".
    #[derive(Debug, PartialEq)]
    struct PipelineSnapshot {
        now: Time,
        seq: u64,
        watermark: Option<Time>,
        splits_issued: u64,
        objects_admitted: u64,
        open: Vec<crate::online::OpenPieceSnapshot>,
        reorder: Vec<Ev>,
        pending: Vec<Ev>,
        stamp: VersionStamp,
        commits: u64,
        published_pages: usize,
    }

    impl PipelineSnapshot {
        fn of(p: &IngestPipeline) -> Self {
            let mut reorder: Vec<Ev> = p.reorder.iter().map(|r| r.0.clone()).collect();
            reorder.sort();
            Self {
                now: p.now,
                seq: p.seq,
                watermark: p.splitter.watermark(),
                splits_issued: p.splitter.splits_issued(),
                objects_admitted: p.splitter.objects_admitted(),
                open: p.splitter.snapshot_open_pieces(),
                reorder,
                pending: p.pending.clone(),
                stamp: p.published().stamp(),
                commits: p.commits,
                published_pages: p.published().tree().num_pages(),
            }
        }
    }

    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Drive a live stream and, interleaved with the valid traffic,
        /// throw every class of malformed operation at the pipeline.
        /// Each must come back as the right kind of typed reject from a
        /// commit that leaves the clock, the splitter, the buffered
        /// events and the published version bit-identical; the stream
        /// then carries on and the sealed tree passes the full-history
        /// sanitizer.
        #[test]
        fn malformed_ops_leave_the_pipeline_unchanged(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = IngestPipeline::new(
                OnlineSplitConfig {
                    max_piece_instants: Some(6),
                    ..OnlineSplitConfig::default()
                },
                params(),
            );
            let mut alive: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            let horizon = 30 + (seed % 20) as Time;

            for t in 0..horizon {
                // Sprinkle one malformed op before the valid traffic. At
                // this point every id in `alive` has been observed at
                // least once (spawning happens below), so each really is
                // a stream violation, not a first observation.
                if t > 2 {
                    let before = PipelineSnapshot::of(&p);
                    let first = alive.first().copied();
                    let op = match (rng.random_range(0..5u32), first) {
                        (0, Some(id)) => IngestOp::Update { id, rect: Rect2::UNIT, t: t + 4 }, // gap
                        (1, Some(id)) => IngestOp::Update { id, rect: Rect2::UNIT, t: t - 2 }, // behind the clock
                        (2, Some(id)) => IngestOp::Finish { id, end: t + 7 }, // wrong end
                        (3, _) => IngestOp::Finish { id: 9_999, end: t }, // never observed
                        _ => IngestOp::Finish { id: first.unwrap_or(0), end: t.saturating_sub(3) }, // backwards
                    };
                    p.enqueue(op);
                    let report = p.commit();
                    prop_assert_eq!(report.state, BatchState::Queued);
                    prop_assert_eq!(report.rejected.len(), 1, "malformed {:?} accepted at t={}", op, t);
                    prop_assert_eq!(report.rejected[0].op, op);
                    prop_assert_eq!(&PipelineSnapshot::of(&p), &before,
                        "rejected {:?} at t={} moved pipeline state", op, t);
                }
                // Maybe bring a new object into the world at this instant.
                if alive.len() < 4 && rng.random::<f64>() < 0.5 {
                    alive.push(next_id);
                    next_id += 1;
                }
                // The valid stream: every alive object observes this instant.
                for &id in &alive {
                    let x = ((id as f64) * 0.17 + f64::from(t) * 0.013).fract() * 0.9;
                    p.enqueue_update(id, Rect2::from_bounds(x, 0.4, x + 0.02, 0.45), t);
                }
                // Maybe retire one object (end = t + 1 follows its last
                // observation; later updates resume at t + 1).
                if alive.len() > 1 && rng.random::<f64>() < 0.2 {
                    let victim = alive.swap_remove(rng.random_range(0..alive.len()));
                    p.enqueue_finish(victim, t + 1);
                }
                let report = p.commit();
                prop_assert!(report.rejected.is_empty(), "valid traffic rejected: {:?}", report.rejected);
            }
            for &id in &alive {
                p.enqueue_finish(id, horizon);
            }
            let report = p.seal();
            prop_assert_eq!(report.state, BatchState::Published);
            prop_assert!(report.rejected.is_empty());
            let tree = p.into_published_tree();
            prop_assert!(sti_pprtree::check::validate(&tree).is_ok());
        }
    }
}
