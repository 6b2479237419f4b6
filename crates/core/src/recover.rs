//! Durability types for the ingest pipeline: WAL payload codecs, the
//! checkpoint state format, the crash-injection plan, and the recovery
//! reports (DESIGN.md §8).
//!
//! The mechanics live in [`crate::pipeline`] (which owns the private
//! pipeline state); this module owns everything serializable and every
//! typed error on the durability path:
//!
//! * **WAL payloads** — each accepted [`IngestOp`] is encoded with
//!   [`encode_op`] and appended to a [`sti_storage::Wal`] *before* the
//!   enqueue is acknowledged; [`decode_op`] is the replay side.
//! * **Checkpoints** — a generation `g` is one file in the WAL
//!   directory, `checkpoint-<g:016x>.idx`: an ordinary index image of
//!   the published tree whose checksummed metadata region carries, after
//!   the tree's own metadata, a `CheckpointMeta` (the committer's exact
//!   volatile state plus the WAL cut `wal_lsn`). The tree and the state
//!   it was cut against commit together: the image's rename, then a
//!   directory fsync, is the commit point. A crash anywhere earlier
//!   leaves at most a `.idx.tmp` sibling, which recovery never reads,
//!   and recovery falls back to the previous generation.
//! * **Recovery** — load the newest generation whose image opens and
//!   whose state decodes, restore the committer state byte-for-byte,
//!   then replay WAL records with `lsn >= wal_lsn` through the normal
//!   validate/absorb path. The LSN cut makes replay idempotent at the
//!   operation level; the recorded [`VersionStamp`] watermark is the
//!   event-level guard (every event below it lives only in the
//!   checkpointed tree, never in the restored buffers).
//!
//! State layout (all little-endian; the image's metadata checksum
//! covers it):
//!
//! ```text
//! magic "STICKPT3" · generation: u64 · wal_lsn: u64 ·
//! version: u64 · watermark: u32 · now: u32 · seq: u64 ·
//! commits: u64 · rollbacks: u64 · rejected_total: u64 ·
//! splits_issued: u64 · objects_admitted: u64 ·
//! open_count: u32 · open_count × open_piece ·
//! reorder_count: u32 · reorder_count × event ·
//! pending_count: u32 · pending_count × event ·
//! queued_count: u32 · queued_count × op
//! ```

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::online::{Ev, OpenPieceSnapshot};
use crate::pipeline::IngestOp;
use crate::plan::{ObjectRecord, RecordEvent};
use crate::version::VersionStamp;
use std::io;
use std::path::{Path, PathBuf};
use sti_geom::{Point2, Rect2, StBox, Time, TimeInterval};
use sti_obs::MetricSet;
use sti_storage::{ByteReader, CodecError, Wal, WalError};

/// Magic prefix of the pipeline state in a checkpoint image.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"STICKPT3";

/// Upper bound on one buffer count in the state; anything larger with
/// a valid checksum is corruption that got lucky, so it fails closed.
const MAX_META_COUNT: u32 = 1 << 24;

/// Where an injected crash kills the pipeline — one point per
/// WAL/checkpoint/publish boundary the crash matrix exercises. The
/// pipeline "dies" at the armed point: the durability call returns
/// [`DurabilityError::InjectedCrash`] once, and every later durable
/// call returns [`DurabilityError::Dead`], modelling a process that is
/// gone until [`crate::pipeline::IngestPipeline::recover`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// In `enqueue_durable`, before the op reaches the WAL: the op is
    /// lost and was never acknowledged.
    BeforeWalAppend,
    /// In `enqueue_durable`, after the WAL append but before the queue
    /// push: the op is logged but unacknowledged — recovery may
    /// legitimately resurrect it.
    AfterWalAppend,
    /// In `commit`, before the commit-time WAL sync.
    BeforeCommitSync,
    /// In `commit`, after the WAL sync but before any tree work.
    AfterCommitSync,
    /// In `commit`, immediately after the new version is published.
    AfterPublish,
    /// In `checkpoint`, before anything is written.
    CheckpointBegin,
    /// In `checkpoint`, mid-way through the image save: a torn image
    /// lands at the temp sibling and is never renamed.
    CheckpointMidTreeSave,
    /// In `checkpoint`, after the image is complete at the temp sibling
    /// but before the rename (the generation stays invisible).
    CheckpointBeforeRename,
    /// In `checkpoint`, after the rename and the directory fsync (the
    /// generation is live) but before old generations are pruned and
    /// the WAL truncated.
    CheckpointAfterRename,
    /// In `checkpoint`, after pruning and truncation complete.
    CheckpointEnd,
}

impl CrashPoint {
    /// Every kill point, in pipeline order — what the crash matrix
    /// iterates over.
    pub const ALL: [CrashPoint; 10] = [
        CrashPoint::BeforeWalAppend,
        CrashPoint::AfterWalAppend,
        CrashPoint::BeforeCommitSync,
        CrashPoint::AfterCommitSync,
        CrashPoint::AfterPublish,
        CrashPoint::CheckpointBegin,
        CrashPoint::CheckpointMidTreeSave,
        CrashPoint::CheckpointBeforeRename,
        CrashPoint::CheckpointAfterRename,
        CrashPoint::CheckpointEnd,
    ];
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CrashPoint::BeforeWalAppend => "before-wal-append",
            CrashPoint::AfterWalAppend => "after-wal-append",
            CrashPoint::BeforeCommitSync => "before-commit-sync",
            CrashPoint::AfterCommitSync => "after-commit-sync",
            CrashPoint::AfterPublish => "after-publish",
            CrashPoint::CheckpointBegin => "checkpoint-begin",
            CrashPoint::CheckpointMidTreeSave => "checkpoint-mid-tree-save",
            CrashPoint::CheckpointBeforeRename => "checkpoint-before-rename",
            CrashPoint::CheckpointAfterRename => "checkpoint-after-rename",
            CrashPoint::CheckpointEnd => "checkpoint-end",
        };
        f.write_str(name)
    }
}

/// Why a durable operation failed. Everything is typed; an injected
/// crash is an error like any other, so the matrix can drop the
/// "process" and recover from disk.
#[derive(Debug)]
pub enum DurabilityError {
    /// The pipeline has no WAL attached.
    NotAttached,
    /// The pipeline already has a WAL attached.
    AlreadyAttached,
    /// `attach_durability` found existing WAL records or checkpoints —
    /// attaching a *fresh* pipeline to a *used* directory would
    /// silently shadow recoverable history; use `recover` instead.
    DirNotInitial,
    /// The write-ahead log failed.
    Wal(WalError),
    /// A checkpoint file operation failed.
    Io(io::Error),
    /// The armed [`CrashPoint`] fired: the simulated process just died.
    InjectedCrash(CrashPoint),
    /// A durable call after an injected crash: the process is dead
    /// until recovery.
    Dead,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::NotAttached => f.write_str("no write-ahead log attached"),
            DurabilityError::AlreadyAttached => {
                f.write_str("a write-ahead log is already attached")
            }
            DurabilityError::DirNotInitial => f.write_str(
                "wal directory already holds records or checkpoints; recover instead of attaching",
            ),
            DurabilityError::Wal(e) => write!(f, "write-ahead log failure: {e}"),
            DurabilityError::Io(e) => write!(f, "checkpoint I/O failure: {e}"),
            DurabilityError::InjectedCrash(p) => write!(f, "injected crash at {p}"),
            DurabilityError::Dead => f.write_str("pipeline killed by an injected crash"),
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Wal(e) => Some(e),
            DurabilityError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for DurabilityError {
    fn from(e: WalError) -> Self {
        DurabilityError::Wal(e)
    }
}

impl From<io::Error> for DurabilityError {
    fn from(e: io::Error) -> Self {
        DurabilityError::Io(e)
    }
}

/// Why recovery failed. Torn artifacts of a crash are *not* errors
/// (they are truncated or skipped by design); these are the genuinely
/// unrecoverable shapes — corruption past the checksums' reach, or a
/// directory whose every checkpoint is damaged.
#[derive(Debug)]
pub enum RecoverError {
    /// The write-ahead log was rejected (corruption, chain gap).
    Wal(WalError),
    /// A directory/file operation failed.
    Io(io::Error),
    /// Checkpoint images exist but none both opens and carries a
    /// decodable pipeline state.
    NoUsableCheckpoint {
        /// How many generations were tried (newest first).
        tried: usize,
    },
    /// A replayed WAL record did not decode as an [`IngestOp`].
    BadWalRecord {
        /// The record's log sequence number.
        lsn: u64,
        /// What was wrong with it.
        what: &'static str,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Wal(e) => write!(f, "cannot recover: {e}"),
            RecoverError::Io(e) => write!(f, "cannot recover: {e}"),
            RecoverError::NoUsableCheckpoint { tried } => write!(
                f,
                "cannot recover: all {tried} checkpoint generation(s) are damaged"
            ),
            RecoverError::BadWalRecord { lsn, what } => {
                write!(
                    f,
                    "cannot recover: wal record {lsn} is not an ingest op ({what})"
                )
            }
        }
    }
}

impl std::error::Error for RecoverError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoverError::Wal(e) => Some(e),
            RecoverError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for RecoverError {
    fn from(e: WalError) -> Self {
        RecoverError::Wal(e)
    }
}

impl From<io::Error> for RecoverError {
    fn from(e: io::Error) -> Self {
        RecoverError::Io(e)
    }
}

/// What one [`crate::pipeline::IngestPipeline::checkpoint`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The generation this checkpoint created.
    pub generation: u64,
    /// The WAL cut: every record below this LSN is covered by the
    /// checkpointed state.
    pub wal_lsn: u64,
    /// Old generations whose files were deleted.
    pub pruned_generations: u64,
    /// Obsolete WAL segment files deleted by the truncation.
    pub wal_segments_deleted: u64,
}

/// What [`crate::pipeline::IngestPipeline::recover`] reconstructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The generation recovery started from (`None`: no checkpoint yet,
    /// the whole WAL was replayed onto an empty pipeline).
    pub checkpoint_generation: Option<u64>,
    /// Newer generations skipped because their image or state was
    /// damaged (0 in every pure crash scenario: a crash can only leave
    /// an *invisible* generation, not a damaged one).
    pub checkpoints_skipped: u64,
    /// The published stamp immediately after recovery.
    pub stamp: VersionStamp,
    /// WAL records replayed into the queue (`lsn >= wal_lsn`).
    pub wal_records_replayed: u64,
    /// Whether the WAL's last segment ended in a torn append (truncated
    /// fail-closed during replay).
    pub torn_tail: bool,
    /// Queued-but-unabsorbed ops restored from the checkpoint state
    /// (they re-enter the queue *ahead* of the replayed WAL tail,
    /// preserving arrival order).
    pub queued_restored: u64,
    /// Reordering/pending events restored from the checkpoint state.
    pub pending_restored: u64,
}

impl RecoveryReport {
    /// Export the recovery outcome as `recovery_*` metrics, so a
    /// dashboard can tell a recovered process from a fresh one.
    pub fn record_metrics(&self, set: &mut MetricSet) {
        set.counter(
            "recovery_wal_records_replayed",
            "wal records replayed through absorb at recovery",
            self.wal_records_replayed as f64,
        );
        set.counter(
            "recovery_checkpoints_skipped",
            "damaged checkpoint generations skipped at recovery",
            self.checkpoints_skipped as f64,
        );
        set.gauge(
            "recovery_checkpoint_generation",
            "checkpoint generation recovery started from (0: none)",
            self.checkpoint_generation.unwrap_or(0) as f64,
        );
        set.gauge(
            "recovery_torn_tail",
            "whether the wal tail was torn and truncated (0/1)",
            f64::from(u8::from(self.torn_tail)),
        );
        set.gauge(
            "recovery_queued_restored",
            "queued ops restored from the checkpoint state",
            self.queued_restored as f64,
        );
        set.gauge(
            "recovery_pending_restored",
            "reordering and pending events restored from the checkpoint state",
            self.pending_restored as f64,
        );
    }
}

/// The durable half of a pipeline: the WAL handle, the retained
/// checkpoint generations, and the crash-injection state. Owned by
/// [`crate::pipeline::IngestPipeline`]; every field is crate-private
/// because only the pipeline drives it.
#[derive(Debug)]
pub(crate) struct Durability {
    /// The directory holding WAL segments and checkpoint files.
    pub(crate) dir: PathBuf,
    pub(crate) wal: Wal,
    /// `(generation, wal_lsn)` of retained checkpoints, oldest first;
    /// at most two. The WAL is truncated below the *oldest* retained
    /// cut, so falling back one generation always finds its tail.
    pub(crate) retained: Vec<(u64, u64)>,
    /// The generation the next checkpoint will write.
    pub(crate) next_generation: u64,
    /// The armed kill point, if any.
    pub(crate) crash: Option<CrashPoint>,
    /// Set once the armed point fires; every durable call afterwards
    /// returns [`DurabilityError::Dead`].
    pub(crate) dead: bool,
    /// Checkpoints completed through this handle.
    pub(crate) checkpoints_total: u64,
}

impl Durability {
    /// Fail if dead; fire (and die at) the armed point if it matches.
    pub(crate) fn crash_check(&mut self, point: CrashPoint) -> Result<(), DurabilityError> {
        if self.dead {
            return Err(DurabilityError::Dead);
        }
        if self.crash == Some(point) {
            self.dead = true;
            return Err(DurabilityError::InjectedCrash(point));
        }
        Ok(())
    }
}

/// `dir/checkpoint-<generation>.idx`.
pub(crate) fn idx_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("checkpoint-{generation:016x}.idx"))
}

/// The generation of a checkpoint file name with `suffix`, if it is one.
fn generation_of(name: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix("checkpoint-")?.strip_suffix(suffix)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Every *committed* generation in `dir` — a renamed
/// `checkpoint-<g>.idx` — ascending. A `.idx.tmp` sibling (a crash
/// before the rename) is invisible here by design; it is garbage a
/// later prune removes.
pub(crate) fn scan_generations(dir: &Path) -> Result<Vec<u64>, io::Error> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(generation) = name.to_str().and_then(|n| generation_of(n, ".idx")) {
            out.push(generation);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Delete every checkpoint image or stale save temp whose generation is
/// below `keep_from`. Scanning the directory (and not just the
/// generations the live process remembers) also collects orphans: torn
/// temps a crash left behind, and damaged generations recovery skipped.
/// Returns how many files were removed.
pub(crate) fn prune_below(dir: &Path, keep_from: u64) -> Result<u64, io::Error> {
    let mut removed = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(generation) = name
            .to_str()
            .and_then(|n| generation_of(n, ".idx").or_else(|| generation_of(n, ".idx.tmp")))
        else {
            continue;
        };
        if generation < keep_from {
            std::fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// The committer's complete volatile state at checkpoint time — enough
/// to restore a pipeline that behaves exactly like the one that wrote
/// it (given the tree of the image that carries it and the WAL tail
/// past `wal_lsn`).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointMeta {
    pub(crate) generation: u64,
    /// First WAL LSN *not* covered by this state: everything below was
    /// either absorbed into the splitter/buffers/tree or sits in
    /// `queued` below.
    pub(crate) wal_lsn: u64,
    pub(crate) stamp: VersionStamp,
    pub(crate) now: Time,
    pub(crate) seq: u64,
    pub(crate) commits: u64,
    pub(crate) rollbacks: u64,
    pub(crate) rejected_total: u64,
    pub(crate) splits_issued: u64,
    /// The splitter's admitted-object count.
    pub(crate) objects_admitted: u64,
    pub(crate) open_pieces: Vec<OpenPieceSnapshot>,
    pub(crate) reorder: Vec<Ev>,
    pub(crate) pending: Vec<Ev>,
    pub(crate) queued: Vec<IngestOp>,
}

impl CheckpointMeta {
    /// Serialize (the image's metadata checksum covers the bytes).
    pub(crate) fn encode(&self) -> Result<Vec<u8>, DurabilityError> {
        let mut out = Vec::with_capacity(
            128 + 48 * self.open_pieces.len()
                + 61 * (self.reorder.len() + self.pending.len())
                + 45 * self.queued.len(),
        );
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.wal_lsn.to_le_bytes());
        out.extend_from_slice(&self.stamp.version.to_le_bytes());
        out.extend_from_slice(&self.stamp.watermark.to_le_bytes());
        out.extend_from_slice(&self.now.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.commits.to_le_bytes());
        out.extend_from_slice(&self.rollbacks.to_le_bytes());
        out.extend_from_slice(&self.rejected_total.to_le_bytes());
        out.extend_from_slice(&self.splits_issued.to_le_bytes());
        out.extend_from_slice(&self.objects_admitted.to_le_bytes());

        put_count(&mut out, self.open_pieces.len())?;
        for p in &self.open_pieces {
            out.extend_from_slice(&p.id.to_le_bytes());
            out.extend_from_slice(&p.start.to_le_bytes());
            out.extend_from_slice(&p.last.to_le_bytes());
            put_rect(&mut out, &p.mbr);
            out.extend_from_slice(&p.area_sum.to_le_bytes());
        }
        put_count(&mut out, self.reorder.len())?;
        for ev in &self.reorder {
            put_ev(&mut out, ev);
        }
        put_count(&mut out, self.pending.len())?;
        for ev in &self.pending {
            put_ev(&mut out, ev);
        }
        put_count(&mut out, self.queued.len())?;
        for op in &self.queued {
            out.extend_from_slice(&encode_op(op));
        }

        Ok(out)
    }

    /// Decode, failing closed on anything short, long, or structurally
    /// impossible. An image with no pipeline state (a plain index save)
    /// has no magic and is refused.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self, &'static str> {
        let mut r = ByteReader::new(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.get_u8().map_err(|_| "no checkpoint state")?;
        }
        if &magic != CHECKPOINT_MAGIC {
            return Err("bad magic");
        }
        let take = |e: CodecError| -> &'static str {
            match e {
                CodecError::OutOfBounds { .. } => "truncated checkpoint state",
                CodecError::InvalidValue(what) => what,
            }
        };
        let generation = r.get_u64().map_err(take)?;
        let wal_lsn = r.get_u64().map_err(take)?;
        let version = r.get_u64().map_err(take)?;
        let watermark = r.get_u32().map_err(take)?;
        let now = r.get_u32().map_err(take)?;
        let seq = r.get_u64().map_err(take)?;
        let commits = r.get_u64().map_err(take)?;
        let rollbacks = r.get_u64().map_err(take)?;
        let rejected_total = r.get_u64().map_err(take)?;
        let splits_issued = r.get_u64().map_err(take)?;
        let objects_admitted = r.get_u64().map_err(take)?;

        let open_count = get_count(&mut r)?;
        let mut open_pieces = Vec::with_capacity(open_count);
        for _ in 0..open_count {
            let id = r.get_u64().map_err(take)?;
            let start = r.get_u32().map_err(take)?;
            let last = r.get_u32().map_err(take)?;
            let mbr = get_rect(&mut r)?;
            let area_sum = r.get_f64().map_err(take)?;
            if last < start {
                return Err("open piece ends before it starts");
            }
            open_pieces.push(OpenPieceSnapshot {
                id,
                start,
                last,
                mbr,
                area_sum,
            });
        }
        let reorder_count = get_count(&mut r)?;
        let mut reorder = Vec::with_capacity(reorder_count);
        for _ in 0..reorder_count {
            reorder.push(get_ev(&mut r)?);
        }
        let pending_count = get_count(&mut r)?;
        let mut pending = Vec::with_capacity(pending_count);
        for _ in 0..pending_count {
            pending.push(get_ev(&mut r)?);
        }
        let queued_count = get_count(&mut r)?;
        let mut queued = Vec::with_capacity(queued_count);
        for _ in 0..queued_count {
            queued.push(get_op(&mut r)?);
        }
        if r.position() != bytes.len() {
            return Err("trailing bytes after the last queued op");
        }
        Ok(Self {
            generation,
            wal_lsn,
            stamp: VersionStamp { version, watermark },
            now,
            seq,
            commits,
            rollbacks,
            rejected_total,
            splits_issued,
            objects_admitted,
            open_pieces,
            reorder,
            pending,
            queued,
        })
    }
}

/// Encode one [`IngestOp`] as a WAL payload.
///
/// ```text
/// update := 0x01 · id: u64 · t: u32 · rect: 4 × f64
/// finish := 0x02 · id: u64 · end: u32
/// ```
pub fn encode_op(op: &IngestOp) -> Vec<u8> {
    match op {
        IngestOp::Update { id, rect, t } => {
            let mut out = Vec::with_capacity(45);
            out.push(1);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
            put_rect(&mut out, rect);
            out
        }
        IngestOp::Finish { id, end } => {
            let mut out = Vec::with_capacity(13);
            out.push(2);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&end.to_le_bytes());
            out
        }
    }
}

/// Decode a WAL payload back into an [`IngestOp`], failing closed on
/// unknown tags, short frames, trailing bytes, or reversed rectangles.
pub fn decode_op(bytes: &[u8]) -> Result<IngestOp, &'static str> {
    let mut r = ByteReader::new(bytes);
    let op = get_op(&mut r)?;
    if r.position() != bytes.len() {
        return Err("trailing bytes after the op");
    }
    Ok(op)
}

fn get_op(r: &mut ByteReader<'_>) -> Result<IngestOp, &'static str> {
    let tag = r.get_u8().map_err(|_| "empty op")?;
    match tag {
        1 => {
            let id = r.get_u64().map_err(|_| "truncated update op")?;
            let t = r.get_u32().map_err(|_| "truncated update op")?;
            let rect = get_rect(r)?;
            Ok(IngestOp::Update { id, rect, t })
        }
        2 => {
            let id = r.get_u64().map_err(|_| "truncated finish op")?;
            let end = r.get_u32().map_err(|_| "truncated finish op")?;
            Ok(IngestOp::Finish { id, end })
        }
        _ => Err("unknown op tag"),
    }
}

fn put_rect(out: &mut Vec<u8>, rect: &Rect2) {
    out.extend_from_slice(&rect.lo.x.to_le_bytes());
    out.extend_from_slice(&rect.lo.y.to_le_bytes());
    out.extend_from_slice(&rect.hi.x.to_le_bytes());
    out.extend_from_slice(&rect.hi.y.to_le_bytes());
}

/// Decode a rectangle, refusing reversed corners instead of letting
/// [`Rect2::new`]'s assertion fire on hostile bytes.
fn get_rect(r: &mut ByteReader<'_>) -> Result<Rect2, &'static str> {
    let x_lo = r.get_f64().map_err(|_| "truncated rect")?;
    let y_lo = r.get_f64().map_err(|_| "truncated rect")?;
    let x_hi = r.get_f64().map_err(|_| "truncated rect")?;
    let y_hi = r.get_f64().map_err(|_| "truncated rect")?;
    if !(x_lo <= x_hi && y_lo <= y_hi) {
        return Err("reversed or NaN rectangle");
    }
    Ok(Rect2 {
        lo: Point2 { x: x_lo, y: y_lo },
        hi: Point2 { x: x_hi, y: y_hi },
    })
}

fn put_ev(out: &mut Vec<u8>, ev: &Ev) {
    out.extend_from_slice(&ev.time.to_le_bytes());
    out.push(match ev.kind {
        RecordEvent::Delete => 0,
        RecordEvent::Insert => 1,
    });
    out.extend_from_slice(&ev.seq.to_le_bytes());
    out.extend_from_slice(&ev.record.id.to_le_bytes());
    put_rect(out, &ev.record.stbox.rect);
    out.extend_from_slice(&ev.record.stbox.lifetime.start.to_le_bytes());
    out.extend_from_slice(&ev.record.stbox.lifetime.end.to_le_bytes());
}

fn get_ev(r: &mut ByteReader<'_>) -> Result<Ev, &'static str> {
    let time = r.get_u32().map_err(|_| "truncated event")?;
    let kind = match r.get_u8().map_err(|_| "truncated event")? {
        0 => RecordEvent::Delete,
        1 => RecordEvent::Insert,
        _ => return Err("unknown event kind"),
    };
    let seq = r.get_u64().map_err(|_| "truncated event")?;
    let id = r.get_u64().map_err(|_| "truncated event")?;
    let rect = get_rect(r)?;
    let start = r.get_u32().map_err(|_| "truncated event")?;
    let end = r.get_u32().map_err(|_| "truncated event")?;
    if end < start {
        return Err("event lifetime ends before it starts");
    }
    Ok(Ev {
        time,
        kind,
        seq,
        record: ObjectRecord {
            id,
            stbox: StBox {
                rect,
                lifetime: TimeInterval { start, end },
            },
        },
    })
}

fn put_count(out: &mut Vec<u8>, n: usize) -> Result<(), DurabilityError> {
    let n = u32::try_from(n)
        .map_err(|_| DurabilityError::Wal(WalError::Malformed("buffer count exceeds u32")))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn get_count(r: &mut ByteReader<'_>) -> Result<usize, &'static str> {
    let n = r.get_u32().map_err(|_| "truncated count")?;
    if n > MAX_META_COUNT {
        return Err("implausible buffer count");
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<IngestOp> {
        vec![
            IngestOp::Update {
                id: 7,
                rect: Rect2::from_bounds(0.1, 0.2, 0.3, 0.4),
                t: 42,
            },
            IngestOp::Finish { id: 7, end: 43 },
            IngestOp::Update {
                id: u64::MAX,
                rect: Rect2::from_bounds(-1.5, -2.5, 3.5, 4.5),
                t: Time::MAX,
            },
        ]
    }

    fn sample_ev(seq: u64) -> Ev {
        Ev {
            time: 10 + u32::try_from(seq).unwrap(),
            kind: if seq.is_multiple_of(2) {
                RecordEvent::Insert
            } else {
                RecordEvent::Delete
            },
            seq,
            record: ObjectRecord {
                id: 100 + seq,
                stbox: StBox {
                    rect: Rect2::from_bounds(0.0, 0.0, 0.5, 0.5),
                    lifetime: TimeInterval { start: 10, end: 20 },
                },
            },
        }
    }

    fn sample_meta() -> CheckpointMeta {
        CheckpointMeta {
            generation: 3,
            wal_lsn: 777,
            stamp: VersionStamp {
                version: 12,
                watermark: 340,
            },
            now: 350,
            seq: 96,
            commits: 12,
            rollbacks: 1,
            rejected_total: 2,
            splits_issued: 9,
            objects_admitted: 7,
            open_pieces: vec![OpenPieceSnapshot {
                id: 4,
                start: 330,
                last: 350,
                mbr: Rect2::from_bounds(0.1, 0.1, 0.2, 0.2),
                area_sum: 0.21,
            }],
            reorder: vec![sample_ev(0), sample_ev(1)],
            pending: vec![sample_ev(2)],
            queued: sample_ops(),
        }
    }

    #[test]
    fn ops_round_trip() {
        for op in sample_ops() {
            let bytes = encode_op(&op);
            assert_eq!(decode_op(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn op_decode_fails_closed() {
        let bytes = encode_op(&sample_ops()[0]);
        // Every strict prefix is refused.
        for cut in 0..bytes.len() {
            assert!(decode_op(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Trailing garbage is refused.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_op(&long).is_err());
        // Unknown tag is refused.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(decode_op(&bad).is_err());
        // A reversed rectangle is a typed error, not an assert.
        let reversed = encode_op(&IngestOp::Update {
            id: 1,
            rect: Rect2::from_bounds(0.0, 0.0, 1.0, 1.0),
            t: 5,
        });
        let mut reversed = reversed;
        // Swap lo.x (bytes 13..21) and hi.x (bytes 29..37).
        for i in 0..8 {
            reversed.swap(13 + i, 29 + i);
        }
        assert_eq!(
            decode_op(&reversed).unwrap_err(),
            "reversed or NaN rectangle"
        );
    }

    #[test]
    fn meta_round_trips() {
        let meta = sample_meta();
        let bytes = meta.encode().unwrap();
        let back = CheckpointMeta::decode(&bytes).unwrap();
        assert_eq!(back, meta);
    }

    /// A `STICKPT1` state is refused as an old format, not misread.
    #[test]
    fn a_version_1_meta_is_refused() {
        let v1 = [b"STICKPT1".as_slice(), &[0; 8]].concat();
        assert_eq!(CheckpointMeta::decode(&v1).unwrap_err(), "bad magic");
    }

    /// A durable pipeline with one checkpoint in a fresh directory, whose
    /// state holds open pieces and queued ops; returns the directory, the
    /// image path and where the state sits in the image.
    fn one_checkpoint(name: &str) -> (PathBuf, PathBuf, std::ops::Range<usize>) {
        use crate::online::OnlineSplitConfig;
        use crate::pipeline::IngestPipeline;
        let dir = std::env::temp_dir().join(format!("sti-recover-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut pipeline = IngestPipeline::new(
            OnlineSplitConfig::default(),
            sti_pprtree::PprParams::default(),
        );
        pipeline
            .attach_durability(&dir, sti_storage::WalConfig::default())
            .unwrap();
        for t in 0..6u32 {
            for id in 0..4u64 {
                let x = 0.2 * id as f64 + 0.01 * f64::from(t);
                let rect = Rect2::from_bounds(x, 0.5, x + 0.05, 0.55);
                pipeline
                    .enqueue_durable(IngestOp::Update { id, rect, t })
                    .unwrap();
            }
            if t == 3 {
                assert!(pipeline.commit().error.is_none());
            }
        }
        let generation = pipeline.checkpoint().unwrap().generation;
        let idx = idx_path(&dir, generation);
        // The state is the owner bytes the image carries; where they sit
        // in the file is where a flip damages the state.
        let (_, state) = sti_pprtree::PprTree::open_with_owner(&idx).unwrap();
        let image = std::fs::read(&idx).unwrap();
        let start = image
            .windows(state.len())
            .position(|w| w == state.as_slice())
            .unwrap();
        let decoded = CheckpointMeta::decode(&state).unwrap();
        assert!(!decoded.open_pieces.is_empty() && !decoded.queued.is_empty());
        (dir, idx, start..start + state.len())
    }

    /// Every byte flip in the state region of a real checkpoint image is
    /// caught: recovery skips the generation, and with no other returns
    /// `NoUsableCheckpoint` — never a pipeline, never a panic.
    #[test]
    fn meta_every_byte_flip_fails_closed() {
        let (dir, idx, state) = one_checkpoint("flip");
        let pristine = std::fs::read(&idx).unwrap();
        for at in state {
            let mut bad = pristine.clone();
            bad[at] ^= 0x10;
            std::fs::write(&idx, &bad).unwrap();
            let result = crate::pipeline::IngestPipeline::recover(
                &dir,
                crate::online::OnlineSplitConfig::default(),
                sti_pprtree::PprParams::default(),
                sti_storage::WalConfig::default(),
            );
            assert!(
                matches!(result, Err(RecoverError::NoUsableCheckpoint { tried: 1 })),
                "flip at byte {at}: {:?}",
                result.err()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every truncation of the state, and trailing bytes after it, fail
    /// the structural decode; a plain image's empty state is refused.
    #[test]
    fn meta_truncations_fail_closed() {
        let (dir, idx, _) = one_checkpoint("cut");
        let real = sti_pprtree::PprTree::open_with_owner(&idx).unwrap().1;
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(
            CheckpointMeta::decode(&[]).unwrap_err(),
            "no checkpoint state"
        );
        for bytes in [sample_meta().encode().unwrap(), real] {
            for cut in 0..bytes.len() {
                assert!(
                    CheckpointMeta::decode(&bytes[..cut]).is_err(),
                    "prefix {cut} accepted"
                );
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(CheckpointMeta::decode(&long).is_err());
        }
    }

    #[test]
    fn crash_points_fire_once_then_stay_dead() {
        let dir = std::env::temp_dir().join(format!("sti-recover-dur-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let opened = Wal::open(&dir, sti_storage::WalConfig::default()).unwrap();
        let mut d = Durability {
            dir: dir.clone(),
            wal: opened.wal,
            retained: Vec::new(),
            next_generation: 1,
            crash: Some(CrashPoint::AfterWalAppend),
            dead: false,
            checkpoints_total: 0,
        };
        assert!(d.crash_check(CrashPoint::BeforeWalAppend).is_ok());
        assert!(matches!(
            d.crash_check(CrashPoint::AfterWalAppend),
            Err(DurabilityError::InjectedCrash(CrashPoint::AfterWalAppend))
        ));
        // Dead means dead: even unarmed points now fail.
        assert!(matches!(
            d.crash_check(CrashPoint::BeforeWalAppend),
            Err(DurabilityError::Dead)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generation_scan_sees_only_renamed_images() {
        let dir = std::env::temp_dir().join(format!("sti-recover-scan-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(idx_path(&dir, 2), b"x").unwrap();
        std::fs::write(idx_path(&dir, 1), b"x").unwrap();
        // A save temp (crash before the rename), a meta file an older
        // release wrote, and a WAL segment are invisible.
        std::fs::write(dir.join("checkpoint-0000000000000004.idx.tmp"), b"x").unwrap();
        std::fs::write(dir.join("checkpoint-0000000000000003.meta"), b"x").unwrap();
        std::fs::write(dir.join("wal-0000000000000000.seg"), b"x").unwrap();
        assert_eq!(scan_generations(&dir).unwrap(), vec![1, 2]);
        // Pruning takes the temp with the images below the cut.
        assert_eq!(prune_below(&dir, 5).unwrap(), 3);
        assert!(scan_generations(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
