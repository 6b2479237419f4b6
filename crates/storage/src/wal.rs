//! A checksummed, segmented write-ahead log for the ingest pipeline.
//!
//! The live pipeline (`sti_core::pipeline`) is atomic but, on its own,
//! not durable: a crash between `enqueue` and publication silently
//! loses every operation that never reached a saved index. This module
//! provides the byte-level durability substrate: an append-only log of
//! opaque payload records, split across fixed-growth segment files,
//! with every region checksummed so a torn tail is *detected and
//! truncated* while genuine corruption *fails closed* with a typed
//! [`WalError`] (DESIGN.md §8).
//!
//! On-disk layout (all little-endian):
//!
//! ```text
//! wal-<first_lsn:016x>.seg :=
//!   magic "STIWAL1\0" · first_lsn: u64 · header_xxh: u64   (24 bytes)
//!   record*
//! record :=
//!   len: u32 · len_xxh: u32 (truncated XXH64 of the len bytes)
//!   payload_xxh: u64 · payload: len bytes
//! ```
//!
//! Records carry no explicit sequence number on disk: a record's **LSN**
//! (log sequence number) is the segment's `first_lsn` plus its ordinal
//! within the segment, so LSNs are dense and segment files chain-check
//! each other — a missing middle segment is a typed
//! [`WalError::SequenceGap`], never a silently shortened history.
//!
//! The length field has its *own* checksum so the two failure families
//! stay distinguishable at the tail of the last segment:
//!
//! * a **torn write** (crash mid-append) leaves a *prefix* of a record —
//!   a short header or a short payload — which replay truncates
//!   fail-closed and [`Wal::open`] reports as a [`TornTail`];
//! * a **flipped byte** (disk corruption) fails a checksum — including a
//!   flip inside `len` that would otherwise masquerade as a torn write
//!   by pointing past the end of the file — and is a typed
//!   [`WalError::Corrupt`], never a silent truncation.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::checksum::xxh64;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Magic prefix of every WAL segment file (format version 1).
pub const WAL_MAGIC: &[u8; 8] = b"STIWAL1\0";

/// Segment header: magic, first LSN, and the header's own checksum.
const SEG_HEADER_LEN: usize = 8 + 8 + 8;

/// Record frame ahead of the payload: `len`, `len` checksum, payload
/// checksum.
const REC_HEADER_LEN: usize = 4 + 4 + 8;

/// Upper bound on one record's payload. Ingest operations are tens of
/// bytes; anything near this bound with a *valid* length checksum is
/// corruption that got lucky, so it fails closed instead of allocating.
pub const MAX_RECORD_LEN: usize = 1 << 24;

/// When appended records are pushed to the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged operation is durable
    /// the moment [`Wal::append`] returns. The zero-loss policy.
    Always,
    /// `fsync` only on explicit [`Wal::sync`] calls — the pipeline
    /// issues one per commit, so durability tracks publication.
    Commit,
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::Commit => f.write_str("commit"),
        }
    }
}

/// Tuning for a [`Wal`].
#[derive(Debug, Clone, Copy)]
pub struct WalConfig {
    /// Start a new segment once the active one reaches this many bytes
    /// (checked before each append; a segment always holds at least one
    /// record, so oversized records still land somewhere).
    pub segment_max_bytes: u64,
    /// When appends are fsynced.
    pub fsync: FsyncPolicy,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_max_bytes: 1 << 20,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// Why the log was rejected. Mirrors [`crate::persist::OpenError`]:
/// every malformed input maps to a typed variant; nothing panics and
/// nothing half-loads.
#[derive(Debug)]
pub enum WalError {
    /// A file operation failed.
    Io(io::Error),
    /// A segment file does not start with [`WAL_MAGIC`].
    BadMagic {
        /// The offending segment file.
        segment: PathBuf,
    },
    /// A checksummed region inside a segment failed verification, or a
    /// segment that is not the last one ends mid-record (an interior
    /// segment was sealed by a rotation, so it must end exactly on a
    /// record boundary).
    Corrupt {
        /// The offending segment file.
        segment: PathBuf,
        /// Byte offset of the bad region within the segment.
        offset: u64,
        /// Which check failed.
        what: &'static str,
    },
    /// Consecutive segments do not chain: the next segment's first LSN
    /// is not where the previous one stopped (a deleted or renamed
    /// middle segment).
    SequenceGap {
        /// The LSN the previous segment ran up to.
        expected: u64,
        /// The first LSN the next segment claims.
        found: u64,
    },
    /// A structural rule was violated (bad file name, oversized append).
    Malformed(&'static str),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal I/O error: {e}"),
            WalError::BadMagic { segment } => {
                write!(f, "{} is not a WAL segment", segment.display())
            }
            WalError::Corrupt {
                segment,
                offset,
                what,
            } => write!(
                f,
                "wal segment {} corrupt at byte {offset}: {what}",
                segment.display()
            ),
            WalError::SequenceGap { expected, found } => write!(
                f,
                "wal segment chain gap: expected first lsn {expected}, found {found}"
            ),
            WalError::Malformed(what) => write!(f, "malformed wal: {what}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// One replayed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number (dense, starting at the first
    /// segment's `first_lsn`).
    pub lsn: u64,
    /// The opaque payload exactly as appended.
    pub payload: Vec<u8>,
}

/// A torn write found (and truncated away) at the tail of the last
/// segment during [`Wal::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The segment whose tail was torn.
    pub segment: PathBuf,
    /// The record boundary the file was truncated back to.
    pub offset: u64,
    /// How many torn bytes were discarded.
    pub dropped_bytes: u64,
}

/// Counters a [`Wal`] accumulates for observability (exported as
/// `wal_*` metrics by the pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended through this handle.
    pub appends: u64,
    /// Payload + framing bytes appended.
    pub bytes: u64,
    /// `fsync` calls issued (policy-driven and explicit).
    pub fsyncs: u64,
    /// Segment files created (including the initial one).
    pub segments_created: u64,
    /// Obsolete segment files deleted by [`Wal::truncate_below`].
    pub segments_deleted: u64,
}

/// The result of opening a log directory: the writable log positioned
/// at its end, every intact record in order, and the torn-tail
/// truncation report if the last segment ended mid-record.
#[derive(Debug)]
pub struct WalOpen {
    /// The log, ready for [`Wal::append`].
    pub wal: Wal,
    /// Every valid record, in LSN order.
    pub records: Vec<WalRecord>,
    /// Present when a torn tail was detected and truncated fail-closed.
    pub torn: Option<TornTail>,
}

/// An append-only, checksummed, segmented log of opaque payloads.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    config: WalConfig,
    /// `(first_lsn, path)` of every live segment, oldest first; the
    /// last entry is the active segment.
    segments: Vec<(u64, PathBuf)>,
    active: File,
    active_len: u64,
    next_lsn: u64,
    /// An append has not reached the disk yet.
    unsynced: bool,
    stats: WalStats,
}

impl Wal {
    /// Open (creating if needed) the log rooted at `dir`, replaying
    /// every segment. A torn tail in the *last* segment is truncated
    /// back to the previous record boundary and reported; any other
    /// inconsistency — corruption, a gap in the segment chain, a short
    /// interior segment — is a typed error and nothing is modified.
    pub fn open(dir: &Path, config: WalConfig) -> Result<WalOpen, WalError> {
        std::fs::create_dir_all(dir)?;
        let mut segments = scan_segments(dir)?;

        let mut records = Vec::new();
        let mut torn = None;
        let mut next_lsn = segments.first().map(|&(lsn, _)| lsn).unwrap_or(0);
        let mut active_len = SEG_HEADER_LEN as u64;
        let mut created = 0u64;

        for (i, (first_lsn, path)) in segments.iter().enumerate() {
            let last = i + 1 == segments.len();
            if *first_lsn != next_lsn {
                return Err(WalError::SequenceGap {
                    expected: next_lsn,
                    found: *first_lsn,
                });
            }
            let bytes = std::fs::read(path)?;
            let outcome = replay_segment(path, *first_lsn, &bytes, last, &mut records)?;
            next_lsn = outcome.next_lsn;
            if last {
                active_len = outcome.keep_bytes;
            }
            if outcome.keep_bytes < bytes.len() as u64 {
                // Torn tail (last segment only — replay_segment errors
                // otherwise): truncate fail-closed so the next append
                // starts on a clean record boundary.
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(outcome.keep_bytes)?;
                f.sync_all()?;
                torn = Some(TornTail {
                    segment: path.clone(),
                    offset: outcome.keep_bytes,
                    dropped_bytes: bytes.len() as u64 - outcome.keep_bytes,
                });
            }
        }

        let active = match segments.last() {
            Some((_, path)) => OpenOptions::new().append(true).open(path)?,
            None => {
                let path = segment_path(dir, 0);
                let f = create_segment(&path, 0)?;
                sync_dir(dir)?;
                segments.push((0, path));
                created = 1;
                f
            }
        };

        Ok(WalOpen {
            wal: Wal {
                dir: dir.to_path_buf(),
                config,
                segments,
                active,
                active_len,
                next_lsn,
                unsynced: false,
                stats: WalStats {
                    segments_created: created,
                    ..WalStats::default()
                },
            },
            records,
            torn,
        })
    }

    /// Append one payload record, applying the fsync policy. Returns
    /// the record's LSN. On any error the in-memory cursor is
    /// unchanged; the bytes that may have partially reached the file
    /// are exactly the torn tail [`Wal::open`] truncates away.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, WalError> {
        crate::lock::assert_unlocked("WAL append");
        if payload.len() > MAX_RECORD_LEN {
            return Err(WalError::Malformed("record payload over MAX_RECORD_LEN"));
        }
        if self.active_len >= self.config.segment_max_bytes
            && self.active_len > SEG_HEADER_LEN as u64
        {
            self.rotate()?;
        }
        let len_bytes = u32_bytes(payload.len())?;
        let mut frame = Vec::with_capacity(REC_HEADER_LEN + payload.len());
        frame.extend_from_slice(&len_bytes);
        frame.extend_from_slice(&truncate_sum(xxh64(&len_bytes)).to_le_bytes());
        frame.extend_from_slice(&xxh64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.active.write_all(&frame)?;
        self.active_len += frame.len() as u64;
        self.unsynced = true;
        self.stats.appends += 1;
        self.stats.bytes += frame.len() as u64;
        match self.config.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Commit => {}
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Push every unsynced append to the disk (a no-op when nothing is
    /// pending). The pipeline calls this at each commit under
    /// [`FsyncPolicy::Commit`] and before every checkpoint.
    pub fn sync(&mut self) -> Result<(), WalError> {
        crate::lock::assert_unlocked("WAL sync");
        if self.unsynced {
            self.active.sync_data()?;
            self.unsynced = false;
            self.stats.fsyncs += 1;
        }
        Ok(())
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Number of live segment files.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Accumulated counters for metrics export.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Delete every segment whose records *all* precede `lsn` (the
    /// checkpoint/truncation protocol: a checkpoint that captured
    /// state through `lsn` makes older records unreachable). The
    /// active segment is never deleted. Returns how many files went.
    pub fn truncate_below(&mut self, lsn: u64) -> Result<u64, WalError> {
        let mut deleted = 0u64;
        // A segment's records end where the next segment begins, so
        // segment i is obsolete iff segments[i + 1].first_lsn <= lsn.
        while self.segments.len() > 1 {
            let next_first = match self.segments.get(1) {
                Some(&(first, _)) => first,
                None => break, // unreachable: len > 1 checked
            };
            if next_first > lsn {
                break;
            }
            let (_, path) = self.segments.remove(0);
            std::fs::remove_file(&path)?;
            deleted += 1;
        }
        if deleted > 0 {
            sync_dir(&self.dir)?;
            self.stats.segments_deleted += deleted;
        }
        Ok(deleted)
    }

    /// Seal the active segment and start a new one at `next_lsn`.
    fn rotate(&mut self) -> Result<(), WalError> {
        // Everything in the sealed segment must be durable before the
        // log continues elsewhere, whatever the fsync policy: replay
        // treats a short *interior* segment as corruption.
        self.active.sync_data()?;
        if self.unsynced {
            self.unsynced = false;
            self.stats.fsyncs += 1;
        }
        let path = segment_path(&self.dir, self.next_lsn);
        self.active = create_segment(&path, self.next_lsn)?;
        sync_dir(&self.dir)?;
        self.segments.push((self.next_lsn, path));
        self.active_len = SEG_HEADER_LEN as u64;
        self.stats.segments_created += 1;
        Ok(())
    }
}

/// `dir/wal-<first_lsn>.seg`, zero-padded so lexicographic order is
/// LSN order.
fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{first_lsn:016x}.seg"))
}

/// Create a fresh segment file with a checksummed header, synced.
fn create_segment(path: &Path, first_lsn: u64) -> Result<File, WalError> {
    let mut header = Vec::with_capacity(SEG_HEADER_LEN);
    header.extend_from_slice(WAL_MAGIC);
    header.extend_from_slice(&first_lsn.to_le_bytes());
    header.extend_from_slice(&xxh64(&header).to_le_bytes());
    // Plain write mode (not append): the cursor sits right after the
    // header and this handle only ever writes sequentially.
    let mut f = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(path)?;
    f.write_all(&header)?;
    f.sync_all()?;
    Ok(f)
}

/// List `wal-*.seg` files under `dir`, sorted by their first LSN.
/// Non-WAL files (checkpoints share the directory) are ignored;
/// WAL-shaped names that don't parse are a typed error, not a skip.
fn scan_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, WalError> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(middle) = name
            .strip_prefix("wal-")
            .and_then(|rest| rest.strip_suffix(".seg"))
        else {
            continue;
        };
        let Ok(first_lsn) = u64::from_str_radix(middle, 16) else {
            return Err(WalError::Malformed("unparseable wal segment file name"));
        };
        out.push((first_lsn, entry.path()));
    }
    out.sort_unstable_by_key(|&(lsn, _)| lsn);
    Ok(out)
}

/// What replaying one segment concluded.
struct SegmentReplay {
    /// The LSN following this segment's last valid record.
    next_lsn: u64,
    /// Bytes of the file that are valid (header + whole records); any
    /// surplus is a torn tail the caller truncates.
    keep_bytes: u64,
}

/// Validate and replay one segment image. `last` relaxes the
/// end-of-file rules: only the final segment of the chain may end
/// mid-record (a torn append), and only there is truncation legal.
fn replay_segment(
    path: &Path,
    first_lsn: u64,
    bytes: &[u8],
    last: bool,
    records: &mut Vec<WalRecord>,
) -> Result<SegmentReplay, WalError> {
    let corrupt = |offset: usize, what: &'static str| WalError::Corrupt {
        segment: path.to_path_buf(),
        offset: offset as u64,
        what,
    };
    if bytes.len() < SEG_HEADER_LEN {
        if last {
            // A crash between segment creation and the header write
            // leaves a short header; there is nothing to keep.
            return Ok(SegmentReplay {
                next_lsn: first_lsn,
                keep_bytes: 0,
            });
        }
        return Err(corrupt(0, "interior segment shorter than its header"));
    }
    if slice(bytes, 0, 8)? != WAL_MAGIC {
        return Err(WalError::BadMagic {
            segment: path.to_path_buf(),
        });
    }
    let header_sum = u64::from_le_bytes(arr8(slice(bytes, 16, 8)?)?);
    if xxh64(slice(bytes, 0, 16)?) != header_sum {
        return Err(corrupt(0, "segment header checksum"));
    }
    let header_lsn = u64::from_le_bytes(arr8(slice(bytes, 8, 8)?)?);
    if header_lsn != first_lsn {
        return Err(corrupt(8, "segment header lsn disagrees with file name"));
    }

    let mut lsn = first_lsn;
    let mut at = SEG_HEADER_LEN;
    while at < bytes.len() {
        let remaining = bytes.len() - at;
        if remaining < REC_HEADER_LEN {
            if last {
                break; // torn mid-header
            }
            return Err(corrupt(at, "interior segment ends mid-record"));
        }
        let len_bytes = slice(bytes, at, 4)?;
        let len_sum = u32::from_le_bytes(arr4(slice(bytes, at + 4, 4)?)?);
        if truncate_sum(xxh64(len_bytes)) != len_sum {
            return Err(corrupt(at, "record length checksum"));
        }
        let len = u32::from_le_bytes(arr4(len_bytes)?) as usize;
        if len > MAX_RECORD_LEN {
            return Err(corrupt(at, "record length over MAX_RECORD_LEN"));
        }
        if remaining - REC_HEADER_LEN < len {
            if last {
                break; // torn mid-payload: the length itself verified
            }
            return Err(corrupt(at, "interior segment ends mid-record"));
        }
        let payload_sum = u64::from_le_bytes(arr8(slice(bytes, at + 8, 8)?)?);
        let payload = slice(bytes, at + REC_HEADER_LEN, len)?;
        if xxh64(payload) != payload_sum {
            return Err(corrupt(at, "record payload checksum"));
        }
        records.push(WalRecord {
            lsn,
            payload: payload.to_vec(),
        });
        lsn += 1;
        at += REC_HEADER_LEN + len;
    }
    Ok(SegmentReplay {
        next_lsn: lsn,
        keep_bytes: at as u64,
    })
}

/// Make directory-entry changes (created/deleted segments) durable.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The low 32 bits of a 64-bit digest (the length field's checksum).
fn truncate_sum(sum: u64) -> u32 {
    (sum & 0xffff_ffff).try_into().unwrap_or(0) // unreachable: masked to 32 bits above
}

fn u32_bytes(n: usize) -> Result<[u8; 4], WalError> {
    u32::try_from(n)
        .map(|v| v.to_le_bytes())
        .map_err(|_| WalError::Malformed("record length exceeds u32"))
}

/// Fallible bounds-checked subslice: every frame field read goes
/// through here so a bad offset surfaces as a decode error, never a
/// slice panic on the recovery path.
fn slice(bytes: &[u8], at: usize, len: usize) -> Result<&[u8], WalError> {
    at.checked_add(len)
        .and_then(|end| bytes.get(at..end))
        .ok_or(WalError::Malformed("frame field out of bounds"))
}

fn arr8(b: &[u8]) -> Result<[u8; 8], WalError> {
    <[u8; 8]>::try_from(b).map_err(|_| WalError::Malformed("not an 8-byte field"))
}

fn arr4(b: &[u8]) -> Result<[u8; 4], WalError> {
    <[u8; 4]>::try_from(b).map_err(|_| WalError::Malformed("not a 4-byte field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sti-wal-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn open(dir: &Path, config: WalConfig) -> WalOpen {
        Wal::open(dir, config).expect("open wal")
    }

    #[test]
    fn round_trips_records_across_segment_rotation() {
        let dir = temp_dir("roundtrip");
        let config = WalConfig {
            segment_max_bytes: 64, // force rotation every couple records
            fsync: FsyncPolicy::Always,
        };
        let mut w = open(&dir, config).wal;
        for i in 0..20u64 {
            let lsn = w.append(&i.to_le_bytes()).expect("append");
            assert_eq!(lsn, i);
        }
        assert!(w.segment_count() > 1, "rotation must have fired");
        assert_eq!(w.next_lsn(), 20);
        drop(w);

        let back = open(&dir, config);
        assert!(back.torn.is_none());
        assert_eq!(back.records.len(), 20);
        for (i, r) in back.records.iter().enumerate() {
            assert_eq!(r.lsn, i as u64);
            assert_eq!(r.payload, (i as u64).to_le_bytes());
        }
        assert_eq!(back.wal.next_lsn(), 20);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_after_reopen_continues_the_lsn_sequence() {
        let dir = temp_dir("reopen");
        let config = WalConfig::default();
        let mut w = open(&dir, config).wal;
        w.append(b"a").unwrap();
        w.append(b"b").unwrap();
        drop(w);
        let mut back = open(&dir, config);
        assert_eq!(back.records.len(), 2);
        assert_eq!(back.wal.append(b"c").unwrap(), 2);
        drop(back);
        let again = open(&dir, config);
        assert_eq!(
            again.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policies_sync_when_promised() {
        let dir = temp_dir("fsync");
        let mut w = open(
            &dir,
            WalConfig {
                fsync: FsyncPolicy::Always,
                ..WalConfig::default()
            },
        )
        .wal;
        w.append(b"x").unwrap();
        w.append(b"y").unwrap();
        assert_eq!(w.stats().fsyncs, 2, "always: one fsync per append");
        std::fs::remove_dir_all(&dir).ok();

        let dir = temp_dir("fsync-commit");
        let mut w = open(
            &dir,
            WalConfig {
                fsync: FsyncPolicy::Commit,
                ..WalConfig::default()
            },
        )
        .wal;
        for _ in 0..5 {
            w.append(b"x").unwrap();
        }
        assert_eq!(w.stats().fsyncs, 0, "commit policy never syncs on append");
        w.sync().unwrap();
        assert_eq!(w.stats().fsyncs, 1, "explicit sync flushes the leftover");
        w.sync().unwrap();
        assert_eq!(w.stats().fsyncs, 1, "sync with nothing pending is free");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-append leaves a record prefix; reopen must keep the
    /// intact records, report the torn tail, truncate the file, and
    /// resume appending at the right LSN.
    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let dir = temp_dir("torn");
        let config = WalConfig::default();
        let mut w = open(&dir, config).wal;
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let (_, seg) = w.segments.last().expect("segment").clone();
        drop(w);
        // Tear the last record: drop its final 3 payload bytes.
        let full = std::fs::read(&seg).unwrap();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(full.len() as u64 - 3).unwrap();
        drop(f);

        let back = open(&dir, config);
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].payload, b"first");
        let torn = back.torn.expect("torn tail reported");
        assert_eq!(torn.dropped_bytes, (REC_HEADER_LEN + 6 - 3) as u64);
        assert_eq!(
            std::fs::metadata(&seg).unwrap().len(),
            torn.offset,
            "file truncated to the record boundary"
        );
        // The torn record's LSN is reused: it was never acknowledged
        // as durable by a completed append.
        let mut w = back.wal;
        assert_eq!(w.append(b"replacement").unwrap(), 1);
        drop(w);
        let again = open(&dir, config);
        assert!(again.torn.is_none());
        assert_eq!(again.records[1].payload, b"replacement");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncation to just a header, or to an empty file (crash between
    /// create and header write), both reopen cleanly.
    #[test]
    fn torn_header_resets_the_segment() {
        let dir = temp_dir("torn-header");
        let config = WalConfig::default();
        let mut w = open(&dir, config).wal;
        w.append(b"payload").unwrap();
        let (_, seg) = w.segments.last().expect("segment").clone();
        drop(w);
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(10).unwrap(); // mid-header tear
        drop(f);

        let back = open(&dir, config);
        assert_eq!(back.records.len(), 0);
        assert_eq!(back.torn.expect("reported").dropped_bytes, 10);
        let mut w = back.wal;
        assert_eq!(w.append(b"again").unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every single-byte flip in a sealed log is a typed error — never
    /// a panic, never a silent truncation. This is the storage-level
    /// half of the crash-matrix acceptance criterion.
    #[test]
    fn every_byte_flip_fails_closed() {
        let dir = temp_dir("flip");
        let config = WalConfig::default();
        let mut w = open(&dir, config).wal;
        w.append(b"alpha").unwrap();
        w.append(b"beta-longer-payload").unwrap();
        let (_, seg) = w.segments.last().expect("segment").clone();
        drop(w);
        let clean = std::fs::read(&seg).unwrap();
        for at in 0..clean.len() {
            let mut bad = clean.clone();
            bad[at] ^= 0x20;
            std::fs::write(&seg, &bad).unwrap();
            let result = Wal::open(&dir, config);
            match result {
                Err(
                    WalError::BadMagic { .. }
                    | WalError::Corrupt { .. }
                    | WalError::SequenceGap { .. }
                    | WalError::Malformed(_),
                ) => {}
                Err(other) => panic!("flip at {at}: unexpected error {other:?}"),
                Ok(opened) => panic!(
                    "flip at {at} went unnoticed ({} records)",
                    opened.records.len()
                ),
            }
        }
        std::fs::write(&seg, &clean).unwrap();
        assert_eq!(open(&dir, config).records.len(), 2, "clean log still reads");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_middle_segment_is_a_sequence_gap() {
        let dir = temp_dir("gap");
        let config = WalConfig {
            segment_max_bytes: 40,
            fsync: FsyncPolicy::Commit,
        };
        let mut w = open(&dir, config).wal;
        for i in 0..12u64 {
            w.append(&[0u8; 16][..(i as usize % 16)]).unwrap();
        }
        assert!(w.segment_count() >= 3);
        let (_, victim) = w.segments[1].clone();
        drop(w);
        std::fs::remove_file(&victim).unwrap();
        let err = Wal::open(&dir, config).unwrap_err();
        assert!(matches!(err, WalError::SequenceGap { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncate_below_deletes_only_fully_covered_segments() {
        let dir = temp_dir("truncate");
        let config = WalConfig {
            segment_max_bytes: 48,
            fsync: FsyncPolicy::Commit,
        };
        let mut w = open(&dir, config).wal;
        for _ in 0..12 {
            w.append(b"0123456789").unwrap();
        }
        w.sync().unwrap();
        let segs = w.segment_count();
        assert!(segs >= 3, "need several segments, got {segs}");
        let second_first = w.segments[1].0;

        // Truncating below the second segment's first LSN deletes only
        // the first segment.
        assert_eq!(w.truncate_below(second_first).unwrap(), 1);
        assert_eq!(w.segment_count(), segs - 1);
        // Truncating below an LSN inside a segment keeps that segment.
        let last_first = w.segments.last().expect("active").0;
        w.truncate_below(last_first).unwrap();
        assert_eq!(w.segment_count(), 1, "active segment survives");
        assert_eq!(w.truncate_below(u64::MAX).unwrap(), 0);
        drop(w);

        // The remaining chain replays from a nonzero first LSN.
        let back = open(&dir, config);
        assert_eq!(back.records.first().expect("records").lsn, last_first);
        assert_eq!(back.wal.next_lsn(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_are_ignored_but_bad_names_fail() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("checkpoint-00000001.idx"), b"not a segment").unwrap();
        let config = WalConfig::default();
        let mut w = open(&dir, config).wal;
        w.append(b"ok").unwrap();
        drop(w);
        std::fs::write(dir.join("wal-zzzz.seg"), b"junk").unwrap();
        let err = Wal::open(&dir, config).unwrap_err();
        assert!(matches!(err, WalError::Malformed(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_appends_are_refused() {
        let dir = temp_dir("oversize");
        let mut w = open(&dir, WalConfig::default()).wal;
        let big = vec![0u8; MAX_RECORD_LEN + 1];
        let err = w.append(&big).unwrap_err();
        assert!(matches!(err, WalError::Malformed(_)), "{err:?}");
        assert_eq!(w.next_lsn(), 0, "refused append consumes no LSN");
        std::fs::remove_dir_all(&dir).ok();
    }
}
