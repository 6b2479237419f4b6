//! Streaming bulk loader for the PPR-Tree.
//!
//! The incremental build replays one update at a time through
//! choose-subtree descent and version splits — faithful to the paper but
//! O(height) page I/O per update, which at millions of pieces means hours
//! of redundant reads. This module builds the same *kind* of structure
//! bottom-up and append-only, borrowing the Hilbert packing shape of
//! [`crate`]'s sibling `rstar::bulk` while respecting the partially
//! persistent invariants that plain R-Tree packers ignore:
//!
//! 1. **Order**: closed pieces are sorted by the Hilbert value of
//!    (MBR center, lifetime midpoint) — `hilbert3` over (x, y, t) — so
//!    that spatially and temporally close pieces land in the same leaf.
//!    The sort is external: pieces are spooled to sorted run files once a
//!    chunk limit is reached and k-way merged back, so the dataset is
//!    never resident in memory at once.
//! 2. **Grouping**: consecutive sorted pieces are grouped under a
//!    *concurrency cap* (`A_max = B/2`): the maximum number of group
//!    members alive at any instant stays below node capacity, which
//!    guarantees every packed node records fresh pieces (survivor
//!    re-posting cannot fill a node by itself). A piece that would
//!    breach the cap is *deferred* to seed the next group rather than
//!    cutting the current group short — cut-on-rejection makes groups a
//!    few instants wide, and such narrow groups never climb past the
//!    weak minimum `D` before their next death, cascading into
//!    near-empty pages.
//! 3. **Replay**: each group's births and deaths are replayed in time
//!    order through a chain of *windows* (physical nodes). A window
//!    closes exactly where the incremental tree would version-split:
//!    when a kill batch leaves fewer than `D` alive entries (the kills
//!    land at the close time, which the weak version condition exempts),
//!    or when recording one more birth would overflow the node. On
//!    close, still-alive members stay *frozen-alive* in the closed node
//!    — precisely what an incremental version split leaves behind — and
//!    are re-posted into the next window with `insertion = close`, so
//!    the window population persists across closes and recovers from
//!    transient dips below `D`; only a group's terminal decline carries
//!    its stragglers out to the next group.
//! 4. **Recursion**: each closed window emits a directory edge
//!    (`full_mbr`, `[start, close)`, page). Directory levels regroup
//!    edges by *space only* — Hilbert order of the edge centers, cut
//!    into regions that each span the whole timeline with a standing
//!    population of about `A_max` children, mirroring how incremental
//!    directory nodes partition space and persist — and pack level by
//!    level until the edges fit a root chain, whose window intervals
//!    become the [`RootSpan`] log.
//!
//! The result passes the same [`crate::check::validate`] as an
//! incrementally built tree, and the build is deterministic: the same
//! pieces in the same order produce byte-identical pages whether or not
//! the sort spilled to disk.

use crate::node::{PprEntry, PprNode, PprParams};
use crate::tree::{PprTree, RootSpan};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use sti_geom::{hilbert2, hilbert3, Rect2, Time, TimeInterval};
use sti_storage::{Page, PageId, PageStore, StorageError};

/// Upper bound on pieces per packing group. Groups are replayed in
/// memory; this caps the replay working set independently of the
/// concurrency cap. Larger groups span more of the timeline, so the
/// low-occupancy ramp at each group boundary amortizes over more full
/// capacity-closed pages.
const GROUP_MAX: usize = 512;

/// Upper bound on pieces deferred past the current group (they seed the
/// next one). When the backlog hits this, the group is flushed even if
/// it has room — the deferred pieces all landed on concurrency peaks,
/// so the group has saturated its cap.
const DEFER_MAX: usize = 128;

/// Default in-memory chunk size (records) before a sorted run is
/// spooled to disk. 64Ki × 56 B ≈ 3.5 MiB per chunk.
const DEFAULT_CHUNK: usize = 1 << 16;

/// Bytes per spooled sort record: key + rect + ptr + lifetime.
const RECORD_BYTES: usize = 8 + 32 + 8 + 4 + 4;

/// One closed input piece: a rectangle alive over `[insertion,
/// deletion)`. `deletion == TimeInterval::OPEN_END` marks a
/// still-alive piece.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BulkPiece {
    /// Spatial MBR of the piece.
    pub rect: Rect2,
    /// Object id (becomes the leaf entry's `ptr`).
    pub ptr: u64,
    /// Lifetime start (inclusive).
    pub insertion: Time,
    /// Lifetime end (exclusive), `TimeInterval::OPEN_END` while alive.
    pub deletion: Time,
}

impl BulkPiece {
    /// Half-open lifetime of the piece.
    pub fn lifetime(&self) -> TimeInterval {
        TimeInterval {
            start: self.insertion,
            end: self.deletion,
        }
    }

    fn contains_time(&self, t: Time) -> bool {
        self.insertion <= t && t < self.deletion
    }
}

/// The packing order: Hilbert value of (MBR center, lifetime midpoint
/// scaled by the evolution length). Still-alive pieces use their
/// insertion time as the midpoint.
fn hilbert_key(piece: &BulkPiece, max_time: Time) -> u64 {
    let c = piece.rect.center();
    let mid = if piece.deletion == TimeInterval::OPEN_END {
        piece.insertion
    } else {
        piece.insertion / 2 + piece.deletion / 2
    };
    hilbert3(c.x, c.y, f64::from(mid) / f64::from(max_time))
}

/// Why a bulk load failed.
#[derive(Debug)]
pub enum BulkError {
    /// Writing a packed page failed.
    Storage(StorageError),
    /// Reading or writing a sort spool file failed.
    Spool(std::io::Error),
    /// A piece had an empty lifetime or a non-finite rectangle.
    InvalidPiece {
        /// Object id of the offending piece.
        ptr: u64,
    },
    /// The root chain could not make progress: more pieces were alive at
    /// one instant than fit a root node. Unreachable through the capped
    /// group formation; kept as a typed error so replay stays total.
    RootOverflow {
        /// Alive entries that had to be carried.
        alive: usize,
    },
}

impl std::fmt::Display for BulkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BulkError::Storage(e) => write!(f, "storage error: {e}"),
            BulkError::Spool(e) => write!(f, "sort spool error: {e}"),
            BulkError::InvalidPiece { ptr } => {
                write!(f, "piece {ptr} has an empty lifetime or non-finite rect")
            }
            BulkError::RootOverflow { alive } => {
                write!(f, "root chain stuck: {alive} concurrently alive entries")
            }
        }
    }
}

impl std::error::Error for BulkError {}

impl From<StorageError> for BulkError {
    fn from(e: StorageError) -> Self {
        BulkError::Storage(e)
    }
}

impl From<std::io::Error> for BulkError {
    fn from(e: std::io::Error) -> Self {
        BulkError::Spool(e)
    }
}

/// Counters from one bulk load, for `stidx build --bulk --scale-stats`
/// and the scale-tier benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BulkStats {
    /// Input pieces accepted by [`BulkLoader::push`].
    pub pieces: u64,
    /// Total pages written (all levels plus the root chain).
    pub pages_written: u64,
    /// Pages written at leaf level.
    pub leaf_pages: u64,
    /// Height of the tallest root (leaf = 0).
    pub levels: u32,
    /// Entries recorded across all written nodes (fresh + re-posted).
    pub entries_recorded: u64,
    /// `entries_recorded / (pages_written · B)` — page utilization.
    pub fill_factor: f64,
    /// Peak node-sized working set held in memory during the build
    /// (pending directory edges + the active group).
    pub peak_resident_pages: u64,
    /// Sorted runs spooled to disk (0 when the input fit one chunk).
    pub spilled_runs: u64,
}

/// One 56-byte sort record: Hilbert key plus the piece itself. The
/// total order used everywhere is `(key, ptr, insertion, deletion)` —
/// rect coordinates are excluded so the comparator is total without
/// trusting float ordering.
#[derive(Debug, Clone, Copy)]
struct SortRecord {
    key: u64,
    piece: BulkPiece,
}

type SortKey = (u64, u64, Time, Time);

impl SortRecord {
    fn order_key(&self) -> SortKey {
        (
            self.key,
            self.piece.ptr,
            self.piece.insertion,
            self.piece.deletion,
        )
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.piece.rect.lo.x.to_le_bytes());
        out.extend_from_slice(&self.piece.rect.lo.y.to_le_bytes());
        out.extend_from_slice(&self.piece.rect.hi.x.to_le_bytes());
        out.extend_from_slice(&self.piece.rect.hi.y.to_le_bytes());
        out.extend_from_slice(&self.piece.ptr.to_le_bytes());
        out.extend_from_slice(&self.piece.insertion.to_le_bytes());
        out.extend_from_slice(&self.piece.deletion.to_le_bytes());
    }

    fn decode(buf: &[u8; RECORD_BYTES]) -> Self {
        let f = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[i..i + 8]);
            b
        };
        let t = |i: usize| {
            let mut b = [0u8; 4];
            b.copy_from_slice(&buf[i..i + 4]);
            b
        };
        SortRecord {
            key: u64::from_le_bytes(f(0)),
            piece: BulkPiece {
                rect: Rect2::from_bounds(
                    f64::from_le_bytes(f(8)),
                    f64::from_le_bytes(f(16)),
                    f64::from_le_bytes(f(24)),
                    f64::from_le_bytes(f(32)),
                ),
                ptr: u64::from_le_bytes(f(40)),
                insertion: Time::from_le_bytes(t(48)),
                deletion: Time::from_le_bytes(t(52)),
            },
        }
    }
}

/// Streaming bulk loader: [`BulkLoader::push`] pieces in any order,
/// then [`BulkLoader::finish`] into a page store. Peak memory is one
/// sort chunk plus the pending directory edges — the dataset itself is
/// spooled to `spool_dir` in sorted runs.
#[derive(Debug)]
pub struct BulkLoader {
    params: PprParams,
    max_time: Time,
    spool_dir: PathBuf,
    chunk_cap: usize,
    chunk: Vec<SortRecord>,
    runs: Vec<PathBuf>,
    pieces: u64,
    alive: u64,
    max_seen: Time,
}

impl BulkLoader {
    /// Start a bulk load. `max_time` is the (approximate) largest
    /// timestamp in the input, used only to normalize lifetime midpoints
    /// into the Hilbert cube — an under-estimate degrades packing
    /// locality, never correctness. Spool files are created under
    /// `spool_dir` (created if missing) and removed by `finish`.
    ///
    /// # Panics
    /// If `params` fail their own [`PprParams::validate`].
    pub fn new(params: PprParams, max_time: Time, spool_dir: impl Into<PathBuf>) -> Self {
        params.validate();
        Self {
            params,
            max_time: max_time.max(1),
            spool_dir: spool_dir.into(),
            chunk_cap: DEFAULT_CHUNK,
            chunk: Vec::new(),
            runs: Vec::new(),
            pieces: 0,
            alive: 0,
            max_seen: 0,
        }
    }

    /// Override the in-memory sort chunk size (records); floored at 1024
    /// so spill tests stay cheap without pathological run counts.
    pub fn chunk_capacity(mut self, cap: usize) -> Self {
        self.chunk_cap = cap.max(1024);
        self
    }

    /// Add one piece.
    ///
    /// # Errors
    /// [`BulkError::InvalidPiece`] for an empty lifetime or non-finite
    /// rect; [`BulkError::Spool`] if spilling a sorted run fails.
    pub fn push(&mut self, piece: BulkPiece) -> Result<(), BulkError> {
        let r = &piece.rect;
        let finite =
            r.lo.x.is_finite() && r.lo.y.is_finite() && r.hi.x.is_finite() && r.hi.y.is_finite();
        if piece.insertion >= piece.deletion || !finite || r.lo.x > r.hi.x || r.lo.y > r.hi.y {
            return Err(BulkError::InvalidPiece { ptr: piece.ptr });
        }
        let key = hilbert_key(&piece, self.max_time);
        self.pieces += 1;
        if piece.deletion == TimeInterval::OPEN_END {
            self.alive += 1;
            self.max_seen = self.max_seen.max(piece.insertion);
        } else {
            self.max_seen = self.max_seen.max(piece.deletion);
        }
        self.chunk.push(SortRecord { key, piece });
        if self.chunk.len() >= self.chunk_cap {
            self.spill_run()?;
        }
        Ok(())
    }

    fn spill_run(&mut self) -> Result<(), BulkError> {
        self.chunk.sort_unstable_by_key(SortRecord::order_key);
        fs::create_dir_all(&self.spool_dir)?;
        let path = self.spool_dir.join(format!(
            "sti-bulk-{}-run{}.tmp",
            std::process::id(),
            self.runs.len()
        ));
        let mut w = BufWriter::new(fs::File::create(&path)?);
        let mut buf = Vec::with_capacity(RECORD_BYTES);
        for rec in &self.chunk {
            buf.clear();
            rec.encode(&mut buf);
            w.write_all(&buf)?;
        }
        w.flush()?;
        self.runs.push(path);
        self.chunk.clear();
        Ok(())
    }

    /// Sort, pack, and assemble the tree into `store` (append-only page
    /// writes). Returns the finished tree and the build counters.
    ///
    /// # Errors
    /// Any [`BulkError`]; spool runs are removed on success and left
    /// behind (under the caller's `spool_dir`) on failure.
    pub fn finish(mut self, store: PageStore) -> Result<(PprTree, BulkStats), BulkError> {
        let mut stats = BulkStats {
            pieces: self.pieces,
            ..BulkStats::default()
        };
        let mut stream = if self.runs.is_empty() {
            self.chunk.sort_unstable_by_key(SortRecord::order_key);
            SortedStream::Mem(std::mem::take(&mut self.chunk).into_iter())
        } else {
            if !self.chunk.is_empty() {
                self.spill_run()?;
            }
            stats.spilled_runs = self.runs.len() as u64;
            SortedStream::merge(&self.runs)?
        };

        // Guard the pool from the first packed page on: the loader's
        // write-through installs are checked like any other.
        let mut store = store;
        store.set_validator(PprNode::well_formed);
        let fanout = self.params.max_entries;
        let a_max = (fanout / 2).max(1);
        let weak_min = self.params.weak_min();

        // Leaf pass: group the sorted stream, replay each group. Sub-`D`
        // survivors of a weak close are carried into the next group
        // (see `close_window`); cap-breaching pieces are deferred into
        // it (see `LevelPacker`).
        let mut edges: Vec<BulkPiece> = Vec::new();
        let mut packer = LevelPacker::new(0, weak_min, fanout, a_max);
        while let Some(piece) = stream.next()? {
            packer.push(piece, &mut store, &mut edges, &mut stats)?;
            let resident = (edges.len() + packer.resident()) as u64;
            stats.peak_resident_pages = stats.peak_resident_pages.max(resident);
        }
        packer.drain(&mut store, &mut edges, &mut stats)?;
        stats.leaf_pages = stats.pages_written;

        // Pack directory levels until the edges fit a root chain.
        // Directory edges are short-lived (every window closes within a
        // few instants), so unlike the leaf level there is no
        // space-and-time cell dense enough to keep `D` children alive at
        // once. The incremental tree solves this by making directory
        // nodes partition *space only* and persist across the whole
        // evolution; the packer mirrors that: edges are ordered by the
        // Hilbert value of their center alone and cut into regions whose
        // total lifetime mass sustains a standing population of about
        // `A_max` children, each region replayed as one timeline-spanning
        // group. A level whose edges are too sparse for even one region
        // to stay above the weak minimum (average concurrency below `D`)
        // is left to the root chain, which is exempt from the weak
        // condition — exactly how the incremental tree absorbs a
        // near-sequential history, as root log spans.
        let horizon = self.max_seen.max(1);
        let cc_cap = fanout.saturating_sub(weak_min + 1).max(1);
        let mut node_level = 1u32;
        let mut edge_level = 0u32;
        while edges.len() > fanout {
            if average_concurrency(&edges, horizon) < weak_min as f64 {
                break;
            }
            let before = edges.len();
            let regions = chunk_by_region(std::mem::take(&mut edges), horizon, a_max, cc_cap);
            let mut next: Vec<BulkPiece> = Vec::new();
            let mut carry: Vec<BulkPiece> = Vec::new();
            for mut region in regions {
                // Stragglers carried out of the previous region's
                // terminal decline join the (spatially adjacent) next
                // region; replay orders by time internally.
                region.append(&mut carry);
                replay_level(
                    &region,
                    node_level,
                    weak_min,
                    fanout,
                    &mut ReplaySinks {
                        store: &mut store,
                        stats: &mut stats,
                        carry: &mut carry,
                    },
                    &mut next,
                )?;
            }
            // A trailing carry replays alone; each round records at
            // least one death, so it strictly shrinks.
            while !carry.is_empty() {
                let region = std::mem::take(&mut carry);
                replay_level(
                    &region,
                    node_level,
                    weak_min,
                    fanout,
                    &mut ReplaySinks {
                        store: &mut store,
                        stats: &mut stats,
                        carry: &mut carry,
                    },
                    &mut next,
                )?;
            }
            stats.peak_resident_pages = stats.peak_resident_pages.max(next.len() as u64);
            edges = next;
            edge_level = node_level;
            node_level += 1;
            if edges.len() >= before {
                break;
            }
        }

        let roots = pack_roots(&edges, edge_level, fanout, &mut store, &mut stats)?;
        stats.levels = roots.iter().map(|s| s.level).max().unwrap_or(0);
        stats.fill_factor = if stats.pages_written == 0 {
            0.0
        } else {
            stats.entries_recorded as f64 / (stats.pages_written * fanout as u64) as f64
        };

        for path in &self.runs {
            let _ = fs::remove_file(path);
        }
        self.runs.clear();

        let tree = PprTree::assemble(
            store,
            self.params,
            roots,
            self.max_seen,
            self.alive,
            self.pieces,
        );
        Ok((tree, stats))
    }
}

/// Lifetime end clamped to the data horizon: still-open pieces count as
/// alive through `horizon` for sizing purposes.
fn clamped_end(p: &BulkPiece, horizon: Time) -> Time {
    p.deletion.min(horizon.saturating_add(1)).max(p.insertion)
}

/// Average number of pieces alive at one instant: total lifetime mass
/// over the occupied span. Sizes the directory regions and decides when
/// a level is too sparse to pack at all.
fn average_concurrency(pieces: &[BulkPiece], horizon: Time) -> f64 {
    let mut mass = 0u64;
    let mut lo = Time::MAX;
    let mut hi = 0;
    for p in pieces {
        let end = clamped_end(p, horizon);
        mass += u64::from(end - p.insertion);
        lo = lo.min(p.insertion);
        hi = hi.max(end);
    }
    if mass == 0 || hi <= lo {
        return 0.0;
    }
    mass as f64 / f64::from(hi - lo)
}

/// Bucketed timeline occupancy for region formation. Buckets are one
/// instant wide up to 4096 buckets, then coarsen; a piece counts in
/// every bucket its lifetime touches, so coarse buckets over-estimate
/// concurrency — the cap stays conservative, never violated.
struct Occupancy {
    lo: Time,
    width: u64,
    counts: Vec<usize>,
}

impl Occupancy {
    fn new(lo: Time, hi: Time) -> Self {
        let span = u64::from(hi.max(lo + 1) - lo);
        let n = span.min(4096);
        Self {
            lo,
            width: span.div_ceil(n),
            counts: vec![0; n as usize],
        }
    }

    fn clear(&mut self) {
        self.counts.fill(0);
    }

    fn buckets(&self, p: &BulkPiece, horizon: Time) -> std::ops::RangeInclusive<usize> {
        let first = u64::from(p.insertion.saturating_sub(self.lo)) / self.width;
        let last = u64::from(clamped_end(p, horizon).saturating_sub(self.lo)) / self.width;
        let top = self.counts.len().saturating_sub(1);
        (first as usize).min(top)..=(last as usize).min(top)
    }

    fn fits(&self, p: &BulkPiece, horizon: Time, cap: usize) -> bool {
        self.buckets(p, horizon)
            .all(|b| self.counts.get(b).is_some_and(|&c| c < cap))
    }

    fn add(&mut self, p: &BulkPiece, horizon: Time) {
        for b in self.buckets(p, horizon) {
            if let Some(c) = self.counts.get_mut(b) {
                *c += 1;
            }
        }
    }
}

/// Cut one directory level's edges into spatial regions. Edges are
/// ordered by the Hilbert value of their center (space only — each
/// region spans the whole timeline, like an incremental directory
/// node), then split once a region's lifetime mass would sustain about
/// `target_cc` concurrently alive children. `cc_cap` is a hard
/// per-instant ceiling, checked against bucketed occupancy: an edge
/// landing on a saturated instant spills to the next region, so replay
/// (which re-posts up to cap survivors plus a sub-`D` carry) can never
/// overflow a node.
fn chunk_by_region(
    mut edges: Vec<BulkPiece>,
    horizon: Time,
    target_cc: usize,
    cc_cap: usize,
) -> Vec<Vec<BulkPiece>> {
    edges.sort_unstable_by_key(|p| {
        let c = p.rect.center();
        (hilbert2(c.x, c.y), p.ptr, p.insertion, p.deletion)
    });
    let mut lo = Time::MAX;
    let mut hi = 0;
    for p in &edges {
        lo = lo.min(p.insertion);
        hi = hi.max(clamped_end(p, horizon));
    }
    let span = u64::from(hi.max(lo.saturating_add(1)) - lo);
    let target_mass = target_cc as u64 * span;

    let mut occ = Occupancy::new(lo, hi);
    let mut regions: Vec<Vec<BulkPiece>> = Vec::new();
    let mut cur: Vec<BulkPiece> = Vec::new();
    let mut cur_mass = 0u64;
    let mut spill: Vec<BulkPiece> = Vec::new();
    let admit = |p: BulkPiece,
                 occ: &mut Occupancy,
                 cur: &mut Vec<BulkPiece>,
                 cur_mass: &mut u64,
                 spill: &mut Vec<BulkPiece>| {
        if occ.fits(&p, horizon, cc_cap) {
            occ.add(&p, horizon);
            *cur_mass += u64::from(clamped_end(&p, horizon) - p.insertion);
            cur.push(p);
        } else {
            spill.push(p);
        }
    };

    for p in edges {
        admit(p, &mut occ, &mut cur, &mut cur_mass, &mut spill);
        if cur_mass >= target_mass {
            regions.push(std::mem::take(&mut cur));
            occ.clear();
            cur_mass = 0;
            // Spilled peak edges get first claim on the fresh region.
            for s in std::mem::take(&mut spill) {
                admit(s, &mut occ, &mut cur, &mut cur_mass, &mut spill);
            }
        }
    }
    // Drain the tail: every fresh region admits at least one spilled
    // edge (a lone piece never exceeds the cap), so this terminates.
    while !spill.is_empty() {
        for s in std::mem::take(&mut spill) {
            admit(s, &mut occ, &mut cur, &mut cur_mass, &mut spill);
        }
        if !spill.is_empty() {
            regions.push(std::mem::take(&mut cur));
            occ.clear();
            cur_mass = 0;
        }
    }
    if !cur.is_empty() {
        regions.push(cur);
    }
    regions
}

/// Group formation: admit consecutive sorted pieces while the group's
/// maximum concurrency (members alive at one instant) stays within
/// `a_max` and its size within [`GROUP_MAX`]. Concurrency is tracked
/// exactly: the maximum of a step function that rises only at
/// insertions is attained at some member's insertion time, so the
/// builder keeps, per member, the concurrency at that member's
/// insertion and updates it in O(group) per candidate.
#[derive(Debug)]
struct GroupBuilder {
    a_max: usize,
    members: Vec<BulkPiece>,
    cc_at_ins: Vec<usize>,
}

impl GroupBuilder {
    fn new(a_max: usize) -> Self {
        Self {
            a_max,
            members: Vec::new(),
            cc_at_ins: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.members.clear();
        self.cc_at_ins.clear();
    }

    fn try_add(&mut self, p: &BulkPiece) -> bool {
        if self.members.len() >= GROUP_MAX {
            return false;
        }
        let mut cc_p = 1usize;
        for m in &self.members {
            if m.contains_time(p.insertion) {
                cc_p += 1;
            }
        }
        if cc_p > self.a_max {
            return false;
        }
        for (m, &cc) in self.members.iter().zip(&self.cc_at_ins) {
            if p.contains_time(m.insertion) && cc + 1 > self.a_max {
                return false;
            }
        }
        self.commit(p, cc_p);
        true
    }

    /// Admit `p` unconditionally — used for carried-over survivors,
    /// which must land in the very next group. Carry batches are smaller
    /// than `D`, so the concurrency overshoot stays within the node
    /// capacity margin (`A_max + D < B` for the paper's parameters).
    fn force_add(&mut self, p: &BulkPiece) {
        let mut cc_p = 1usize;
        for m in &self.members {
            if m.contains_time(p.insertion) {
                cc_p += 1;
            }
        }
        self.commit(p, cc_p);
    }

    fn commit(&mut self, p: &BulkPiece, cc_p: usize) {
        for (m, cc) in self.members.iter().zip(self.cc_at_ins.iter_mut()) {
            if p.contains_time(m.insertion) {
                *cc += 1;
            }
        }
        self.members.push(*p);
        self.cc_at_ins.push(cc_p);
    }
}

/// Streams one level's pieces into groups, replaying each full group
/// and seeding its successor with carried survivors and deferred
/// pieces. Deferral is load-bearing: a cap-breaching piece is held for
/// the next group instead of ending the current one, so groups actually
/// reach [`GROUP_MAX`] members and a timeline span wide enough for
/// their windows to stay above the weak minimum between closes.
struct LevelPacker {
    level: u32,
    weak_min: usize,
    fanout: usize,
    group: GroupBuilder,
    deferred: Vec<BulkPiece>,
    carry: Vec<BulkPiece>,
}

impl LevelPacker {
    fn new(level: u32, weak_min: usize, fanout: usize, a_max: usize) -> Self {
        Self {
            level,
            weak_min,
            fanout,
            group: GroupBuilder::new(a_max),
            deferred: Vec::new(),
            carry: Vec::new(),
        }
    }

    /// Pieces buffered in memory (group members + deferral backlog).
    fn resident(&self) -> usize {
        self.group.members.len() + self.deferred.len()
    }

    /// Offer one piece; flushes the group when it or the deferral
    /// backlog is full.
    fn push(
        &mut self,
        p: BulkPiece,
        store: &mut PageStore,
        out: &mut Vec<BulkPiece>,
        stats: &mut BulkStats,
    ) -> Result<(), BulkError> {
        if !self.group.try_add(&p) {
            self.deferred.push(p);
        }
        if self.group.members.len() >= GROUP_MAX || self.deferred.len() >= DEFER_MAX {
            self.flush(store, out, stats)?;
        }
        Ok(())
    }

    /// Replay the current group; seed the successor with carried
    /// survivors, then re-offer the deferral backlog.
    fn flush(
        &mut self,
        store: &mut PageStore,
        out: &mut Vec<BulkPiece>,
        stats: &mut BulkStats,
    ) -> Result<(), BulkError> {
        let members = std::mem::take(&mut self.group.members);
        self.group.reset();
        if !members.is_empty() {
            replay_level(
                &members,
                self.level,
                self.weak_min,
                self.fanout,
                &mut ReplaySinks {
                    store,
                    stats,
                    carry: &mut self.carry,
                },
                out,
            )?;
        }
        for c in self.carry.drain(..) {
            self.group.force_add(&c);
        }
        let pending = std::mem::take(&mut self.deferred);
        let mut admitted = false;
        for p in pending {
            if self.group.try_add(&p) {
                admitted = true;
            } else {
                self.deferred.push(p);
            }
        }
        if !admitted && !self.deferred.is_empty() {
            // Progress guarantee: a backlog the carry-seeded successor
            // keeps rejecting would flush empty groups forever. Admit
            // the oldest piece by force — a one-piece cap overshoot,
            // well inside the `A_max + D < B` margin.
            let p = self.deferred.remove(0);
            self.group.force_add(&p);
        }
        Ok(())
    }

    /// Flush until the group, the backlog, and the carry are all empty.
    /// Terminates: every non-empty replay records at least one death
    /// (or closes open-ended), so the piece population strictly shrinks.
    fn drain(
        &mut self,
        store: &mut PageStore,
        out: &mut Vec<BulkPiece>,
        stats: &mut BulkStats,
    ) -> Result<(), BulkError> {
        while self.resident() > 0 {
            self.flush(store, out, stats)?;
        }
        Ok(())
    }
}

/// An open window of the replay: one physical node under construction.
struct Window {
    start: Time,
    node: PprNode,
    /// (piece index, entry index) of members still alive here.
    alive: Vec<(usize, usize)>,
}

/// Write `node` to a fresh page.
fn write_page(
    store: &mut PageStore,
    node: &PprNode,
    stats: &mut BulkStats,
) -> Result<PageId, BulkError> {
    let page = store.allocate()?;
    let mut buf = Page::zeroed();
    node.encode(&mut buf);
    store.write(page, buf.bytes().as_slice())?;
    stats.pages_written += 1;
    stats.entries_recorded += node.entries.len() as u64;
    Ok(page)
}

/// Close `w` at time `close` (or as a still-open node when `close ==
/// OPEN_END`), emit its edge, and return a successor window holding the
/// re-posted survivors. When fewer than `min_keep` survive, the
/// survivors go to `carry` instead: the caller passes `min_keep ==
/// usize::MAX` on a group's terminal decline, handing the stragglers to
/// the next group at this level — the bulk analogue of the incremental
/// strong-underflow sibling merge — and `0` everywhere else, so a
/// transient dip below the weak minimum keeps its population and
/// recovers instead of resetting to an empty window.
fn close_window(
    w: Window,
    close: Time,
    pieces: &[BulkPiece],
    min_keep: usize,
    sinks: &mut ReplaySinks<'_>,
    emit: &mut impl FnMut(Rect2, TimeInterval, PageId),
) -> Result<Option<Window>, BulkError> {
    let page = write_page(sinks.store, &w.node, sinks.stats)?;
    emit(
        w.node.full_mbr(),
        TimeInterval {
            start: w.start,
            end: close,
        },
        page,
    );
    if close == TimeInterval::OPEN_END || w.alive.is_empty() {
        return Ok(None);
    }
    if w.alive.len() < min_keep {
        for &(pi, _) in &w.alive {
            let Some(p) = pieces.get(pi) else {
                continue;
            };
            sinks.carry.push(BulkPiece {
                rect: p.rect,
                ptr: p.ptr,
                insertion: close,
                deletion: p.deletion,
            });
        }
        return Ok(None);
    }
    let mut next = Window {
        start: close,
        node: PprNode::new(w.node.level),
        alive: Vec::with_capacity(w.alive.len()),
    };
    for &(pi, _) in &w.alive {
        let Some(p) = pieces.get(pi) else {
            continue;
        };
        let idx = next.node.entries.len();
        next.node.entries.push(PprEntry {
            rect: p.rect,
            ptr: p.ptr,
            insertion: close,
            deletion: TimeInterval::OPEN_END,
        });
        next.alive.push((pi, idx));
    }
    Ok(Some(next))
}

/// The mutable sinks every replay pass threads through: the store the
/// nodes land in, the running build stats, and the carry list that
/// hands a group's terminal stragglers to the next group at its level.
struct ReplaySinks<'a> {
    store: &'a mut PageStore,
    stats: &'a mut BulkStats,
    carry: &'a mut Vec<BulkPiece>,
}

/// Replay one group's births and deaths through a window chain,
/// emitting one directory edge per window via `emit`. `weak_min == 0`
/// selects root mode: windows close only on capacity or when nothing is
/// alive (roots are exempt from the weak version condition).
fn replay_group(
    pieces: &[BulkPiece],
    node_level: u32,
    weak_min: usize,
    fanout: usize,
    sinks: &mut ReplaySinks<'_>,
    mut emit: impl FnMut(Rect2, TimeInterval, PageId),
) -> Result<(), BulkError> {
    // (time, kind, piece): deaths (kind 0) sort before births (kind 1)
    // at the same instant, so a kill batch is complete before any birth
    // decision at that time.
    let mut events: Vec<(Time, u8, usize)> = Vec::with_capacity(pieces.len() * 2);
    for (i, p) in pieces.iter().enumerate() {
        events.push((p.insertion, 1, i));
        if p.deletion != TimeInterval::OPEN_END {
            events.push((p.deletion, 0, i));
        }
    }
    events.sort_unstable();
    let close_min = weak_min.max(1);

    let mut window: Option<Window> = None;
    let mut births_done = 0usize;
    let mut i = 0usize;
    while let Some(&(t, _, _)) = events.get(i) {
        let mut any_death = false;
        while let Some(&(et, kind, pi)) = events.get(i) {
            if et != t || kind != 0 {
                break;
            }
            i += 1;
            any_death = true;
            if let Some(w) = window.as_mut() {
                if let Some(pos) = w.alive.iter().position(|&(p, _)| p == pi) {
                    let (_, ei) = w.alive.swap_remove(pos);
                    if let Some(e) = w.node.entries.get_mut(ei) {
                        e.deletion = t;
                    }
                }
            }
        }
        if any_death {
            let must_close = window.as_ref().is_some_and(|w| w.alive.len() < close_min);
            if must_close {
                // Kills at `t` land exactly at the close, which the weak
                // version condition exempts — same shape a version split
                // leaves behind. Survivors are re-posted into the
                // successor while this group still has births to come —
                // exporting them would reset the window population and
                // cascade into one near-empty page per death. Only the
                // terminal decline (no births left) carries them out.
                let keep = if births_done < pieces.len() {
                    0
                } else {
                    usize::MAX
                };
                if let Some(w) = window.take() {
                    window = close_window(w, t, pieces, keep, sinks, &mut emit)?;
                }
            }
        }
        while let Some(&(et, kind, pi)) = events.get(i) {
            if et != t || kind != 1 {
                break;
            }
            i += 1;
            births_done += 1;
            let Some(p) = pieces.get(pi) else {
                continue;
            };
            if window
                .as_ref()
                .is_some_and(|w| w.node.entries.len() >= fanout)
            {
                // Capacity close: a birth is arriving right now, so the
                // successor always keeps the survivors.
                if let Some(w) = window.take() {
                    window = close_window(w, t, pieces, 0, sinks, &mut emit)?;
                }
            }
            let w = window.get_or_insert_with(|| Window {
                start: t,
                node: PprNode::new(node_level),
                alive: Vec::new(),
            });
            if w.node.entries.len() >= fanout {
                // Survivor re-posting refilled the node: the concurrency
                // cap makes this unreachable below the root, and at the
                // root it means more simultaneous children than B.
                return Err(BulkError::RootOverflow {
                    alive: w.alive.len(),
                });
            }
            let idx = w.node.entries.len();
            w.node.entries.push(PprEntry {
                rect: p.rect,
                ptr: p.ptr,
                insertion: t,
                deletion: TimeInterval::OPEN_END,
            });
            w.alive.push((pi, idx));
        }
    }
    if let Some(w) = window.take() {
        close_window(
            w,
            TimeInterval::OPEN_END,
            pieces,
            weak_min,
            sinks,
            &mut emit,
        )?;
    }
    Ok(())
}

/// Replay a non-root group, appending the emitted edges to `out` as
/// pieces for the next level up.
fn replay_level(
    pieces: &[BulkPiece],
    node_level: u32,
    weak_min: usize,
    fanout: usize,
    sinks: &mut ReplaySinks<'_>,
    out: &mut Vec<BulkPiece>,
) -> Result<(), BulkError> {
    replay_group(
        pieces,
        node_level,
        weak_min,
        fanout,
        sinks,
        |rect, iv, page| {
            out.push(BulkPiece {
                rect,
                ptr: u64::from(page),
                insertion: iv.start,
                deletion: iv.end,
            });
        },
    )
}

/// Pack the final edges into the root chain. A single edge becomes a
/// [`RootSpan`] directly (that node *is* the root for its span);
/// otherwise the edges are replayed in root mode — close on capacity or
/// on the last death — and every window becomes one span.
fn pack_roots(
    edges: &[BulkPiece],
    edge_level: u32,
    fanout: usize,
    store: &mut PageStore,
    stats: &mut BulkStats,
) -> Result<Vec<RootSpan>, BulkError> {
    let mut roots: Vec<RootSpan> = Vec::new();
    match edges {
        [] => {}
        [only] => roots.push(RootSpan {
            interval: only.lifetime(),
            page: only.ptr as PageId,
            level: edge_level,
        }),
        many => {
            let level = edge_level + 1;
            // Root mode: `weak_min == 0` (roots are exempt), so nothing
            // is ever carried — the list stays empty by construction.
            let mut no_carry = Vec::new();
            replay_group(
                many,
                level,
                0,
                fanout,
                &mut ReplaySinks {
                    store,
                    stats,
                    carry: &mut no_carry,
                },
                |_, iv, page| {
                    roots.push(RootSpan {
                        interval: iv,
                        page,
                        level,
                    });
                },
            )?;
            debug_assert!(no_carry.is_empty());
            roots.sort_unstable_by_key(|s| s.interval.start);
        }
    }
    Ok(roots)
}

/// The sorted piece stream `finish` consumes: either the single sorted
/// in-memory chunk, or a k-way merge of spooled runs. Both paths use
/// the same total order, so the downstream build is byte-identical.
enum SortedStream {
    Mem(std::vec::IntoIter<SortRecord>),
    Merge {
        readers: Vec<RunReader>,
        heap: BinaryHeap<Reverse<HeapItem>>,
    },
}

struct RunReader {
    inner: BufReader<fs::File>,
}

impl RunReader {
    fn next(&mut self) -> Result<Option<SortRecord>, BulkError> {
        let mut buf = [0u8; RECORD_BYTES];
        match self.inner.read_exact(&mut buf) {
            Ok(()) => Ok(Some(SortRecord::decode(&buf))),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(BulkError::Spool(e)),
        }
    }
}

struct HeapItem {
    key: SortKey,
    run: usize,
    rec: SortRecord,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        (self.key, self.run) == (other.key, other.run)
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key, self.run).cmp(&(other.key, other.run))
    }
}

impl SortedStream {
    fn merge(runs: &[PathBuf]) -> Result<Self, BulkError> {
        let mut readers = Vec::with_capacity(runs.len());
        let mut heap = BinaryHeap::with_capacity(runs.len());
        for (i, path) in runs.iter().enumerate() {
            let mut r = RunReader {
                inner: BufReader::new(fs::File::open(path)?),
            };
            if let Some(rec) = r.next()? {
                heap.push(Reverse(HeapItem {
                    key: rec.order_key(),
                    run: i,
                    rec,
                }));
            }
            readers.push(r);
        }
        Ok(SortedStream::Merge { readers, heap })
    }

    fn next(&mut self) -> Result<Option<BulkPiece>, BulkError> {
        match self {
            SortedStream::Mem(it) => Ok(it.next().map(|r| r.piece)),
            SortedStream::Merge { readers, heap } => {
                let Some(Reverse(item)) = heap.pop() else {
                    return Ok(None);
                };
                if let Some(r) = readers.get_mut(item.run) {
                    if let Some(rec) = r.next()? {
                        heap.push(Reverse(HeapItem {
                            key: rec.order_key(),
                            run: item.run,
                            rec,
                        }));
                    }
                }
                Ok(Some(item.rec.piece))
            }
        }
    }
}
