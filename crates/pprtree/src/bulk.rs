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
//! 1. **Order**: pieces are sorted by the Hilbert value of their MBR
//!    center — space only. The sort is external: pieces are spooled to
//!    sorted run files once a chunk limit is reached and k-way merged
//!    back, so the dataset is never resident in memory at once.
//! 2. **Regions**: the ordered stream is cut into spatial *regions*
//!    that each span the whole timeline, the way an incremental node
//!    claims a patch of space and persists across the evolution. A
//!    region closes once its lifetime mass sustains a standing
//!    population of about `A_max = B/2` members, under a hard
//!    per-instant ceiling of `B − D − 1`: a piece landing on a saturated
//!    instant spills into the next region, so survivor re-posting can
//!    never fill a node by itself. Cutting space *and* time into cells
//!    instead makes every cell ramp a window chain up from empty and
//!    back down to a carried remnant, and the ramps are half-empty
//!    pages.
//! 3. **Replay**: each region's births and deaths are replayed in time
//!    order through a chain of *windows* (physical nodes). A window
//!    closes exactly where the incremental tree would version-split:
//!    when a kill batch leaves fewer than `D` alive entries (the kills
//!    land at the close time, which the weak version condition exempts),
//!    or when recording one more birth would overflow the node. On
//!    close, still-alive members stay *frozen-alive* in the closed node
//!    — precisely what an incremental version split leaves behind — and
//!    are re-posted into the next window with `insertion = close`, so
//!    the window population persists across closes and recovers from
//!    transient dips below `D`; only a region's terminal decline carries
//!    its stragglers out to the next region.
//! 4. **Recursion**: each closed window emits a directory edge
//!    (`full_mbr`, `[start, close)`, page). The edges of a level are
//!    ordered and cut by the same rule and replayed one level up, until
//!    they fit a root chain, whose window intervals become the
//!    [`RootSpan`] log.
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
use sti_geom::{hilbert2, Rect2, Time, TimeInterval};
use sti_storage::{Page, PageId, PageStore, StorageError};

/// Upper bound on pieces buffered for one region (members plus
/// spill). A region needs about `A_max · span / mean lifetime` pieces to
/// reach its target mass — independent of the dataset size but
/// unbounded in the span — and regions are replayed in memory, so a
/// sparse timeline is cut here instead. Where a region ends only
/// affects packing density, never correctness.
const REGION_MAX: usize = 1 << 15;

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
}

/// The packing order at every level: Hilbert value of the MBR center.
fn space_key(piece: &BulkPiece) -> u64 {
    let c = piece.rect.center();
    hilbert2(c.x, c.y)
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
    /// region formation; kept as a typed error so replay stays total.
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
    /// Peak number of pieces and edges held in memory during the build:
    /// the open region, its spill and carry, and the pending directory
    /// edges.
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

fn order_key(key: u64, piece: &BulkPiece) -> SortKey {
    (key, piece.ptr, piece.insertion, piece.deletion)
}

impl SortRecord {
    fn order_key(&self) -> SortKey {
        order_key(self.key, &self.piece)
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
/// sort chunk, one region and the pending directory edges — the dataset
/// itself is spooled to `spool_dir` in sorted runs.
#[derive(Debug)]
pub struct BulkLoader {
    params: PprParams,
    spool_dir: PathBuf,
    chunk_cap: usize,
    chunk: Vec<SortRecord>,
    runs: Vec<PathBuf>,
    pieces: u64,
    alive: u64,
    min_seen: Time,
    max_seen: Time,
}

impl BulkLoader {
    /// Start a bulk load. Spool files are created under `spool_dir`
    /// (created if missing) and removed by `finish`.
    ///
    /// # Panics
    /// If `params` fail their own [`PprParams::validate`].
    pub fn new(params: PprParams, spool_dir: impl Into<PathBuf>) -> Self {
        params.validate();
        Self {
            params,
            spool_dir: spool_dir.into(),
            chunk_cap: DEFAULT_CHUNK,
            chunk: Vec::new(),
            runs: Vec::new(),
            pieces: 0,
            alive: 0,
            min_seen: Time::MAX,
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
        let key = space_key(&piece);
        self.pieces += 1;
        self.min_seen = self.min_seen.min(piece.insertion);
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
        let weak_min = self.params.weak_min();
        let horizon = self.max_seen.max(1);
        let shape = LevelShape {
            fanout,
            weak_min,
            lo: self.min_seen,
            horizon,
        };

        // Level 0 reads the merged sort; every level above reads the
        // edges of the one below, ordered by the same key. A level whose
        // edges are too sparse for even one region to stay above the
        // weak minimum (average concurrency below `D`) is left to the
        // root chain, which is exempt from the weak condition — exactly
        // how the incremental tree absorbs a near-sequential history, as
        // root log spans.
        let mut level = 0u32;
        let mut edges = pack_level(|| stream.next(), level, &shape, &mut store, &mut stats)?;
        stats.leaf_pages = stats.pages_written;
        while edges.len() > fanout && average_concurrency(&edges, horizon) >= weak_min as f64 {
            let before = edges.len();
            stats.peak_resident_pages = stats.peak_resident_pages.max(before as u64);
            edges.sort_by_cached_key(|p| order_key(space_key(p), p));
            let mut ordered = edges.into_iter();
            level += 1;
            edges = pack_level(|| Ok(ordered.next()), level, &shape, &mut store, &mut stats)?;
            if edges.len() >= before {
                break;
            }
        }

        let roots = pack_roots(&edges, level, fanout, &mut store, &mut stats)?;
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
    span: u64,
    width: u64,
    counts: Vec<usize>,
}

impl Occupancy {
    /// Saturating throughout: an empty input arrives as
    /// `lo == Time::MAX`, `hi == 0`.
    fn new(lo: Time, hi: Time) -> Self {
        let span = u64::from(hi.saturating_sub(lo)).max(1);
        let n = span.min(4096);
        Self {
            lo,
            span,
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
        let clamp = |b: u64| usize::try_from(b).unwrap_or(top).min(top);
        clamp(first)..=clamp(last)
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

/// What every level of one build shares: node geometry and the
/// timeline `[lo, horizon]` the data occupies.
struct LevelShape {
    fanout: usize,
    weak_min: usize,
    lo: Time,
    horizon: Time,
}

/// Cuts a stream ordered by [`space_key`] into spatial regions — the one
/// grouping rule, for leaves and directory levels alike. Each region
/// spans the whole timeline, like an incremental node, and closes once
/// its lifetime mass would sustain about `B/2` concurrently alive
/// members (or at [`REGION_MAX`] buffered pieces). `cc_cap` is a hard
/// per-instant ceiling, checked against bucketed occupancy: a piece
/// landing on a saturated instant spills to the next region, so replay
/// (which re-posts up to cap survivors plus a sub-`D` carry) can never
/// overflow a node.
struct RegionCutter {
    horizon: Time,
    target_mass: u64,
    cc_cap: usize,
    occ: Occupancy,
    cur: Vec<BulkPiece>,
    cur_mass: u64,
    spill: Vec<BulkPiece>,
}

impl RegionCutter {
    fn new(shape: &LevelShape) -> Self {
        let occ = Occupancy::new(shape.lo, shape.horizon.saturating_add(1));
        let target_cc = (shape.fanout / 2).max(1) as u64;
        Self {
            horizon: shape.horizon,
            target_mass: target_cc.saturating_mul(occ.span),
            cc_cap: shape.fanout.saturating_sub(shape.weak_min + 1).max(1),
            occ,
            cur: Vec::new(),
            cur_mass: 0,
            spill: Vec::new(),
        }
    }

    /// Pieces buffered in memory (open region + spill).
    fn resident(&self) -> usize {
        self.cur.len() + self.spill.len()
    }

    fn admit(&mut self, p: BulkPiece) {
        if self.occ.fits(&p, self.horizon, self.cc_cap) {
            self.occ.add(&p, self.horizon);
            self.cur_mass += u64::from(clamped_end(&p, self.horizon) - p.insertion);
            self.cur.push(p);
        } else {
            self.spill.push(p);
        }
    }

    /// Offer the next piece in key order; returns the region it
    /// completed, if any.
    fn push(&mut self, p: BulkPiece) -> Option<Vec<BulkPiece>> {
        self.admit(p);
        (self.cur_mass >= self.target_mass || self.resident() >= REGION_MAX).then(|| self.cut())
    }

    /// Close the open region. Spilled pieces get first claim on the
    /// fresh one, which admits at least one of them (a lone piece never
    /// exceeds the cap).
    fn cut(&mut self) -> Vec<BulkPiece> {
        let region = std::mem::take(&mut self.cur);
        self.occ.clear();
        self.cur_mass = 0;
        for s in std::mem::take(&mut self.spill) {
            self.admit(s);
        }
        region
    }

    /// After the stream ends: the remaining regions, one per call.
    fn drain(&mut self) -> Option<Vec<BulkPiece>> {
        (self.resident() > 0).then(|| self.cut())
    }
}

/// Pack one level: cut the ordered stream `next` into regions and replay
/// each into nodes at `level`, returning their edges. Stragglers carried
/// out of a region's terminal decline join the (spatially adjacent) next
/// region; replay orders by time internally.
fn pack_level(
    mut next: impl FnMut() -> Result<Option<BulkPiece>, BulkError>,
    level: u32,
    shape: &LevelShape,
    store: &mut PageStore,
    stats: &mut BulkStats,
) -> Result<Vec<BulkPiece>, BulkError> {
    let mut cutter = RegionCutter::new(shape);
    let mut out: Vec<BulkPiece> = Vec::new();
    let mut carry: Vec<BulkPiece> = Vec::new();
    // The working set peaks right before a replay: `buffered` is what
    // the cutter still holds past the region it just closed.
    let mut replay = |mut region: Vec<BulkPiece>,
                      carry: &mut Vec<BulkPiece>,
                      buffered: usize|
     -> Result<(), BulkError> {
        let resident = (out.len() + region.len() + carry.len() + buffered) as u64;
        stats.peak_resident_pages = stats.peak_resident_pages.max(resident);
        region.append(carry);
        replay_level(
            &region,
            level,
            shape.weak_min,
            shape.fanout,
            &mut ReplaySinks {
                store: &mut *store,
                stats: &mut *stats,
                carry,
            },
            &mut out,
        )
    };
    while let Some(p) = next()? {
        if let Some(region) = cutter.push(p) {
            replay(region, &mut carry, cutter.resident())?;
        }
    }
    while let Some(region) = cutter.drain() {
        replay(region, &mut carry, cutter.resident())?;
    }
    // A trailing carry replays alone; each round records at least one
    // death, so it strictly shrinks.
    while !carry.is_empty() {
        replay(Vec::new(), &mut carry, 0)?;
    }
    Ok(out)
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
/// usize::MAX` on a region's terminal decline, handing the stragglers to
/// the next region at this level — the bulk analogue of the incremental
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
/// hands a region's terminal stragglers to the next region at its level.
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
                // successor while this region still has births to come —
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
        #[expect(
            clippy::cast_possible_truncation,
            reason = "an edge's ptr is the `u64::from(page)` replay_level gave it"
        )]
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
