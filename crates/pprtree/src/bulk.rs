//! Streaming bulk loader for the PPR-Tree.
//!
//! The incremental build replays one update at a time through
//! choose-subtree descent and version splits — faithful to the paper but
//! O(height) page I/O per update, which at millions of pieces means hours
//! of redundant reads. This module builds the same *kind* of structure
//! bottom-up and append-only, borrowing the Sort-Tile-Recursive packing
//! shape of [`crate`]'s sibling `rstar::bulk` while respecting the
//! partially persistent invariants that plain R-Tree packers ignore:
//!
//! 1. **Order**: pieces are tiled the STR way by their MBR center —
//!    space only. The external sort orders them by center x: pieces are
//!    spooled to sorted run files once a chunk limit is reached and
//!    k-way merged back, so the dataset is never resident in memory at
//!    once. The merged stream is cut into `S` *slabs* of `⌈N/S⌉` pieces,
//!    and each slab is sorted in memory by center y, the direction
//!    alternating from slab to slab, so consecutive pieces stay
//!    neighbours across a slab boundary too. `S` is not a knob: with `R`
//!    the number of regions the leaf level cuts into (its average
//!    concurrency over `B/2`), `S = ⌈√(2R)⌉`, never more than `R`
//!    (`slab_count`).
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
//!    ordered by the leaves' tiling — each goes to its slab by binary
//!    search over the leaf slabs' first x keys, then by y in that slab's
//!    direction — cut by the same rule and replayed one level up, until
//!    they fit a root chain, whose window intervals become the
//!    [`RootSpan`] log.
//!
//! The result passes the same [`crate::check::validate`] as an
//! incrementally built tree, and the build is deterministic: the same
//! pieces in the same order produce byte-identical pages whether or not
//! the sort spilled to disk.
//!
//! Cost per page and per piece:
//!
//! * **Runs of new pages.** Every page the loader packs is new, so it
//!   has no pre-image to keep. A node gets the id it will have once the
//!   pending run lands — the store's length plus the pages ahead of it —
//!   and 8 pages (`RUN_PAGES`) at a time go to the store as one
//!   [`PageStore::append_run`]: one write and one read-back of the whole
//!   run on a file, with every check `PageStore::write` makes per page.
//! * **Keys.** A center coordinate's key is its float bits, remapped so
//!   integer order is float order (`ordered_bits`). The x key is set
//!   per chunk when it is sorted and the y key once per piece when its
//!   slab is; each region's births and deaths are replayed from one
//!   packed `u64` per event, sorted in place.
//! * **Spool.** Each loader names its runs after a process-wide loader
//!   number and creates them exclusively, so two loads sharing a spool
//!   directory cannot overwrite each other; a run's record count is kept
//!   at spill, and a run that comes back shorter or longer fails the
//!   merge instead of dropping pieces. A loader's runs are removed when
//!   it is dropped, finished or not.
//! * **Phases.** [`BulkStats`] reports seconds for the sort (chunks and
//!   slabs), the leaf pass, the directory and the page writes, from one
//!   clock pair per chunk, slab, level or run.

use crate::node::{PprEntry, PprNode, PprParams};
use crate::tree::{PprTree, RootSpan};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use sti_geom::{Rect2, Time, TimeInterval};
use sti_storage::{PageId, PageStore, StorageError, PAGE_SIZE};

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

/// Most pieces in one leaf slab: one default sort chunk.
const SLAB_MAX: usize = DEFAULT_CHUNK;

/// Packed pages per [`PageStore::append_run`]: 32 KiB.
const RUN_PAGES: usize = 8;

/// Loaders started in this process. Each takes the next number and
/// names its spool runs after it.
static LOADERS: AtomicU64 = AtomicU64::new(0);

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

/// A float's bits, remapped so that unsigned order is the float's
/// order: the sign bit flipped for positives, every bit for negatives.
fn ordered_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The external sort's key: MBR center x.
fn x_key(piece: &BulkPiece) -> u64 {
    ordered_bits(piece.rect.center().x)
}

/// The key within a slab: MBR center y, descending in odd slabs.
fn y_key(piece: &BulkPiece, slab: usize) -> u64 {
    let y = ordered_bits(piece.rect.center().y);
    if slab.is_multiple_of(2) {
        y
    } else {
        !y
    }
}

/// Slabs of the tiling for a level of lifetime mass `mass` whose regions
/// each take `region_mass`, so `R = mass / region_mass` regions:
/// the least `S` with `S² ≥ 2R`, but never more slabs than regions, so a
/// slab holds at least one region. `R ≤ 1` gives one slab — plain y
/// order. DESIGN.md §11 has the sweep that chose the rule.
fn slab_count(mass: u128, region_mass: u128) -> usize {
    let mut s: u128 = 1;
    while region_mass > 0 && s * s * region_mass < 2 * mass && (s + 1) * region_mass <= mass {
        s += 1;
    }
    usize::try_from(s).unwrap_or(usize::MAX)
}

/// Why a bulk load failed.
#[derive(Debug)]
pub enum BulkError {
    /// Writing a packed page failed.
    Storage(StorageError),
    /// Reading or writing a sort spool file failed, or a spooled run did
    /// not hold exactly the records spilled to it (`InvalidData`).
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
    /// A replay group held more pieces than a packed event key can name
    /// (2³¹). A region holds at most `REGION_MAX` pieces plus a carry,
    /// so only a root chain over that many edges could get here.
    GroupTooLarge {
        /// Pieces in the group.
        pieces: usize,
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
            BulkError::GroupTooLarge { pieces } => {
                write!(f, "replay group of {pieces} pieces exceeds 2^31")
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
/// and the scale-tier benchmarks. The four phase times are wall-clock
/// seconds, so two builds of the same pieces agree on every field but
/// those; the type has no `==` for that reason.
#[derive(Debug, Clone, Copy, Default)]
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
    /// the leaf slab being cut, the open region, its spill and carry, and
    /// the pending directory edges.
    pub peak_resident_pages: u64,
    /// Slabs of the tiling every level is ordered by.
    pub slabs: u64,
    /// Sorted runs spooled to disk (0 when the input fit one chunk).
    pub spilled_runs: u64,
    /// Seconds keying the pieces, sorting each chunk, writing the
    /// spooled runs and sorting each leaf slab by y.
    pub sort_s: f64,
    /// Seconds in the leaf pass, the merge of the spooled runs included
    /// and the slab sorts not.
    pub leaf_s: f64,
    /// Seconds packing the directory levels and the root chain.
    pub directory_s: f64,
    /// Seconds inside [`PageStore::append_run`]: a part of `leaf_s` and
    /// `directory_s`.
    pub write_s: f64,
}

/// One 56-byte sort record: x or y key plus the piece itself. The
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

/// A sorted run on disk and the number of records spilled to it.
#[derive(Debug)]
struct SpoolRun {
    path: PathBuf,
    records: u64,
}

/// Streaming bulk loader: [`BulkLoader::push`] pieces in any order,
/// then [`BulkLoader::finish`] into a page store. Peak memory is one
/// sort chunk, one region and the pending directory edges — the dataset
/// itself is spooled to `spool_dir` in sorted runs.
#[derive(Debug)]
pub struct BulkLoader {
    params: PprParams,
    spool_dir: PathBuf,
    /// This loader's number in the process, in its run file names.
    id: u64,
    chunk_cap: usize,
    /// Pieces pushed since the last spill; their keys are set when the
    /// chunk is sorted.
    chunk: Vec<SortRecord>,
    runs: Vec<SpoolRun>,
    pieces: u64,
    alive: u64,
    min_seen: Time,
    max_seen: Time,
    /// Lifetime mass of the closed pieces pushed.
    closed_mass: u128,
    /// Sum of the open pieces' insertions: their mass once `finish`
    /// knows the horizon they are clamped to.
    open_starts: u128,
    /// Seconds sorting and spilling so far.
    sort_s: f64,
}

impl BulkLoader {
    /// Start a bulk load. Spool files are created under `spool_dir`
    /// (created if missing) and removed when the loader is dropped,
    /// whether or not it finished. Loaders may share a spool directory.
    ///
    /// # Panics
    /// If `params` fail their own [`PprParams::validate`].
    pub fn new(params: PprParams, spool_dir: impl Into<PathBuf>) -> Self {
        params.validate();
        Self {
            params,
            spool_dir: spool_dir.into(),
            // ordering: a unique number per loader; it publishes no memory.
            id: LOADERS.fetch_add(1, Ordering::Relaxed),
            chunk_cap: DEFAULT_CHUNK,
            chunk: Vec::new(),
            runs: Vec::new(),
            pieces: 0,
            alive: 0,
            min_seen: Time::MAX,
            max_seen: 0,
            closed_mass: 0,
            open_starts: 0,
            sort_s: 0.0,
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
        self.pieces += 1;
        self.min_seen = self.min_seen.min(piece.insertion);
        if piece.deletion == TimeInterval::OPEN_END {
            self.alive += 1;
            self.open_starts += u128::from(piece.insertion);
            self.max_seen = self.max_seen.max(piece.insertion);
        } else {
            self.closed_mass += u128::from(piece.deletion - piece.insertion);
            self.max_seen = self.max_seen.max(piece.deletion);
        }
        self.chunk.push(SortRecord { key: 0, piece });
        if self.chunk.len() >= self.chunk_cap {
            self.spill_run()?;
        }
        Ok(())
    }

    /// Sort the chunk and write it to a run file of this loader's own.
    /// The file is created exclusively, so a name another load holds is
    /// an error, never an overwrite.
    fn spill_run(&mut self) -> Result<(), BulkError> {
        let start = Instant::now();
        sort_chunk(&mut self.chunk);
        fs::create_dir_all(&self.spool_dir)?;
        let path = self.spool_dir.join(format!(
            "sti-bulk-{}-{}-run{}.tmp",
            std::process::id(),
            self.id,
            self.runs.len()
        ));
        let file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        // Ours from here on: dropping the loader removes it.
        self.runs.push(SpoolRun {
            path,
            records: self.chunk.len() as u64,
        });
        let mut w = BufWriter::new(file);
        let mut buf = Vec::with_capacity(RECORD_BYTES);
        for rec in &self.chunk {
            buf.clear();
            rec.encode(&mut buf);
            w.write_all(&buf)?;
        }
        w.flush()?;
        self.chunk.clear();
        self.sort_s += start.elapsed().as_secs_f64();
        Ok(())
    }

    /// Slabs of the leaf level's tiling: [`slab_count`] of the regions
    /// the cutter will make. That is the pushed pieces' lifetime mass —
    /// still-open pieces clamped to the horizon the way
    /// [`average_concurrency`] clamps them — over the mass of one
    /// `B/2`-member region across the occupied span, or, on a timeline
    /// too sparse to reach that mass, the pieces over [`REGION_MAX`].
    fn slab_count(&self) -> usize {
        let horizon = self.max_seen.max(1);
        let hi = if self.alive > 0 {
            horizon.saturating_add(1)
        } else {
            horizon
        };
        let open_mass = u128::from(self.alive) * u128::from(hi) - self.open_starts;
        let span = u128::from(hi.saturating_sub(self.min_seen));
        let half = (self.params.max_entries / 2).max(1) as u128;
        // The rule grows with `R`, so the larger `R` gives the larger count.
        slab_count(self.closed_mass + open_mass, span * half)
            .max(slab_count(u128::from(self.pieces), REGION_MAX as u128))
    }

    /// Pieces per leaf slab: `⌈N/S⌉`, but never more than a default sort
    /// chunk, so the working set stays bounded whatever `N`.
    fn slab_len(&self) -> usize {
        let len = self.pieces.div_ceil(self.slab_count() as u64);
        usize::try_from(len).map_or(SLAB_MAX, |l| l.clamp(1, SLAB_MAX))
    }

    /// Sort, pack, and assemble the tree into `store` (append-only page
    /// writes). Returns the finished tree and the build counters.
    ///
    /// # Errors
    /// Any [`BulkError`]. A spooled run that does not hold exactly the
    /// records spilled to it fails the merge with [`BulkError::Spool`]
    /// (`InvalidData`), as does a merge that yields a number of pieces
    /// other than the number pushed. The spool runs are removed either
    /// way.
    pub fn finish(mut self, store: PageStore) -> Result<(PprTree, BulkStats), BulkError> {
        let mut stats = BulkStats {
            pieces: self.pieces,
            ..BulkStats::default()
        };
        if self.runs.is_empty() {
            let start = Instant::now();
            sort_chunk(&mut self.chunk);
            self.sort_s += start.elapsed().as_secs_f64();
        } else if !self.chunk.is_empty() {
            self.spill_run()?;
        }

        let leaf_start = Instant::now();
        // A spilled sort is done with its chunk buffer: the leaf slabs
        // reuse it.
        let chunk = std::mem::take(&mut self.chunk);
        let (stream, slab_buf) = if self.runs.is_empty() {
            (SortedStream::Mem(chunk.into_iter()), Vec::new())
        } else {
            stats.spilled_runs = self.runs.len() as u64;
            (SortedStream::merge(&self.runs)?, chunk)
        };
        // Guard the pool from the first packed page on: the loader's
        // write-through installs are checked like any other.
        let mut store = store;
        store.set_validator(PprNode::well_formed);
        let mut pages = PageRun::new(store);
        let fanout = self.params.max_entries;
        let weak_min = self.params.weak_min();
        let horizon = self.max_seen.max(1);
        let shape = LevelShape {
            fanout,
            weak_min,
            lo: self.min_seen,
            horizon,
        };

        // Level 0 reads the merged sort a slab at a time; every level
        // above reads the edges of the one below, ordered by the same
        // tiling. A level whose edges are too sparse for even one region
        // to stay above the weak minimum (average concurrency below `D`)
        // is left to the root chain, which is exempt from the weak
        // condition — exactly how the incremental tree absorbs a
        // near-sequential history, as root log spans.
        let mut slabs = Slabs::new(stream, self.slab_len(), slab_buf);
        let mut level = 0u32;
        let mut edges = pack_level(&mut slabs, level, &shape, &mut pages, &mut stats)?;
        slabs.stream.merged_all(self.pieces)?;
        stats.slabs = slabs.filled as u64;
        stats.leaf_pages = stats.pages_written;
        stats.sort_s = self.sort_s + slabs.sort_s;
        stats.leaf_s = leaf_start.elapsed().as_secs_f64() - slabs.sort_s;

        let directory_start = Instant::now();
        while edges.len() > fanout && average_concurrency(&edges, horizon) >= weak_min as f64 {
            let before = edges.len();
            stats.peak_resident_pages = stats.peak_resident_pages.max(before as u64);
            tile_order(&mut edges, &slabs.bounds);
            level += 1;
            edges = pack_level(
                &mut edges.into_iter(),
                level,
                &shape,
                &mut pages,
                &mut stats,
            )?;
            if edges.len() >= before {
                break;
            }
        }
        let roots = pack_roots(&edges, level, fanout, &mut pages, &mut stats)?;
        pages.flush()?;
        stats.directory_s = directory_start.elapsed().as_secs_f64();
        stats.write_s = pages.write_s;
        stats.levels = roots.iter().map(|s| s.level).max().unwrap_or(0);
        stats.fill_factor = if stats.pages_written == 0 {
            0.0
        } else {
            stats.entries_recorded as f64 / (stats.pages_written * fanout as u64) as f64
        };

        let tree = PprTree::assemble(
            pages.store,
            self.params,
            roots,
            self.max_seen,
            self.alive,
            self.pieces,
        );
        Ok((tree, stats))
    }
}

impl Drop for BulkLoader {
    /// The loader's spool runs go with it, finished or not.
    fn drop(&mut self) {
        for run in &self.runs {
            let _ = fs::remove_file(&run.path);
        }
    }
}

/// Key every record of `chunk` by x and sort it into the build's total
/// order.
fn sort_chunk(chunk: &mut [SortRecord]) {
    for rec in chunk.iter_mut() {
        rec.key = x_key(&rec.piece);
    }
    chunk.sort_unstable_by_key(SortRecord::order_key);
}

/// A level's input, in tile order.
trait Ordered {
    fn next(&mut self) -> Result<Option<BulkPiece>, BulkError>;

    /// Pieces buffered in memory and not yet handed out.
    fn held(&self) -> usize;
}

/// A directory level's edges, already in [`tile_order`]. They are
/// counted as resident whole, before their level is packed.
impl Ordered for std::vec::IntoIter<BulkPiece> {
    fn next(&mut self) -> Result<Option<BulkPiece>, BulkError> {
        Ok(Iterator::next(self))
    }

    fn held(&self) -> usize {
        0
    }
}

/// The leaf level's tiling: the x-ordered sort cut into slabs of `len`
/// pieces, each sorted by y in its own direction as it is reached. The
/// slab buffer is the only part of the sorted stream held in memory.
struct Slabs {
    stream: SortedStream,
    len: usize,
    buf: Vec<SortRecord>,
    /// Next record of `buf` to hand out.
    at: usize,
    /// Slabs filled so far.
    filled: usize,
    /// The x key of each slab's first piece, from the second slab on:
    /// where the directory levels cut their slabs.
    bounds: Vec<u64>,
    /// Seconds keying and sorting the slabs.
    sort_s: f64,
}

impl Slabs {
    fn new(stream: SortedStream, len: usize, buf: Vec<SortRecord>) -> Self {
        Self {
            stream,
            len,
            buf,
            at: 0,
            filled: 0,
            bounds: Vec::new(),
            sort_s: 0.0,
        }
    }

    /// Fill the next slab from the stream and sort it by y.
    fn fill(&mut self) -> Result<(), BulkError> {
        self.buf.clear();
        self.at = 0;
        while self.buf.len() < self.len {
            let Some(rec) = self.stream.next()? else {
                break;
            };
            self.buf.push(rec);
        }
        let start = Instant::now();
        if let Some(first) = self.buf.first() {
            if self.filled > 0 {
                self.bounds.push(first.key);
            }
            for rec in &mut self.buf {
                rec.key = y_key(&rec.piece, self.filled);
            }
            self.buf.sort_unstable_by_key(SortRecord::order_key);
            self.filled += 1;
        }
        self.sort_s += start.elapsed().as_secs_f64();
        Ok(())
    }
}

impl Ordered for Slabs {
    fn next(&mut self) -> Result<Option<BulkPiece>, BulkError> {
        if self.at == self.buf.len() {
            self.fill()?;
        }
        let piece = self.buf.get(self.at).map(|r| r.piece);
        self.at = self.buf.len().min(self.at + 1);
        Ok(piece)
    }

    fn held(&self) -> usize {
        self.buf.len() - self.at
    }
}

/// Order a directory level's edges by the leaves' tiling: each edge goes
/// to the slab whose x range holds its center, by binary search over the
/// leaf slab bounds, then by y in that slab's direction.
fn tile_order(edges: &mut [BulkPiece], bounds: &[u64]) {
    edges.sort_by_cached_key(|p| {
        let x = x_key(p);
        let slab = bounds.partition_point(|&b| b <= x);
        (slab, order_key(y_key(p, slab), p))
    });
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

/// Cuts a stream in tile order into spatial regions — the one
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

/// Pack one level: cut the ordered `source` into regions and replay
/// each into nodes at `level`, returning their edges. Stragglers carried
/// out of a region's terminal decline join the (spatially adjacent) next
/// region; replay orders by time internally.
fn pack_level(
    source: &mut impl Ordered,
    level: u32,
    shape: &LevelShape,
    pages: &mut PageRun,
    stats: &mut BulkStats,
) -> Result<Vec<BulkPiece>, BulkError> {
    let mut cutter = RegionCutter::new(shape);
    let mut out: Vec<BulkPiece> = Vec::new();
    let mut carry: Vec<BulkPiece> = Vec::new();
    // The working set peaks right before a replay: `buffered` is what
    // the cutter and the source still hold past the region just closed.
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
                pages: &mut *pages,
                stats: &mut *stats,
                carry,
            },
            &mut out,
        )
    };
    while let Some(p) = source.next()? {
        if let Some(region) = cutter.push(p) {
            replay(region, &mut carry, cutter.resident() + source.held())?;
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

/// Packed pages on their way to the store: up to [`RUN_PAGES`] encoded
/// nodes, appended as one run when it is full and at the end of the
/// build. Both the run and the store's read-back buffer are reused from
/// run to run.
struct PageRun {
    store: PageStore,
    pending: Vec<[u8; PAGE_SIZE]>,
    /// Seconds inside [`PageStore::append_run`].
    write_s: f64,
}

impl PageRun {
    fn new(store: PageStore) -> Self {
        Self {
            store,
            pending: Vec::with_capacity(RUN_PAGES),
            write_s: 0.0,
        }
    }

    /// Encode `node` into the run and return the id its page will have:
    /// the store's length plus the pages ahead of it in the run. A full
    /// run goes to the store at once.
    fn push(&mut self, node: &PprNode) -> Result<PageId, BulkError> {
        let id = PageId::try_from(self.store.num_pages() + self.pending.len())
            .map_err(|_| StorageError::OutOfPageIds)?;
        let mut page = [0u8; PAGE_SIZE];
        node.encode_into(&mut page);
        self.pending.push(page);
        if self.pending.len() == RUN_PAGES {
            self.flush()?;
        }
        Ok(id)
    }

    /// Append the pending pages to the store.
    fn flush(&mut self) -> Result<(), BulkError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        self.store.append_run(&self.pending)?;
        self.write_s += start.elapsed().as_secs_f64();
        self.pending.clear();
        Ok(())
    }
}

/// Pack `node` into a fresh page.
fn write_page(
    pages: &mut PageRun,
    node: &PprNode,
    stats: &mut BulkStats,
) -> Result<PageId, BulkError> {
    let page = pages.push(node)?;
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
    let page = write_page(sinks.pages, &w.node, sinks.stats)?;
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

/// The mutable sinks every replay pass threads through: the run the
/// nodes are packed into, the running build stats, and the carry list
/// that hands a region's terminal stragglers to the next region at its
/// level.
struct ReplaySinks<'a> {
    pages: &'a mut PageRun,
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
    // One packed key per event (see `event`): deaths sort before births
    // at the same instant, so a kill batch is complete before any birth
    // decision at that time.
    let mut events: Vec<u64> = Vec::with_capacity(pieces.len() * 2);
    for (i, p) in pieces.iter().enumerate() {
        events.push(event(p.insertion, true, i, pieces.len())?);
        if p.deletion != TimeInterval::OPEN_END {
            events.push(event(p.deletion, false, i, pieces.len())?);
        }
    }
    events.sort_unstable();
    let close_min = weak_min.max(1);

    let mut window: Option<Window> = None;
    let mut births_done = 0usize;
    let mut i = 0usize;
    while let Some(&first) = events.get(i) {
        let t = event_time(first);
        // The key's top 33 bits: the instant, then the kind.
        let deaths = (first >> 31) & !1;
        let births = deaths | 1;
        let mut any_death = false;
        while let Some(&e) = events.get(i) {
            if e >> 31 != deaths {
                break;
            }
            i += 1;
            any_death = true;
            let pi = event_piece(e);
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
        while let Some(&e) = events.get(i) {
            if e >> 31 != births {
                break;
            }
            i += 1;
            births_done += 1;
            let pi = event_piece(e);
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

/// The kind bit of a packed event: set for a birth.
const BIRTH: u64 = 1 << 31;

/// One replay event packed as `time << 32 | kind << 31 | piece`, kind 0
/// for a death and 1 for a birth. The keys sort as the `(time, kind,
/// piece)` tuples they pack, and `group` pieces must be indexable in
/// the low 31 bits.
fn event(time: Time, birth: bool, piece: usize, group: usize) -> Result<u64, BulkError> {
    let piece = u64::try_from(piece)
        .ok()
        .filter(|&p| p < BIRTH)
        .ok_or(BulkError::GroupTooLarge { pieces: group })?;
    let kind = if birth { BIRTH } else { 0 };
    Ok((u64::from(time) << 32) | kind | piece)
}

/// The instant of a packed event.
fn event_time(event: u64) -> Time {
    (event >> 32) as Time
}

/// The piece index of a packed event.
fn event_piece(event: u64) -> usize {
    usize::try_from(event & (BIRTH - 1)).unwrap_or(usize::MAX)
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
    pages: &mut PageRun,
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
                    pages,
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
        /// Records the merge has yielded.
        merged: u64,
    },
}

/// Reads back exactly the records spilled to one run.
struct RunReader {
    inner: BufReader<fs::File>,
    /// Records still to read.
    left: u64,
}

impl RunReader {
    /// Open `run`, failing unless it holds exactly its records: a short
    /// run, one cut mid-record and one that runs long are all damage.
    fn open(run: &SpoolRun) -> Result<Self, BulkError> {
        let file = fs::File::open(&run.path)?;
        let len = file.metadata()?.len();
        if Some(len) != run.records.checked_mul(RECORD_BYTES as u64) {
            return Err(BulkError::Spool(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "spool run {} holds {len} bytes; {} records were spilled to it",
                    run.path.display(),
                    run.records
                ),
            )));
        }
        Ok(Self {
            inner: BufReader::new(file),
            left: run.records,
        })
    }

    fn next(&mut self) -> Result<Option<SortRecord>, BulkError> {
        if self.left == 0 {
            return Ok(None);
        }
        let mut buf = [0u8; RECORD_BYTES];
        self.inner.read_exact(&mut buf)?;
        self.left -= 1;
        Ok(Some(SortRecord::decode(&buf)))
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
    fn merge(runs: &[SpoolRun]) -> Result<Self, BulkError> {
        let mut readers = Vec::with_capacity(runs.len());
        let mut heap = BinaryHeap::with_capacity(runs.len());
        for (i, run) in runs.iter().enumerate() {
            let mut r = RunReader::open(run)?;
            if let Some(rec) = r.next()? {
                heap.push(Reverse(HeapItem {
                    key: rec.order_key(),
                    run: i,
                    rec,
                }));
            }
            readers.push(r);
        }
        Ok(SortedStream::Merge {
            readers,
            heap,
            merged: 0,
        })
    }

    fn next(&mut self) -> Result<Option<SortRecord>, BulkError> {
        match self {
            SortedStream::Mem(it) => Ok(it.next()),
            SortedStream::Merge {
                readers,
                heap,
                merged,
            } => {
                let Some(Reverse(item)) = heap.pop() else {
                    return Ok(None);
                };
                *merged += 1;
                if let Some(r) = readers.get_mut(item.run) {
                    if let Some(rec) = r.next()? {
                        heap.push(Reverse(HeapItem {
                            key: rec.order_key(),
                            run: item.run,
                            rec,
                        }));
                    }
                }
                Ok(Some(item.rec))
            }
        }
    }

    /// After the stream ran dry: fail unless the merge yielded exactly
    /// the `pieces` pushed.
    fn merged_all(&self, pieces: u64) -> Result<(), BulkError> {
        match self {
            SortedStream::Merge { merged, .. } if *merged != pieces => {
                Err(BulkError::Spool(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("the spool merge yielded {merged} of {pieces} pieces"),
                )))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packed event keys sort as the `(time, kind, piece)` tuples they
    /// pack, the extremes of each field included, and unpack to them.
    #[test]
    fn packed_events_sort_like_their_tuples() {
        let mut state = 0x9e37_79b9_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges = [0, 1, (1 << 31) - 2, (1 << 31) - 1];
        let mut tuples: Vec<(Time, u8, usize)> = (0..20_000)
            .map(|i| {
                let time = match i % 3 {
                    0 => [0, 1, Time::MAX - 1, Time::MAX][(next() % 4) as usize],
                    _ => (next() % 64) as Time,
                };
                let piece = match i % 5 {
                    0 => edges[(next() % 4) as usize],
                    _ => (next() % 1000) as usize,
                };
                (time, (next() % 2) as u8, piece)
            })
            .collect();
        let mut keys: Vec<u64> = tuples
            .iter()
            .map(|&(t, kind, p)| event(t, kind == 1, p, 1 << 31).unwrap())
            .collect();
        tuples.sort_unstable();
        keys.sort_unstable();
        for (&key, &tuple) in keys.iter().zip(&tuples) {
            let kind = u8::from(key & BIRTH != 0);
            assert_eq!((event_time(key), kind, event_piece(key)), tuple);
        }
    }

    /// The slab rule: `⌈√(2R)⌉` slabs for `R` regions — 11 at the
    /// benchmark tree's `R = 60` — never more slabs than regions, and one
    /// slab, plain y order, at `R ≤ 1`.
    #[test]
    fn the_slab_rule_pins_its_counts() {
        let region = 25 * 1001;
        assert_eq!(slab_count(60 * region, region), 11);
        assert_eq!(slab_count(60 * region - 1, region), 11);
        assert_eq!(slab_count(240 * region, region), 22);
        for mass in [0, 1, region / 2, region, 2 * region - 1] {
            assert_eq!(slab_count(mass, region), 1, "R = {mass}/{region}");
        }
        assert_eq!(slab_count(2 * region, region), 2);
        assert_eq!(slab_count(3 * region, region), 3);
        assert_eq!(slab_count(5 * region, 0), 1, "a zero region mass");
    }

    /// The mass `push` accumulates is the mass [`average_concurrency`]
    /// sums over the same pieces, open ones clamped to the horizon.
    #[test]
    fn the_pushed_mass_is_the_leaf_levels_mass() {
        let mut loader = BulkLoader::new(PprParams::default(), std::env::temp_dir());
        let mut pieces = Vec::new();
        for i in 0..500u32 {
            let insertion = (i * 37) % 400;
            let piece = BulkPiece {
                rect: Rect2::from_bounds(0.1, 0.1, 0.2, 0.2),
                ptr: u64::from(i),
                insertion,
                deletion: if i % 7 == 0 {
                    TimeInterval::OPEN_END
                } else {
                    insertion + 1 + i % 90
                },
            };
            loader.push(piece).unwrap();
            pieces.push(piece);
        }
        let horizon = loader.max_seen.max(1);
        let cc = average_concurrency(&pieces, horizon);
        let half = (PprParams::default().max_entries / 2) as f64;
        let rule = ((2.0 * cc / half).sqrt().ceil())
            .min((cc / half).floor())
            .max(1.0);
        assert_eq!(loader.slab_count() as f64, rule, "average concurrency {cc}");
        assert!(loader.slab_count() > 1, "the test needs more than one slab");
    }

    #[test]
    fn ordered_bits_sort_like_the_floats() {
        let mut values = [-2.5, -0.0, 0.0, 1e-300, 0.25, 0.5, 1.0, f64::MAX, -f64::MAX];
        values.sort_by(f64::total_cmp);
        let keys: Vec<u64> = values.iter().map(|&v| ordered_bits(v)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
    }

    #[test]
    fn a_piece_index_past_31_bits_is_a_typed_error() {
        let last = (1 << 31) - 1;
        assert_eq!(event_piece(event(7, false, last, last + 1).unwrap()), last);
        assert!(matches!(
            event(7, true, last + 1, last + 2),
            Err(BulkError::GroupTooLarge { pieces }) if pieces == last + 2
        ));
    }
}
