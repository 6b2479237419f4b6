//! The *on-line* version of the splitting problem (paper §VII: "an
//! interesting avenue for future work is addressing the on-line version
//! of the problem").
//!
//! Offline, the splitting algorithms see every object's whole trajectory
//! before placing cuts. Online, position updates arrive one instant at a
//! time and the split decision must be made immediately:
//!
//! * [`OnlineSplitter`] — one-pass piece construction: an object's
//!   current piece is closed (an artificial update is issued) as soon as
//!   its MBR's *empty-space overhead* crosses a threshold. No lookahead,
//!   O(1) state per alive object.
//! * [`OnlineIndexer`] — feeds the emitted pieces into a [`PprTree`]
//!   while updates stream in, using a watermark reordering buffer: a
//!   piece's insertion time lies in the past by construction (its start),
//!   so events are buffered until no still-open piece could precede them.
//!
//! The `ablation_online` bench target compares the one-pass splitter
//! against the offline LAGreedy plan in both total volume and query I/O.

use crate::plan::{ObjectRecord, RecordEvent};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use sti_geom::{Rect2, StBox, Time, TimeInterval};
use sti_obs::QueryStats;
use sti_pprtree::{PprParams, PprTree};
use sti_storage::StorageError;

/// Failure of an [`OnlineSplitter::observe`] (or
/// [`OnlineIndexer::update`]) call: the observation stream violated
/// per-instant contiguity for the object. The splitter (and indexer) are
/// left exactly as they were — the offending observation is absorbed
/// nowhere, so a corrected retry at the expected instant succeeds.
///
/// Observation streams come from outside the library (network feeds,
/// replayed logs), so a malformed stream must surface as a value, not a
/// panic (DESIGN.md §6, "Failure model").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveError {
    /// `t` skips past the object's next expected instant: observations
    /// must be per-instant contiguous.
    Gap {
        /// The object whose stream gapped.
        id: u64,
        /// The instant the caller supplied.
        t: Time,
        /// The only instant the stream can continue at (`last + 1`).
        expected: Time,
    },
    /// `t` repeats the instant already observed for this object.
    Duplicate {
        /// The object observed twice at one instant.
        id: u64,
        /// The repeated instant.
        t: Time,
    },
    /// `t` precedes an instant this stream has already absorbed —
    /// either the object's own last observation or, at the indexer
    /// level, the global stream clock.
    OutOfOrder {
        /// The object whose observation ran backwards.
        id: u64,
        /// The instant the caller supplied.
        t: Time,
        /// The latest instant already absorbed.
        last: Time,
    },
}

impl std::fmt::Display for ObserveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObserveError::Gap { id, t, expected } => {
                write!(
                    f,
                    "object {id}: observation gap at {t}, expected {expected}"
                )
            }
            ObserveError::Duplicate { id, t } => {
                write!(f, "object {id}: duplicate observation at instant {t}")
            }
            ObserveError::OutOfOrder { id, t, last } => write!(
                f,
                "object {id}: out-of-order observation at {t}, stream already at {last}"
            ),
        }
    }
}

impl std::error::Error for ObserveError {}

/// Failure of an [`OnlineSplitter::finish`] (or [`OnlineIndexer::finish`])
/// call. The splitter is left unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FinishError {
    /// The object has no open piece: it was never observed, or was
    /// already finished.
    NotOpen {
        /// The id the caller tried to finish.
        id: u64,
    },
    /// `end` does not follow the object's last observation — lifetimes
    /// are half-open, so a valid `end` is exactly `last observation + 1`.
    WrongEnd {
        /// The id the caller tried to finish.
        id: u64,
        /// The lifetime end the caller supplied.
        end: Time,
        /// The only end consistent with the observation stream.
        expected: Time,
    },
}

impl std::fmt::Display for FinishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FinishError::NotOpen { id } => write!(f, "object {id} not open"),
            FinishError::WrongEnd { id, end, expected } => write!(
                f,
                "object {id}: finish({end}) after instant {}, expected end {expected}",
                expected - 1
            ),
        }
    }
}

impl std::error::Error for FinishError {}

/// Failure of an [`OnlineIndexer`] operation: either the splitter
/// rejected the call (a caller error) or the backing page store failed
/// (an I/O error, possibly after retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// The observation stream was malformed; see [`ObserveError`].
    Observe(ObserveError),
    /// The splitter rejected the call; see [`FinishError`].
    Split(FinishError),
    /// The tree's page store failed; the affected events stay buffered
    /// and are retried on the next flush.
    Storage(StorageError),
}

impl From<ObserveError> for OnlineError {
    fn from(e: ObserveError) -> Self {
        OnlineError::Observe(e)
    }
}

impl From<FinishError> for OnlineError {
    fn from(e: FinishError) -> Self {
        OnlineError::Split(e)
    }
}

impl From<StorageError> for OnlineError {
    fn from(e: StorageError) -> Self {
        OnlineError::Storage(e)
    }
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Observe(e) => write!(f, "{e}"),
            OnlineError::Split(e) => write!(f, "{e}"),
            OnlineError::Storage(e) => write!(f, "indexing halted by storage error: {e}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Observe(e) => Some(e),
            OnlineError::Split(e) => Some(e),
            OnlineError::Storage(e) => Some(e),
        }
    }
}

/// Tuning of the online split decision.
#[derive(Debug, Clone, Copy)]
pub struct OnlineSplitConfig {
    /// Close the current piece when
    /// `volume(piece MBR) / Σ per-instant volumes ≥ overhead_threshold`.
    /// 1.0 splits on any empty space at all. The right value is
    /// workload-dependent: for an object of spatial extent `w` moving `v`
    /// per instant, pieces close after roughly `(θ−1)·w/v` instants, so
    /// pick θ to hit the record budget you can afford (the
    /// `ablation_online` bench sweeps it).
    pub overhead_threshold: f64,
    /// Never close a piece before it covers this many instants (keeps the
    /// record count bounded: at most `lifetime / min_piece_instants`
    /// pieces per object).
    pub min_piece_instants: u32,
    /// Close any piece reaching this length regardless of overhead.
    /// This bounds the indexer's watermark staleness — without it a
    /// single stationary object would freeze the queryable horizon
    /// forever — so it defaults to `Some(64)`; set `None` only for pure
    /// volume-optimization experiments.
    pub max_piece_instants: Option<u32>,
    /// Absolute spatial-area trigger: close when the piece MBR's area
    /// crosses this value. The relative criterion is blind to objects
    /// with (near-)zero extent — moving *points* have zero per-instant
    /// volume — so point workloads rely on this knob (and on
    /// `max_piece_instants` for purely axis-parallel motion, whose MBR
    /// area also stays zero).
    pub max_piece_area: Option<f64>,
}

impl Default for OnlineSplitConfig {
    fn default() -> Self {
        Self {
            overhead_threshold: 8.0,
            min_piece_instants: 5,
            max_piece_instants: Some(64),
            max_piece_area: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenPiece {
    start: Time,
    /// Last instant observed (inclusive).
    last: Time,
    mbr: Rect2,
    /// Σ per-instant areas, the denominator of the overhead ratio.
    area_sum: f64,
}

impl OpenPiece {
    fn to_record(self, id: u64) -> ObjectRecord {
        ObjectRecord {
            id,
            stbox: StBox::new(self.mbr, TimeInterval::new(self.start, self.last + 1)),
        }
    }

    fn instants(&self) -> u32 {
        self.last - self.start + 1
    }
}

/// One-pass artificial-split decisions over a stream of per-instant
/// position updates.
///
/// ```
/// use sti_core::online::{OnlineSplitConfig, OnlineSplitter};
/// use sti_geom::{Point2, Rect2};
///
/// let mut splitter = OnlineSplitter::new(OnlineSplitConfig::default());
/// let mut pieces = Vec::new();
/// for t in 0..60 {
///     let center = Point2::new(0.1 + 0.01 * f64::from(t), 0.5);
///     if let Some(piece) = splitter
///         .observe(1, Rect2::centered(center, 0.02, 0.02), t)
///         .unwrap()
///     {
///         pieces.push(piece);
///     }
/// }
/// pieces.push(splitter.finish(1, 60).unwrap());
/// assert!(pieces.len() >= 2, "a steady mover splits at least once");
/// assert_eq!(pieces.last().unwrap().stbox.lifetime.end, 60);
/// ```
#[derive(Debug)]
pub struct OnlineSplitter {
    config: OnlineSplitConfig,
    open: HashMap<u64, OpenPiece>,
    /// Multiset of open-piece start times, so the watermark (minimum
    /// start) is O(log n) per update instead of a full scan — the
    /// indexer consults it after every observation.
    open_starts: BTreeMap<Time, usize>,
    splits_issued: u64,
}

impl OnlineSplitter {
    /// Create a splitter with the given thresholds.
    pub fn new(config: OnlineSplitConfig) -> Self {
        assert!(
            config.overhead_threshold >= 1.0,
            "threshold below 1 splits every instant"
        );
        assert!(config.min_piece_instants >= 1);
        if let Some(max) = config.max_piece_instants {
            assert!(max >= config.min_piece_instants);
        }
        Self {
            config,
            open: HashMap::new(),
            open_starts: BTreeMap::new(),
            splits_issued: 0,
        }
    }

    /// Observe object `id` occupying `rect` at instant `t`. Returns the
    /// closed piece when this observation triggers an artificial split.
    ///
    /// Observations for one object must be per-instant contiguous
    /// (`t` follows the previous observation by exactly 1).
    ///
    /// # Errors
    /// A typed [`ObserveError`] when `t` breaks contiguity — a gap, a
    /// duplicate instant, or a backwards step. The splitter is unchanged
    /// on error: the open piece, the watermark, and the split counter
    /// all stay as they were, so the stream can resume at the expected
    /// instant.
    pub fn observe(
        &mut self,
        id: u64,
        rect: Rect2,
        t: Time,
    ) -> Result<Option<ObjectRecord>, ObserveError> {
        let Some(piece) = self.open.get_mut(&id) else {
            self.open.insert(
                id,
                OpenPiece {
                    start: t,
                    last: t,
                    mbr: rect,
                    area_sum: rect.area(),
                },
            );
            *self.open_starts.entry(t).or_insert(0) += 1;
            return Ok(None);
        };
        if t != piece.last + 1 {
            return Err(if t == piece.last {
                ObserveError::Duplicate { id, t }
            } else if t < piece.last {
                ObserveError::OutOfOrder {
                    id,
                    t,
                    last: piece.last,
                }
            } else {
                ObserveError::Gap {
                    id,
                    t,
                    expected: piece.last + 1,
                }
            });
        }

        let grown = piece.mbr.union(&rect);
        let instants = f64::from(piece.instants() + 1);
        let area_sum = piece.area_sum + rect.area();
        let overhead = if area_sum > 0.0 {
            grown.area() * instants / area_sum
        } else {
            1.0 // zero-extent objects never trip the relative criterion
        };

        let long_enough = piece.instants() >= self.config.min_piece_instants;
        let too_long = self
            .config
            .max_piece_instants
            .is_some_and(|m| piece.instants() >= m);
        let too_big = self
            .config
            .max_piece_area
            .is_some_and(|a| grown.area() >= a);
        let should_split =
            long_enough && (too_long || (overhead >= self.config.overhead_threshold) || too_big);

        if should_split {
            let closed = piece.to_record(id);
            let old_start = piece.start;
            *piece = OpenPiece {
                start: t,
                last: t,
                mbr: rect,
                area_sum: rect.area(),
            };
            remove_start(&mut self.open_starts, old_start);
            *self.open_starts.entry(t).or_insert(0) += 1;
            self.splits_issued += 1;
            Ok(Some(closed))
        } else {
            piece.mbr = grown;
            piece.last = t;
            piece.area_sum = area_sum;
            Ok(None)
        }
    }

    /// The object died: `end` is its half-open lifetime end (one past the
    /// last observed instant). Returns the final piece.
    ///
    /// # Errors
    /// [`FinishError::NotOpen`] if the object was never observed (or was
    /// already finished); [`FinishError::WrongEnd`] if `end` does not
    /// follow its last observation. The splitter is unchanged on error.
    pub fn finish(&mut self, id: u64, end: Time) -> Result<ObjectRecord, FinishError> {
        let Some(&piece) = self.open.get(&id) else {
            return Err(FinishError::NotOpen { id });
        };
        if end != piece.last + 1 {
            return Err(FinishError::WrongEnd {
                id,
                end,
                expected: piece.last + 1,
            });
        }
        self.open.remove(&id);
        remove_start(&mut self.open_starts, piece.start);
        Ok(piece.to_record(id))
    }

    /// Number of artificial splits issued so far.
    pub fn splits_issued(&self) -> u64 {
        self.splits_issued
    }

    /// Number of objects with an open piece.
    pub fn open_objects(&self) -> usize {
        self.open.len()
    }

    /// Earliest start time among open pieces — nothing emitted in the
    /// future can precede this (the indexer's watermark).
    pub fn watermark(&self) -> Option<Time> {
        self.open_starts.keys().next().copied()
    }

    /// `(id, last observed instant)` for every open piece — what a
    /// seal/flush pass must finish (each at `last + 1`).
    pub(crate) fn open_last_instants(&self) -> Vec<(u64, Time)> {
        self.open.iter().map(|(&id, p)| (id, p.last)).collect()
    }

    /// Serializable image of every open piece, sorted by object id, for
    /// checkpointing (see [`crate::recover`]).
    pub(crate) fn snapshot_open_pieces(&self) -> Vec<OpenPieceSnapshot> {
        let mut out: Vec<OpenPieceSnapshot> = self
            .open
            .iter()
            .map(|(&id, p)| OpenPieceSnapshot {
                id,
                start: p.start,
                last: p.last,
                mbr: p.mbr,
                area_sum: p.area_sum,
            })
            .collect();
        out.sort_unstable_by_key(|p| p.id);
        out
    }

    /// Rebuild a splitter from a checkpointed image: the inverse of
    /// [`OnlineSplitter::snapshot_open_pieces`]. The start-time multiset
    /// is re-derived from the pieces, so the watermark invariant holds
    /// by construction.
    pub(crate) fn restore(
        config: OnlineSplitConfig,
        pieces: &[OpenPieceSnapshot],
        splits_issued: u64,
    ) -> Self {
        let mut s = Self::new(config);
        for p in pieces {
            s.open.insert(
                p.id,
                OpenPiece {
                    start: p.start,
                    last: p.last,
                    mbr: p.mbr,
                    area_sum: p.area_sum,
                },
            );
        }
        for piece in s.open.values() {
            *s.open_starts.entry(piece.start).or_insert(0) += 1;
        }
        s.splits_issued = splits_issued;
        s
    }
}

/// One open piece as captured by a checkpoint — the same fields as the
/// private [`OpenPiece`], plus the owning object id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpenPieceSnapshot {
    pub(crate) id: u64,
    pub(crate) start: Time,
    pub(crate) last: Time,
    pub(crate) mbr: Rect2,
    pub(crate) area_sum: f64,
}

/// Remove one occurrence of `start` from the open-piece multiset.
fn remove_start(starts: &mut BTreeMap<Time, usize>, start: Time) {
    match starts.get_mut(&start) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            starts.remove(&start);
        }
        // stilint::allow(no_panic, "every open piece registers its start on open and unregisters exactly once on finish")
        None => unreachable!("open piece start {start} missing from the multiset"),
    }
}

/// A buffered event awaiting its watermark. `RecordEvent`'s ordering
/// (deletes before inserts at equal times) keeps an object's consecutive
/// pieces from coexisting. Shared with [`crate::pipeline`], whose
/// reordering buffer needs the identical ordering law.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Ev {
    pub(crate) time: Time,
    pub(crate) kind: RecordEvent,
    pub(crate) seq: u64,
    pub(crate) record: ObjectRecord,
}

impl Eq for Ev {}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.kind, self.seq).cmp(&(other.time, other.kind, other.seq))
    }
}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Streams position updates straight into a partially persistent R-Tree.
///
/// The PPR-Tree only accepts time-ordered updates, but an online piece is
/// only *known* once it closes — at which point its insertion timestamp
/// (the piece start) lies in the past. The indexer therefore holds closed
/// pieces in a reordering buffer and flushes every event strictly older
/// than the **watermark** (the earliest start among still-open pieces):
/// no future closure can produce an earlier event, so the flushed prefix
/// is final. Historical queries are answered for any time before the
/// watermark.
pub struct OnlineIndexer {
    splitter: OnlineSplitter,
    tree: PprTree,
    buffer: BinaryHeap<Reverse<Ev>>,
    seq: u64,
    now: Time,
}

impl OnlineIndexer {
    /// Create an indexer with the given split decision and tree
    /// parameters.
    pub fn new(config: OnlineSplitConfig, params: PprParams) -> Self {
        Self {
            splitter: OnlineSplitter::new(config),
            tree: PprTree::new(params),
            buffer: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Observe object `id` at `rect` during instant `t`.
    ///
    /// # Errors
    /// [`OnlineError::Observe`] if the observation breaks stream order —
    /// `t` behind the indexer's clock, or gapped/duplicated/backwards
    /// for this object. The indexer is unchanged: the clock, watermark,
    /// open pieces, and buffered events all stay as they were.
    /// [`OnlineError::Storage`] if flushing finalized events into the
    /// tree fails. The observation itself is absorbed either way; the
    /// events that could not be applied stay buffered and are retried on
    /// the next flush (each failed tree update rolls back atomically).
    pub fn update(&mut self, id: u64, rect: Rect2, t: Time) -> Result<(), OnlineError> {
        if t < self.now {
            return Err(ObserveError::OutOfOrder {
                id,
                t,
                last: self.now,
            }
            .into());
        }
        if let Some(record) = self.splitter.observe(id, rect, t)? {
            self.push_record(record);
        }
        self.now = t;
        self.flush()?;
        Ok(())
    }

    /// Object `id` disappears; `end` is one past its last observed
    /// instant. The finish validates against the *object's own* stream,
    /// not the indexer clock: a straggler whose last observation is
    /// behind `now` legally finishes in the past (its events start at
    /// its open piece, which the watermark never passes while open).
    ///
    /// # Errors
    /// [`OnlineError::Split`] if the object is not open or `end` does
    /// not follow its last observation; the indexer is unchanged (in
    /// particular, time does not advance). [`OnlineError::Storage`] if
    /// flushing into the tree fails; the finish itself is recorded and
    /// its events stay buffered for the next flush.
    pub fn finish(&mut self, id: u64, end: Time) -> Result<(), OnlineError> {
        let record = self.splitter.finish(id, end)?;
        self.now = self.now.max(end);
        self.push_record(record);
        self.flush()?;
        Ok(())
    }

    fn push_record(&mut self, record: ObjectRecord) {
        let life = record.stbox.lifetime;
        self.buffer.push(Reverse(Ev {
            time: life.start,
            kind: RecordEvent::Insert,
            seq: self.seq,
            record,
        }));
        self.buffer.push(Reverse(Ev {
            time: life.end,
            kind: RecordEvent::Delete,
            seq: self.seq + 1,
            record,
        }));
        self.seq += 2;
    }

    /// All history strictly before this instant is queryable.
    pub fn watermark(&self) -> Time {
        self.splitter.watermark().unwrap_or(self.now)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        let w = self.watermark();
        loop {
            let Some(top) = self.buffer.peek_mut() else {
                break;
            };
            if top.0.time >= w {
                break;
            }
            let Reverse(ev) = std::collections::binary_heap::PeekMut::pop(top);
            if let Err(e) = ev.kind.apply(&mut self.tree, &ev.record, ev.time) {
                // The tree update rolled back; requeue the event (same
                // seq, so ordering is preserved) and surface the error.
                self.buffer.push(Reverse(ev));
                return Err(e);
            }
        }
        Ok(())
    }

    /// Snapshot query at instant `t`, which must lie before the
    /// watermark (later history is still buffered).
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries.
    ///
    /// # Panics
    /// If `t` is at or past the watermark.
    pub fn query_snapshot(
        &mut self,
        area: &Rect2,
        t: Time,
        out: &mut Vec<u64>,
    ) -> Result<QueryStats, StorageError> {
        assert!(
            t < self.watermark(),
            "instant {t} not yet final (watermark {})",
            self.watermark()
        );
        self.tree.query_snapshot(area, t, out)
    }

    /// Number of artificial splits issued so far.
    pub fn splits_issued(&self) -> u64 {
        self.splitter.splits_issued()
    }

    /// Close every remaining piece at `end` and return the finished tree.
    ///
    /// # Errors
    /// A [`StorageError`] if the final flush fails; the indexer is
    /// consumed either way (a fallible backend that keeps failing leaves
    /// nothing worth resuming — rebuild from the stream instead).
    pub fn seal(mut self, end: Time) -> Result<PprTree, StorageError> {
        assert!(end >= self.now);
        for (id, last) in self.splitter.open_last_instants() {
            // `finish` keeps the splitter's start multiset consistent;
            // each object's final piece ends one past its last
            // observation.
            let record = self
                .splitter
                .finish(id, last + 1)
                // stilint::allow(no_panic, "the id/last pairs were snapshotted from the open map, and last + 1 is exactly the end finish accepts")
                .expect("open piece finishes at last + 1");
            self.push_record(record);
        }
        // Everything is closed: flush the buffer completely, in order.
        while let Some(Reverse(ev)) = self.buffer.pop() {
            ev.kind.apply(&mut self.tree, &ev.record, ev.time)?;
        }
        Ok(self.tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::total_volume;
    use sti_geom::Point2;
    use sti_trajectory::RasterizedObject;

    fn mover(n: usize) -> Vec<Rect2> {
        (0..n)
            .map(|i| Rect2::centered(Point2::new(0.05 + 0.01 * i as f64, 0.5), 0.02, 0.02))
            .collect()
    }

    /// A splitter restored from its own snapshot is behaviourally
    /// identical to the original — the foundation of checkpoint
    /// recovery (DESIGN.md §8).
    #[test]
    fn snapshot_restore_round_trip_preserves_split_decisions() {
        let config = OnlineSplitConfig::default();
        let mut original = OnlineSplitter::new(config);
        let rects = mover(40);
        for (t, r) in rects.iter().enumerate().take(20) {
            original.observe(1, *r, t as Time).unwrap();
            original
                .observe(2, Rect2::from_bounds(0.8, 0.8, 0.85, 0.85), t as Time)
                .unwrap();
        }

        let pieces = original.snapshot_open_pieces();
        let mut restored = OnlineSplitter::restore(config, &pieces, original.splits_issued());
        assert_eq!(restored.watermark(), original.watermark());
        assert_eq!(restored.open_objects(), original.open_objects());
        assert_eq!(restored.splits_issued(), original.splits_issued());

        // Identical future inputs produce identical outputs.
        for (t, r) in rects.iter().enumerate().skip(20) {
            let a = original.observe(1, *r, t as Time).unwrap();
            let b = restored.observe(1, *r, t as Time).unwrap();
            assert_eq!(a, b, "diverged at t={t}");
            assert_eq!(restored.watermark(), original.watermark());
        }
        assert_eq!(
            original.finish(1, 40).unwrap(),
            restored.finish(1, 40).unwrap()
        );
        assert_eq!(
            original.finish(2, 20).unwrap(),
            restored.finish(2, 20).unwrap()
        );
    }

    #[test]
    fn stationary_objects_split_only_at_the_length_cap() {
        // With the cap disabled a stationary object never splits.
        let uncapped = OnlineSplitConfig {
            max_piece_instants: None,
            ..OnlineSplitConfig::default()
        };
        let mut s = OnlineSplitter::new(uncapped);
        let r = Rect2::from_bounds(0.4, 0.4, 0.45, 0.45);
        for t in 0..100 {
            assert!(
                s.observe(7, r, t).unwrap().is_none(),
                "stationary object split at {t}"
            );
        }
        let last = s.finish(7, 100).unwrap();
        assert_eq!(last.stbox.lifetime, TimeInterval::new(0, 100));
        assert_eq!(s.splits_issued(), 0);

        // The default cap bounds piece length (and thereby the streaming
        // indexer's watermark staleness).
        let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
        let mut splits = 0;
        for t in 0..200 {
            if s.observe(7, r, t).unwrap().is_some() {
                splits += 1;
            }
        }
        assert!(splits >= 2, "length cap should fire, got {splits}");
    }

    #[test]
    fn movers_split_and_pieces_partition_lifetime() {
        let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
        let rects = mover(80);
        let mut pieces = Vec::new();
        for (i, r) in rects.iter().enumerate() {
            if let Some(p) = s.observe(1, *r, 10 + i as Time).unwrap() {
                pieces.push(p);
            }
        }
        pieces.push(s.finish(1, 90).unwrap());
        assert!(
            pieces.len() >= 3,
            "a steady mover should split several times"
        );
        // Consecutive lifetimes partition [10, 90).
        assert_eq!(pieces[0].stbox.lifetime.start, 10);
        assert_eq!(pieces.last().expect("nonempty").stbox.lifetime.end, 90);
        for w in pieces.windows(2) {
            assert_eq!(w[0].stbox.lifetime.end, w[1].stbox.lifetime.start);
        }
        // Each piece's MBR covers the instants it claims.
        for p in &pieces {
            for t in p.stbox.lifetime.start..p.stbox.lifetime.end {
                let r = rects[(t - 10) as usize];
                assert!(
                    p.stbox.rect.contains_rect(&r),
                    "piece does not cover instant {t}"
                );
            }
        }
    }

    #[test]
    fn min_piece_length_is_respected() {
        let cfg = OnlineSplitConfig {
            min_piece_instants: 10,
            ..OnlineSplitConfig::default()
        };
        let mut s = OnlineSplitter::new(cfg);
        let mut pieces = Vec::new();
        for (i, r) in mover(60).iter().enumerate() {
            if let Some(p) = s.observe(1, *r, i as Time).unwrap() {
                pieces.push(p);
            }
        }
        pieces.push(s.finish(1, 60).unwrap());
        for p in &pieces[..pieces.len() - 1] {
            assert!(
                p.stbox.lifetime.len() >= 10,
                "piece shorter than minimum: {}",
                p.stbox
            );
        }
    }

    #[test]
    fn max_piece_length_forces_splits() {
        let cfg = OnlineSplitConfig {
            max_piece_instants: Some(5),
            min_piece_instants: 1,
            overhead_threshold: 1e9, // relative criterion never fires
            ..OnlineSplitConfig::default()
        };
        let mut s = OnlineSplitter::new(cfg);
        let r = Rect2::from_bounds(0.1, 0.1, 0.12, 0.12);
        let mut count = 0;
        for t in 0..20 {
            if s.observe(3, r, t).unwrap().is_some() {
                count += 1;
            }
        }
        assert!(
            count >= 3,
            "length cap should force periodic splits, got {count}"
        );
    }

    #[test]
    fn zero_extent_points_use_area_cap() {
        // Relative overhead is undefined for points; the area cap drives.
        let cfg = OnlineSplitConfig {
            max_piece_area: Some(0.001),
            min_piece_instants: 1,
            ..OnlineSplitConfig::default()
        };
        let mut s = OnlineSplitter::new(cfg);
        let mut splits = 0;
        for t in 0..50u32 {
            // Diagonal motion: the piece MBR's area genuinely grows.
            let p = Point2::new(0.01 * f64::from(t), 0.01 * f64::from(t));
            if s.observe(9, Rect2::point(p), t).unwrap().is_some() {
                splits += 1;
            }
        }
        assert!(
            splits >= 5,
            "moving point should split via the area cap, got {splits}"
        );
    }

    #[test]
    fn finish_errors_are_typed_and_leave_state_intact() {
        let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
        assert_eq!(s.finish(5, 10), Err(FinishError::NotOpen { id: 5 }));

        let r = Rect2::from_bounds(0.1, 0.1, 0.2, 0.2);
        for t in 0..4 {
            s.observe(5, r, t).unwrap();
        }
        // Wrong end: the piece stays open and keeps accepting updates.
        assert_eq!(
            s.finish(5, 10),
            Err(FinishError::WrongEnd {
                id: 5,
                end: 10,
                expected: 4
            })
        );
        assert_eq!(s.open_objects(), 1);
        s.observe(5, r, 4).unwrap();
        let rec = s.finish(5, 5).unwrap();
        assert_eq!(rec.stbox.lifetime, TimeInterval::new(0, 5));
        assert_eq!(s.open_objects(), 0);
        // Double finish: the piece is gone.
        assert_eq!(s.finish(5, 5), Err(FinishError::NotOpen { id: 5 }));
    }

    #[test]
    fn indexer_propagates_finish_errors_without_advancing_time() {
        let params = PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        };
        let mut idx = OnlineIndexer::new(OnlineSplitConfig::default(), params);
        idx.update(1, Rect2::from_bounds(0.1, 0.1, 0.2, 0.2), 0)
            .unwrap();
        assert!(matches!(
            idx.finish(2, 5),
            Err(OnlineError::Split(FinishError::NotOpen { id: 2 }))
        ));
        // The failed finish must not have advanced the clock past 0.
        idx.update(1, Rect2::from_bounds(0.1, 0.1, 0.2, 0.2), 1)
            .unwrap();
        idx.finish(1, 2).unwrap();
    }

    /// Each contiguity violation maps to its own [`ObserveError`]
    /// variant, and a rejected observation changes nothing: the stream
    /// resumes at the expected instant as if the bad call never happened.
    #[test]
    fn rejects_gaps_duplicates_and_backwards_steps_with_typed_errors() {
        let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
        let r = Rect2::from_bounds(0.1, 0.1, 0.2, 0.2);
        s.observe(1, r, 0).unwrap();
        s.observe(1, r, 1).unwrap();

        assert_eq!(
            s.observe(1, r, 3),
            Err(ObserveError::Gap {
                id: 1,
                t: 3,
                expected: 2
            })
        );
        assert_eq!(
            s.observe(1, r, 1),
            Err(ObserveError::Duplicate { id: 1, t: 1 })
        );
        assert_eq!(
            s.observe(1, r, 0),
            Err(ObserveError::OutOfOrder {
                id: 1,
                t: 0,
                last: 1
            })
        );

        // State is untouched by the three rejections: the watermark, the
        // open set, and the split counter still describe [0, 1], and the
        // stream continues at instant 2.
        assert_eq!(s.open_objects(), 1);
        assert_eq!(s.watermark(), Some(0));
        assert_eq!(s.splits_issued(), 0);
        s.observe(1, r, 2).unwrap();
        let rec = s.finish(1, 3).unwrap();
        assert_eq!(rec.stbox.lifetime, TimeInterval::new(0, 3));
    }

    /// A gap on one object must not disturb *another* object's open
    /// piece (the error path borrows only the offender's entry).
    #[test]
    fn observe_error_is_scoped_to_the_offending_object() {
        let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
        let r = Rect2::from_bounds(0.1, 0.1, 0.2, 0.2);
        s.observe(1, r, 0).unwrap();
        s.observe(2, r, 0).unwrap();
        assert!(s.observe(1, r, 5).is_err());
        s.observe(2, r, 1).unwrap();
        assert_eq!(s.open_objects(), 2);
        assert_eq!(s.finish(2, 2).unwrap().stbox.lifetime.end, 2);
    }

    /// The indexer rejects a stream-clock regression with a typed error
    /// and does not advance time, absorb the observation, or buffer
    /// events.
    #[test]
    fn indexer_rejects_backwards_stream_with_typed_error() {
        let params = PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        };
        let mut idx = OnlineIndexer::new(OnlineSplitConfig::default(), params);
        let r = Rect2::from_bounds(0.1, 0.1, 0.2, 0.2);
        idx.update(1, r, 7).unwrap();
        assert_eq!(
            idx.update(2, r, 3),
            Err(OnlineError::Observe(ObserveError::OutOfOrder {
                id: 2,
                t: 3,
                last: 7
            }))
        );
        assert_eq!(
            idx.finish(1, 5),
            Err(OnlineError::Split(FinishError::WrongEnd {
                id: 1,
                end: 5,
                expected: 8
            }))
        );
        // Object 2 was never absorbed; object 1 still finishes cleanly.
        idx.update(1, r, 8).unwrap();
        idx.finish(1, 9).unwrap();
        let tree = idx.seal(9).unwrap();
        assert!(sti_pprtree::check::validate(&tree).is_ok());
    }

    #[test]
    fn online_volume_between_optimal_and_unsplit() {
        use crate::multi::DistributionAlgorithm;
        use crate::plan::{SplitBudget, SplitPlan};
        use crate::single::SingleSplitAlgorithm;

        // A batch of movers; compare one-pass splits against offline.
        let objects: Vec<RasterizedObject> = (0..20)
            .map(|id| {
                let rects = mover(50 + (id as usize % 17));
                RasterizedObject::new(id, (id * 13) as Time, rects)
            })
            .collect();

        let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
        let mut online_records = Vec::new();
        // Replay by global time order (interleaved objects).
        let mut events: Vec<(Time, u64, usize)> = Vec::new();
        for o in &objects {
            for i in 0..o.len() {
                events.push((o.start() + i as Time, o.id(), i));
            }
        }
        events.sort_unstable();
        for (t, id, i) in events {
            let o = &objects[id as usize];
            if let Some(p) = s.observe(id, o.rect(i), t).unwrap() {
                online_records.push(p);
            }
        }
        for o in &objects {
            online_records.push(s.finish(o.id(), o.lifetime().end).unwrap());
        }

        let online_vol = total_volume(&online_records);
        let online_splits = online_records.len() - objects.len();
        let offline = SplitPlan::build(
            &objects,
            SingleSplitAlgorithm::DpSplit,
            DistributionAlgorithm::Optimal,
            SplitBudget::Count(online_splits),
            None,
        );
        let unsplit_vol: f64 = objects.iter().map(|o| o.unsplit_volume()).sum();
        assert!(
            online_vol + 1e-9 >= offline.total_volume(),
            "online cannot beat the offline optimum at equal budget"
        );
        assert!(
            online_vol < unsplit_vol * 0.7,
            "online splitting should remove real empty space: {online_vol} vs {unsplit_vol}"
        );
    }

    #[test]
    fn indexer_streams_and_answers_history() {
        let params = PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        };
        let mut idx = OnlineIndexer::new(OnlineSplitConfig::default(), params);

        // Two staggered movers and one stationary anchor.
        let a = mover(40);
        let b = mover(40);
        for t in 0..60u32 {
            if t < 40 {
                idx.update(1, a[t as usize], t).unwrap();
            }
            if t == 40 {
                idx.finish(1, 40).unwrap();
            }
            if (10..50).contains(&t) {
                idx.update(2, b[(t - 10) as usize], t).unwrap();
            }
            if t == 50 {
                idx.finish(2, 50).unwrap();
            }
            idx.update(3, Rect2::from_bounds(0.9, 0.9, 0.95, 0.95), t)
                .unwrap();
        }
        // Anchor still open from t=0: watermark is its piece start, so
        // only a prefix is queryable mid-stream; sealing finishes all.
        let splits = idx.splits_issued();
        assert!(splits >= 2, "movers should have split, got {splits}");
        let tree = idx.seal(60).unwrap();
        tree.validate();
        let mut out = Vec::new();
        tree.query_snapshot(&Rect2::UNIT, 5, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 3]);
        out.clear();
        tree.query_snapshot(&Rect2::UNIT, 45, &mut out).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![2, 3]);
        out.clear();
        // Object 1's pieces: found once over its whole life.
        tree.query_interval(&Rect2::UNIT, &TimeInterval::new(0, 60), &mut out)
            .unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn indexer_watermark_gates_queries() {
        let params = PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        };
        let mut idx = OnlineIndexer::new(
            OnlineSplitConfig {
                max_piece_instants: Some(4),
                min_piece_instants: 1,
                ..OnlineSplitConfig::default()
            },
            params,
        );
        for (i, r) in mover(30).iter().enumerate() {
            idx.update(1, *r, i as Time).unwrap();
        }
        let w = idx.watermark();
        assert!(w > 0, "length-capped pieces must advance the watermark");
        let mut out = Vec::new();
        idx.query_snapshot(&Rect2::UNIT, w - 1, &mut out).unwrap();
        assert_eq!(out, vec![1]);
    }

    #[test]
    #[should_panic(expected = "not yet final")]
    fn indexer_rejects_queries_past_watermark() {
        let params = PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        };
        let mut idx = OnlineIndexer::new(OnlineSplitConfig::default(), params);
        idx.update(1, Rect2::from_bounds(0.1, 0.1, 0.2, 0.2), 0)
            .unwrap();
        let mut out = Vec::new();
        let _ = idx.query_snapshot(&Rect2::UNIT, 0, &mut out);
    }

    /// Failed finishes are typed errors and leave the splitter's open
    /// pieces, watermark, and split counter exactly as they were.
    #[test]
    fn splitter_finish_errors_leave_state_unchanged() {
        let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
        let r = Rect2::from_bounds(0.4, 0.4, 0.45, 0.45);
        for t in 0..10 {
            assert!(s.observe(7, r, t).unwrap().is_none());
        }

        assert_eq!(s.finish(99, 10), Err(FinishError::NotOpen { id: 99 }));
        assert_eq!(
            s.finish(7, 25),
            Err(FinishError::WrongEnd {
                id: 7,
                end: 25,
                expected: 10
            })
        );
        assert_eq!(s.open_objects(), 1, "failed finish must not close pieces");
        assert_eq!(s.watermark(), Some(0));
        assert_eq!(s.splits_issued(), 0);

        // The piece is still finishable with the correct end...
        let rec = s.finish(7, 10).unwrap();
        assert_eq!(rec.stbox.lifetime, TimeInterval::new(0, 10));
        assert_eq!(s.open_objects(), 0);
        assert_eq!(s.watermark(), None);
        // ...and exactly once.
        assert_eq!(s.finish(7, 10), Err(FinishError::NotOpen { id: 7 }));
    }

    /// The indexer propagates finish errors without corrupting the
    /// stream: the failed call changes nothing, the corrected call
    /// succeeds, and the sealed tree passes the full-history sanitizer.
    #[test]
    fn indexer_finish_error_then_recovery() {
        let params = PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        };
        let mut idx = OnlineIndexer::new(OnlineSplitConfig::default(), params);
        let r = Rect2::from_bounds(0.3, 0.3, 0.35, 0.35);
        for t in 0..10 {
            idx.update(5, r, t).unwrap();
        }
        let w = idx.watermark();

        assert_eq!(
            idx.finish(5, 25),
            Err(OnlineError::Split(FinishError::WrongEnd {
                id: 5,
                end: 25,
                expected: 10
            }))
        );
        assert_eq!(
            idx.finish(6, 10),
            Err(OnlineError::Split(FinishError::NotOpen { id: 6 }))
        );
        assert_eq!(
            idx.watermark(),
            w,
            "failed finish must not move the watermark"
        );

        idx.finish(5, 10).unwrap();
        let tree = idx.seal(10).unwrap();
        assert_eq!(tree.alive_records(), 0);
        assert!(sti_pprtree::check::validate(&tree).is_ok());
    }

    /// Everything externally observable about an [`OnlineIndexer`],
    /// captured with same-module access to the private fields so the
    /// equality below really is "nothing moved", not "the accessors
    /// still agree".
    #[derive(Debug, PartialEq)]
    struct IndexerSnapshot {
        now: Time,
        seq: u64,
        watermark: Time,
        splits_issued: u64,
        open: Vec<(u64, OpenPiece)>,
        open_starts: Vec<(Time, usize)>,
        buffered: Vec<Ev>,
        tree_alive: u64,
        tree_pages: usize,
    }

    impl IndexerSnapshot {
        fn of(idx: &OnlineIndexer) -> Self {
            let mut open: Vec<(u64, OpenPiece)> =
                idx.splitter.open.iter().map(|(&id, &p)| (id, p)).collect();
            open.sort_by_key(|&(id, _)| id);
            let mut buffered: Vec<Ev> = idx.buffer.iter().map(|r| r.0.clone()).collect();
            buffered.sort();
            Self {
                now: idx.now,
                seq: idx.seq,
                watermark: idx.watermark(),
                splits_issued: idx.splitter.splits_issued,
                open,
                open_starts: idx
                    .splitter
                    .open_starts
                    .iter()
                    .map(|(&t, &n)| (t, n))
                    .collect(),
                buffered,
                tree_alive: idx.tree.alive_records(),
                tree_pages: idx.tree.num_pages(),
            }
        }
    }

    use proptest::prelude::*;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite 3: drive a live stream and, interleaved with the
        /// valid traffic, throw every class of malformed call at the
        /// indexer. Each must return the right typed error and leave the
        /// watermark, the open-piece set, and the buffered/emitted
        /// records bit-identical; the stream then carries on and the
        /// sealed tree passes the full-history sanitizer.
        #[test]
        fn malformed_calls_leave_the_indexer_unchanged(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let params = PprParams { max_entries: 10, buffer_pages: 4, ..PprParams::default() };
            let cfg = OnlineSplitConfig {
                min_piece_instants: 2,
                max_piece_instants: Some(6),
                ..OnlineSplitConfig::default()
            };
            let mut idx = OnlineIndexer::new(cfg, params);
            let mut alive: Vec<u64> = Vec::new();
            let mut next_id = 0u64;
            let horizon = 30 + (seed % 20) as Time;

            for t in 0..horizon {
                // Sprinkle malformed calls before the valid traffic. At
                // this point every id in `alive` has been observed at
                // least once (spawning happens below), so each call
                // really is a stream violation, not a first observation.
                if t > 2 {
                    let before = IndexerSnapshot::of(&idx);
                    let pick = rng.random_range(0..5u32);
                    let outcome = match (pick, alive.first()) {
                        (0, Some(&id)) => idx.update(id, Rect2::UNIT, t + 4), // gap
                        (1, Some(&id)) => idx.update(id, Rect2::UNIT, t - 1), // behind the clock
                        (2, Some(&id)) => idx.finish(id, t + 7),              // wrong end
                        (3, _) => idx.finish(9_999, t),                       // never observed
                        _ => idx.finish(alive.first().copied().unwrap_or(0), t.saturating_sub(3)), // backwards
                    };
                    prop_assert!(outcome.is_err(), "malformed call accepted at t={t}");
                    prop_assert!(
                        !matches!(outcome, Err(OnlineError::Storage(_))),
                        "malformed input misreported as an I/O failure"
                    );
                    prop_assert_eq!(&IndexerSnapshot::of(&idx), &before,
                        "rejected call at t={} moved indexer state", t);
                }
                // Maybe bring a new object into the world at this instant.
                if alive.len() < 4 && rng.random::<f64>() < 0.5 {
                    alive.push(next_id);
                    next_id += 1;
                }
                // The valid stream: every alive object observes this instant.
                for &id in &alive {
                    let x = ((id as f64) * 0.17 + f64::from(t) * 0.013).fract() * 0.9;
                    idx.update(id, Rect2::from_bounds(x, 0.4, x + 0.02, 0.45), t).unwrap();
                }
                // Maybe retire one object (end = t + 1 follows its last
                // observation; later updates resume at t + 1).
                if alive.len() > 1 && rng.random::<f64>() < 0.2 {
                    let victim = alive.swap_remove(rng.random_range(0..alive.len()));
                    idx.finish(victim, t + 1).unwrap();
                }
            }
            for &id in &alive {
                idx.finish(id, horizon).unwrap();
            }
            let tree = idx.seal(horizon).unwrap();
            prop_assert!(sti_pprtree::check::validate(&tree).is_ok());
        }
    }
}
