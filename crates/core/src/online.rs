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
//!   the empty space its MBR holds crosses a threshold, which a
//!   controller moves so that the splits issued track a [`SplitBudget`].
//!   No lookahead, O(1) state per alive object.
//! * [`crate::IngestPipeline`] — feeds the emitted pieces into a
//!   PPR-Tree while updates stream in, using a watermark reordering
//!   buffer: a piece's insertion time lies in the past by construction
//!   (its start), so events are buffered until no still-open piece could
//!   precede them.
//!
//! The `ablation_online` `sti-bench` entry streams datasets through the
//! pipeline and compares its tree with the offline MergeSplit + LAGreedy
//! plan at the same split count, in total volume and query I/O.

use crate::plan::{ObjectRecord, RecordEvent, SplitBudget};
use std::collections::{BTreeMap, HashMap};
use sti_geom::{Rect2, StBox, Time, TimeInterval};

/// Failure of an [`OnlineSplitter::observe`] call (or of an
/// [`crate::IngestOp::Update`] at drain time): the observation stream
/// violated per-instant contiguity for the object. The splitter (and
/// pipeline) are left exactly as they were — the offending observation
/// is absorbed nowhere, so a corrected retry at the expected instant
/// succeeds.
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
    /// either the object's own last observation or, at the pipeline
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

/// Failure of an [`OnlineSplitter::finish`] call (or of an
/// [`crate::IngestOp::Finish`] at drain time). The splitter is left
/// unchanged.
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

/// Why the splitter rejected a streamed operation — a caller error,
/// what [`crate::RejectedOp`] carries. (A failing page store is not one
/// of these: it rolls the batch back and surfaces in
/// [`crate::CommitReport::error`].)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// The observation stream was malformed; see [`ObserveError`].
    Observe(ObserveError),
    /// The splitter rejected the call; see [`FinishError`].
    Split(FinishError),
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

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnlineError::Observe(e) => write!(f, "{e}"),
            OnlineError::Split(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OnlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnlineError::Observe(e) => Some(e),
            OnlineError::Split(e) => Some(e),
        }
    }
}

/// Tuning of the online split decision: how many splits to spend, and
/// how stale a piece may grow. Everything else about the rule is fixed
/// (see [`OnlineSplitter`]).
#[derive(Debug, Clone, Copy)]
pub struct OnlineSplitConfig {
    /// Splits to spend, resolved against the objects admitted so far —
    /// the offline planner's budget, so a live tree and a planned one
    /// can be asked for the same thing. `Percent(150.0)` is what Fig. 15
    /// and the `tuning` entry both pick for the random datasets.
    pub budget: SplitBudget,
    /// Close any piece reaching this length regardless of its waste.
    /// This bounds the pipeline's watermark staleness — without it a
    /// single stationary object would freeze the queryable horizon
    /// forever — so it defaults to `Some(64)`; set `None` only for pure
    /// volume-optimization experiments.
    pub max_piece_instants: Option<u32>,
}

impl Default for OnlineSplitConfig {
    fn default() -> Self {
        Self {
            budget: SplitBudget::Percent(150.0),
            max_piece_instants: Some(64),
        }
    }
}

/// The waste threshold when the splitter is exactly on budget.
const TAU_0: f64 = 1e-4;
/// How far one split above (below) budget raises (lowers) the threshold.
const ETA: f64 = 0.05;
/// Bound on the threshold's exponent, so it stays finite and positive:
/// `1.05^±400` spans `τ` from ≈ 3e-13 (below any real motion, above the
/// rounding noise of a stationary piece) to ≈ 3e4 (above the waste of
/// any 64-instant piece of the unit square).
const MAX_EXPONENT: i128 = 400;

/// `τ = τ₀ · (1 + η)^(splits − target)`, the exponent clamped.
fn waste_threshold(budget: SplitBudget, splits_issued: u64, objects_admitted: u64) -> f64 {
    let target = budget.resolve(usize::try_from(objects_admitted).unwrap_or(usize::MAX));
    let over = i128::from(splits_issued) - target as i128;
    TAU_0 * (1.0 + ETA).powi(over.clamp(-MAX_EXPONENT, MAX_EXPONENT) as i32)
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OpenPiece {
    start: Time,
    /// Last instant observed (inclusive).
    last: Time,
    mbr: Rect2,
    /// Σ per-instant areas: what the piece would cost with no empty
    /// space.
    area_sum: f64,
}

impl OpenPiece {
    fn new(rect: Rect2, t: Time) -> Self {
        Self {
            start: t,
            last: t,
            mbr: rect,
            area_sum: rect.area(),
        }
    }

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
/// position updates, spending a [`SplitBudget`].
///
/// Each observation grows the object's open piece and measures its
/// *waste*: `area(piece MBR) · instants − Σ per-instant areas`, the
/// empty space the piece's box holds. The measure is absolute, so a
/// moving point (zero area at every instant) has waste too. The piece
/// closes — an artificial split — when its waste reaches a threshold
/// `τ`, or when it reaches `max_piece_instants`.
///
/// `τ` is a controller, not a knob: `τ₀ · (1 + η)^(splits − target)`,
/// where `target` is the budget resolved against the objects admitted
/// so far. Running over budget raises `τ` by 5 % per split, running
/// under lowers it, so the splits issued track the budget whatever the
/// data's speeds and extents. `τ` is a pure function of the two
/// counters, which is what lets a recovered splitter repeat the
/// uninterrupted run's decisions exactly; it is cached and recomputed
/// only when a counter moves.
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
    /// pipeline consults it at every commit.
    open_starts: BTreeMap<Time, usize>,
    splits_issued: u64,
    /// Objects whose first observation opened a piece.
    objects_admitted: u64,
    /// The waste threshold for the current counters.
    tau: f64,
}

impl OnlineSplitter {
    /// Create a splitter that spends `config.budget`.
    ///
    /// # Panics
    /// On a NaN or negative budget percentage (as
    /// [`SplitBudget::resolve`] does), or a zero `max_piece_instants`.
    pub fn new(config: OnlineSplitConfig) -> Self {
        assert_ne!(
            config.max_piece_instants,
            Some(0),
            "a piece covers an instant"
        );
        Self {
            config,
            open: HashMap::new(),
            open_starts: BTreeMap::new(),
            splits_issued: 0,
            objects_admitted: 0,
            tau: waste_threshold(config.budget, 0, 0),
        }
    }

    fn retune(&mut self) {
        self.tau = waste_threshold(
            self.config.budget,
            self.splits_issued,
            self.objects_admitted,
        );
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
    /// on error: the open piece, the watermark, and the counters all
    /// stay as they were, so the stream can resume at the expected
    /// instant.
    pub fn observe(
        &mut self,
        id: u64,
        rect: Rect2,
        t: Time,
    ) -> Result<Option<ObjectRecord>, ObserveError> {
        let Some(piece) = self.open.get_mut(&id) else {
            self.open.insert(id, OpenPiece::new(rect, t));
            *self.open_starts.entry(t).or_insert(0) += 1;
            self.objects_admitted += 1;
            self.retune();
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
        let area_sum = piece.area_sum + rect.area();
        let waste = grown.area() * f64::from(piece.instants() + 1) - area_sum;
        let too_long = self
            .config
            .max_piece_instants
            .is_some_and(|m| piece.instants() >= m);

        if waste >= self.tau || too_long {
            let closed = piece.to_record(id);
            let old_start = piece.start;
            *piece = OpenPiece::new(rect, t);
            remove_start(&mut self.open_starts, old_start);
            *self.open_starts.entry(t).or_insert(0) += 1;
            self.splits_issued += 1;
            self.retune();
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

    /// Number of objects admitted so far: first observations that
    /// opened a piece. The budget is resolved against this count.
    pub fn objects_admitted(&self) -> u64 {
        self.objects_admitted
    }

    /// Number of objects with an open piece.
    pub fn open_objects(&self) -> usize {
        self.open.len()
    }

    /// Earliest start time among open pieces — nothing emitted in the
    /// future can precede this (the pipeline's watermark).
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
    /// [`OnlineSplitter::snapshot_open_pieces`] plus the two counters
    /// the threshold is a function of. The start-time multiset is
    /// re-derived from the pieces, so the watermark invariant holds by
    /// construction.
    pub(crate) fn restore(
        config: OnlineSplitConfig,
        pieces: &[OpenPieceSnapshot],
        splits_issued: u64,
        objects_admitted: u64,
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
        s.objects_admitted = objects_admitted;
        s.retune();
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
        #[expect(
            clippy::unreachable,
            reason = "every open piece registers its start on open and unregisters exactly once on finish"
        )]
        None => unreachable!("open piece start {start} missing from the multiset"),
    }
}

/// A buffered event awaiting its watermark. `RecordEvent`'s ordering
/// (deletes before inserts at equal times) keeps an object's consecutive
/// pieces from coexisting. This is the ordering law of the reordering
/// buffer in [`crate::pipeline`].
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
        let mut restored = OnlineSplitter::restore(
            config,
            &pieces,
            original.splits_issued(),
            original.objects_admitted(),
        );
        assert_eq!(restored.watermark(), original.watermark());
        assert_eq!(restored.open_objects(), original.open_objects());
        assert_eq!(restored.splits_issued(), original.splits_issued());
        assert_eq!(restored.objects_admitted(), original.objects_admitted());
        assert_eq!(restored.tau, original.tau);

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
        // pipeline's watermark staleness).
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

    /// Observe one moving point for 50 instants under an 8-instant cap.
    fn point_pieces(step: fn(f64) -> Point2) -> Vec<ObjectRecord> {
        let mut s = OnlineSplitter::new(OnlineSplitConfig {
            max_piece_instants: Some(8),
            ..OnlineSplitConfig::default()
        });
        let mut pieces = Vec::new();
        for t in 0..50u32 {
            let p = Rect2::point(step(0.01 * f64::from(t)));
            pieces.extend(s.observe(9, p, t).unwrap());
        }
        pieces.push(s.finish(9, 50).unwrap());
        pieces
    }

    /// Moving points have no area at any instant, so only an absolute
    /// waste can split them: a diagonal mover's box grows an area and
    /// splits under the budget, before the cap.
    #[test]
    fn diagonal_moving_points_split_on_their_waste() {
        let pieces = point_pieces(|d| Point2::new(d, d));
        assert!(
            pieces.len() >= 8,
            "a diagonal point should split on its waste, got {} pieces",
            pieces.len()
        );
        assert!(
            pieces.iter().all(|p| p.stbox.lifetime.len() < 8),
            "every diagonal piece closes before the cap"
        );
    }

    /// An axis-parallel mover's box stays a segment with no waste, so
    /// only `max_piece_instants` closes its pieces.
    #[test]
    fn max_piece_length_forces_splits() {
        let pieces = point_pieces(|d| Point2::new(d, 0.5));
        let lengths: Vec<u64> = pieces.iter().map(|p| p.stbox.lifetime.len()).collect();
        assert_eq!(
            lengths,
            [8, 8, 8, 8, 8, 8, 2],
            "only the cap closes a segment"
        );
    }

    /// Many objects admitted over time: the controller issues splits at
    /// the budget's rate, whatever the budget.
    #[test]
    fn splits_track_the_budget() {
        for pct in [50.0, 150.0, 400.0] {
            let mut s = OnlineSplitter::new(OnlineSplitConfig {
                budget: SplitBudget::Percent(pct),
                max_piece_instants: None,
            });
            // 4000 movers of 40 instants each, a new one every instant.
            let n = 4000u64;
            for t in 0..(n as Time + 40) {
                for id in u64::from(t).saturating_sub(39)..u64::from(t + 1).min(n) {
                    let born = id as Time;
                    let x = 0.05 + 0.002 * f64::from(t - born) * (1.0 + (id % 5) as f64);
                    let r = Rect2::centered(Point2::new(x, 0.5), 0.01, 0.01);
                    s.observe(id, r, t).unwrap();
                }
            }
            let realised = 100.0 * s.splits_issued() as f64 / s.objects_admitted() as f64;
            assert_eq!(s.objects_admitted(), n);
            assert!(
                (realised - pct).abs() <= 5.0,
                "budget {pct} %: realised {realised:.1} %"
            );
        }
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
}
