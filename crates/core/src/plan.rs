//! End-to-end split planning: from a collection of objects to the
//! space-time boxes an index ingests.

use crate::multi::{DistributionAlgorithm, SplitAllocation};
use crate::parallel::{map_chunked, Parallelism};
use crate::single::dpsplit::{DpCuts, DpTable};
use crate::single::mergesplit::{MergeHierarchy, RemovalOrder};
use crate::single::{piecewise_cuts, SingleSplitAlgorithm};
use crate::VolumeCurve;
use std::time::{Duration, Instant};
use sti_geom::StBox;
use sti_pprtree::{DeleteError, PprTree};
use sti_storage::StorageError;
use sti_trajectory::RasterizedObject;

/// How many splits to spend on a dataset.
///
/// The paper expresses budgets as percentages of the object count:
/// "`a%` splits means we use `a/100 · N` total splits on a dataset with
/// `N` objects" (§V, budgets from 1% to 150%).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SplitBudget {
    /// An absolute number of splits.
    Count(usize),
    /// A percentage of the number of objects (150.0 means 1.5 splits per
    /// object on average).
    Percent(f64),
}

impl SplitBudget {
    /// Resolve to an absolute split count for `n` objects. A percentage
    /// past `usize::MAX` splits (an infinite one) saturates to
    /// `usize::MAX`, and the distribution then assigns every split the
    /// curves can absorb.
    ///
    /// # Panics
    /// On a NaN or negative percentage.
    pub fn resolve(&self, n: usize) -> usize {
        match *self {
            SplitBudget::Count(k) => k,
            SplitBudget::Percent(p) => {
                assert!(!p.is_nan(), "split percentage is NaN");
                assert!(p >= 0.0, "negative split percentage");
                (p / 100.0 * n as f64).round() as usize
            }
        }
    }
}

/// One index-ready record: a space-time box tagged with the identifier of
/// the object it came from. Splitting produces several records per object
/// with the same `id`; interval queries de-duplicate on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectRecord {
    /// Identifier of the originating object.
    pub id: u64,
    /// The box: spatial MBR over the piece's lifetime.
    pub stbox: StBox,
}

impl ObjectRecord {
    /// The 3D box the R\*-Tree stores for this record: spatial MBR plus
    /// the *closed* time slab `[start, end − 1] / time_scale`, so closed
    /// 3D intersection matches half-open lifetime overlap exactly
    /// (instants are integers).
    ///
    /// # Panics
    /// On an empty or still-open lifetime.
    pub fn to_rect3(&self, time_scale: f64) -> sti_geom::Rect3 {
        let life = self.stbox.lifetime;
        assert!(
            !life.is_empty() && !life.is_open(),
            "finite non-empty lifetime required"
        );
        sti_geom::Rect3::new(
            [
                self.stbox.rect.lo.x,
                self.stbox.rect.lo.y,
                f64::from(life.start) / time_scale,
            ],
            [
                self.stbox.rect.hi.x,
                self.stbox.rect.hi.y,
                f64::from(life.end - 1) / time_scale,
            ],
        )
    }
}

/// Per-object split state retained by a [`SplitPlan`] so cut positions for
/// the allocated split counts can be emitted without re-running the
/// splitter. The volume curves are moved out of it, not copied.
pub(crate) enum SplitSource {
    Dp(DpCuts),
    Merge(RemovalOrder),
}

impl SplitSource {
    /// Run `algo` over `obj` with at most `cap` splits, returning the cut
    /// state and the volume curve.
    fn build(
        obj: &RasterizedObject,
        algo: SingleSplitAlgorithm,
        cap: usize,
    ) -> (Self, VolumeCurve) {
        match algo {
            SingleSplitAlgorithm::DpSplit => {
                let (cuts, curve) = DpTable::build(obj, cap).into_parts();
                (SplitSource::Dp(cuts), curve)
            }
            SingleSplitAlgorithm::MergeSplit => {
                let (order, curve) = MergeHierarchy::build(obj).into_parts(cap);
                (SplitSource::Merge(order), curve)
            }
        }
    }

    fn cuts(&self, k: usize) -> Vec<usize> {
        match self {
            SplitSource::Dp(t) => t.cuts(k),
            SplitSource::Merge(o) => o.cuts(k),
        }
    }

    /// Heap bytes held by this source.
    fn heap_bytes(&self) -> usize {
        match self {
            SplitSource::Dp(t) => t.heap_bytes(),
            SplitSource::Merge(o) => o.heap_bytes(),
        }
    }
}

/// A fully-resolved splitting decision for a collection of objects.
///
/// ```
/// use sti_core::{DistributionAlgorithm, SingleSplitAlgorithm, SplitBudget, SplitPlan};
/// use sti_geom::{Point2, Rect2};
/// use sti_trajectory::RasterizedObject;
///
/// // One object drifting right for 20 instants.
/// let rects = (0..20)
///     .map(|i| Rect2::centered(Point2::new(0.1 + 0.02 * i as f64, 0.5), 0.02, 0.02))
///     .collect();
/// let objects = vec![RasterizedObject::new(0, 100, rects)];
///
/// let plan = SplitPlan::build(
///     &objects,
///     SingleSplitAlgorithm::MergeSplit,
///     DistributionAlgorithm::LaGreedy,
///     SplitBudget::Count(3),
///     None,
/// );
/// let records = plan.records(&objects);
/// assert_eq!(records.len(), 4); // 3 splits → 4 pieces
/// assert!(plan.total_volume() < objects[0].unsplit_volume());
/// ```
pub struct SplitPlan {
    allocation: SplitAllocation,
    sources: Vec<SplitSource>,
    stats: PlanStats,
}

/// Timing breakdown of a [`SplitPlan::build_with`] call.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanStats {
    /// Worker threads the curve phase resolved to.
    pub workers: usize,
    /// Wall-clock spent building per-object split sources and curves
    /// (the data-parallel phase).
    pub curve_time: Duration,
    /// Wall-clock spent distributing the budget (sequential by nature:
    /// the algorithms make globally ordered greedy/DP decisions).
    pub distribute_time: Duration,
    /// Heap bytes of the per-object split state while the budget is
    /// distributed: the sources the plan keeps plus the volume curves.
    /// MergeSplit keeps 12 B per instant (a `u32` cut, an `f64` curve
    /// point) plus a constant per object.
    pub heap_bytes: usize,
}

impl SplitPlan {
    /// Build the per-object split sources and volume curves once; the
    /// tuner re-distributes different budgets over the same curves.
    ///
    /// Each object's source is a pure function of that object, so the
    /// per-object work fans out over [`map_chunked`]; results come back
    /// in object order and are identical for every `parallelism`.
    pub(crate) fn prepare(
        objects: &[RasterizedObject],
        single: SingleSplitAlgorithm,
        max_splits_per_object: Option<usize>,
        parallelism: Parallelism,
    ) -> (Vec<SplitSource>, Vec<VolumeCurve>) {
        map_chunked(objects, parallelism, |_, o| {
            let cap = max_splits_per_object
                .unwrap_or(o.len() - 1)
                .min(o.len() - 1);
            SplitSource::build(o, single, cap)
        })
        .into_iter()
        .unzip()
    }

    /// Plan the splits: build per-object volume curves with `single`,
    /// then distribute the resolved budget with `distribution`.
    ///
    /// `max_splits_per_object` caps each object's curve; `None` allows up
    /// to `n − 1` splits per object (exact, but makes `DpSplit` cubic in
    /// the lifetime — the reason the paper's fig. 11 DPSplit bars reach a
    /// day of CPU).
    ///
    /// Single-threaded; [`SplitPlan::build_with`] takes a
    /// [`Parallelism`] knob and produces byte-identical output.
    pub fn build(
        objects: &[RasterizedObject],
        single: SingleSplitAlgorithm,
        distribution: DistributionAlgorithm,
        budget: SplitBudget,
        max_splits_per_object: Option<usize>,
    ) -> Self {
        Self::build_with(
            objects,
            single,
            distribution,
            budget,
            max_splits_per_object,
            Parallelism::Sequential,
        )
    }

    /// [`SplitPlan::build`] with an explicit [`Parallelism`] for the
    /// curve phase. Output (allocation, volumes, records) is identical
    /// for every setting; only wall-clock differs. Timings land in
    /// [`SplitPlan::stats`].
    pub fn build_with(
        objects: &[RasterizedObject],
        single: SingleSplitAlgorithm,
        distribution: DistributionAlgorithm,
        budget: SplitBudget,
        max_splits_per_object: Option<usize>,
        parallelism: Parallelism,
    ) -> Self {
        let k = budget.resolve(objects.len());
        let start = Instant::now();
        let (sources, curves) = Self::prepare(objects, single, max_splits_per_object, parallelism);
        let curve_time = start.elapsed();
        let heap_bytes = split_state_bytes(&sources, &curves);
        let start = Instant::now();
        let allocation = distribution.distribute(&curves, k);
        let stats = PlanStats {
            workers: parallelism.workers(),
            curve_time,
            distribute_time: start.elapsed(),
            heap_bytes,
        };
        Self {
            allocation,
            sources,
            stats,
        }
    }

    /// Timing breakdown of the build that produced this plan.
    pub fn stats(&self) -> &PlanStats {
        &self.stats
    }

    /// The split allocation (per-object counts and total volume).
    pub fn allocation(&self) -> &SplitAllocation {
        &self.allocation
    }

    /// Total volume of the planned representation.
    pub fn total_volume(&self) -> f64 {
        self.allocation.total_volume
    }

    /// Materialize the records: each object contributes `splits + 1`
    /// boxes, in object order, pieces in time order.
    ///
    /// # Panics
    /// If `objects` is not the same collection the plan was built from
    /// (length mismatch).
    pub fn records(&self, objects: &[RasterizedObject]) -> Vec<ObjectRecord> {
        records_for(objects, &self.sources, &self.allocation.splits)
    }
}

/// Heap bytes held by prepared sources and curves, their vectors included.
fn split_state_bytes(sources: &[SplitSource], curves: &[VolumeCurve]) -> usize {
    std::mem::size_of_val(sources)
        + std::mem::size_of_val(curves)
        + sources.iter().map(SplitSource::heap_bytes).sum::<usize>()
        + curves.iter().map(VolumeCurve::heap_bytes).sum::<usize>()
}

/// Materialize records from prepared sources and a per-object split
/// allocation (shared by [`SplitPlan::records`] and the tuner, which
/// re-distributes many budgets over the same sources).
pub(crate) fn records_for(
    objects: &[RasterizedObject],
    sources: &[SplitSource],
    splits: &[usize],
) -> Vec<ObjectRecord> {
    assert_eq!(objects.len(), splits.len(), "plan/object mismatch");
    let mut out = Vec::with_capacity(objects.len() + splits.iter().sum::<usize>());
    for ((obj, src), &s) in objects.iter().zip(sources).zip(splits) {
        let cuts = src.cuts(s);
        for stbox in obj.boxes_for_cuts(&cuts) {
            out.push(ObjectRecord {
                id: obj.id(),
                stbox,
            });
        }
    }
    out
}

/// One timestamped update in a record stream: partially persistent
/// structures ingest records as insert/delete events in time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecordEvent {
    /// The record's lifetime ends at this instant (applied first at equal
    /// timestamps so an object's consecutive pieces never coexist).
    Delete,
    /// The record's lifetime starts at this instant.
    Insert,
}

impl RecordEvent {
    /// Apply this event for `record` at instant `t` — the one ingest
    /// step behind the offline build and the live pipeline. A delete that finds nothing is a bug, not an I/O
    /// condition: every event stream pairs each delete with the insert
    /// it emitted earlier.
    pub(crate) fn apply(
        self,
        tree: &mut PprTree,
        record: &ObjectRecord,
        t: sti_geom::Time,
    ) -> Result<(), StorageError> {
        match self {
            RecordEvent::Insert => tree.insert(record.id, record.stbox.rect, t),
            RecordEvent::Delete => match tree.delete(record.id, record.stbox.rect, t) {
                Ok(()) => Ok(()),
                Err(DeleteError::Storage(e)) => Err(e),
                #[expect(
                    clippy::panic,
                    reason = "every event stream derives each delete from a record it also emits an insert for, and deletes sort before inserts at equal times"
                )]
                Err(e @ DeleteError::NotFound { .. }) => {
                    panic!("every delete event matches an earlier insert: {e}")
                }
            },
        }
    }
}

/// Expand records into the time-ordered update stream the partially
/// persistent structures consume: `(time, event, record index)`, deletes
/// before inserts at equal instants.
///
/// # Panics
/// On an empty or still-open record lifetime (offline datasets are
/// finite).
pub fn record_events(records: &[ObjectRecord]) -> Vec<(sti_geom::Time, RecordEvent, usize)> {
    let mut events = Vec::with_capacity(records.len() * 2);
    for (i, r) in records.iter().enumerate() {
        let life = r.stbox.lifetime;
        assert!(!life.is_empty(), "record {} has an empty lifetime", r.id);
        assert!(!life.is_open(), "offline datasets have finite lifetimes");
        events.push((life.start, RecordEvent::Insert, i));
        events.push((life.end, RecordEvent::Delete, i));
    }
    events.sort_unstable();
    events
}

/// Records for the *unsplit* baseline: one MBR per object.
pub fn unsplit_records(objects: &[RasterizedObject]) -> Vec<ObjectRecord> {
    objects
        .iter()
        .map(|o| ObjectRecord {
            id: o.id(),
            stbox: StBox::new(o.mbr_range(0, o.len()), o.lifetime()),
        })
        .collect()
}

/// Records for the *piecewise* baseline: one box per motion segment
/// (splits at every movement change point; unbudgeted).
pub fn piecewise_records(objects: &[RasterizedObject]) -> Vec<ObjectRecord> {
    let mut out = Vec::new();
    for obj in objects {
        for stbox in obj.boxes_for_cuts(&piecewise_cuts(obj)) {
            out.push(ObjectRecord {
                id: obj.id(),
                stbox,
            });
        }
    }
    out
}

/// Total volume of a record set — the objective the paper minimizes.
pub fn total_volume(records: &[ObjectRecord]) -> f64 {
    records.iter().map(|r| r.stbox.volume()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::testutil::{diagonal_mover, stationary, two_jump};

    fn objects() -> Vec<RasterizedObject> {
        vec![diagonal_mover(12), two_jump(4), stationary(8)]
    }

    #[test]
    fn budget_resolution() {
        assert_eq!(SplitBudget::Count(7).resolve(100), 7);
        assert_eq!(SplitBudget::Percent(50.0).resolve(100), 50);
        assert_eq!(SplitBudget::Percent(150.0).resolve(10), 15);
        assert_eq!(SplitBudget::Percent(1.0).resolve(50), 1); // 0.5 rounds up
        assert_eq!(SplitBudget::Percent(f64::INFINITY).resolve(3), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "split percentage is NaN")]
    fn a_nan_percentage_is_named() {
        let _ = SplitBudget::Percent(f64::NAN).resolve(10);
    }

    #[test]
    #[should_panic(expected = "negative split percentage")]
    fn a_negative_percentage_is_named() {
        let _ = SplitBudget::Percent(-1.0).resolve(10);
    }

    /// Every split the curves can absorb: `n − 1` per object.
    fn every_split(objs: &[RasterizedObject]) -> Vec<usize> {
        objs.iter().map(|o| o.len() - 1).collect()
    }

    #[test]
    fn a_count_past_every_curve_splits_every_instant() {
        let objs = objects();
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Count(usize::MAX),
            None,
        );
        assert_eq!(plan.allocation().splits, every_split(&objs));
    }

    #[test]
    fn an_infinite_percentage_splits_every_instant() {
        let objs = objects();
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(f64::INFINITY),
            None,
        );
        assert_eq!(plan.allocation().splits, every_split(&objs));
    }

    #[test]
    fn plan_produces_consistent_records() {
        let objs = objects();
        for single in [
            SingleSplitAlgorithm::DpSplit,
            SingleSplitAlgorithm::MergeSplit,
        ] {
            for dist in [
                DistributionAlgorithm::Optimal,
                DistributionAlgorithm::Greedy,
                DistributionAlgorithm::LaGreedy,
            ] {
                let plan = SplitPlan::build(&objs, single, dist, SplitBudget::Count(5), None);
                let records = plan.records(&objs);
                assert_eq!(records.len(), plan.allocation().record_count());
                // Materialized volume equals the planned volume.
                let v = total_volume(&records);
                assert!(
                    (v - plan.total_volume()).abs() < 1e-9,
                    "{single}/{dist}: {v} vs {}",
                    plan.total_volume()
                );
            }
        }
    }

    #[test]
    fn splitting_reduces_volume_vs_unsplit() {
        let objs = objects();
        let unsplit = total_volume(&unsplit_records(&objs));
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(150.0),
            None,
        );
        assert!(plan.total_volume() < unsplit);
    }

    #[test]
    fn optimal_dominates_heuristics_on_the_same_curves() {
        let objs = objects();
        let k = SplitBudget::Count(6);
        let opt = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::DpSplit,
            DistributionAlgorithm::Optimal,
            k,
            None,
        );
        let gre = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::DpSplit,
            DistributionAlgorithm::Greedy,
            k,
            None,
        );
        let la = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::DpSplit,
            DistributionAlgorithm::LaGreedy,
            k,
            None,
        );
        assert!(opt.total_volume() <= la.total_volume() + 1e-9);
        assert!(la.total_volume() <= gre.total_volume() + 1e-9);
    }

    #[test]
    fn records_cover_every_lifetime_instant_exactly_once() {
        let objs = objects();
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            SplitBudget::Percent(100.0),
            None,
        );
        let records = plan.records(&objs);
        for obj in &objs {
            let mine: Vec<_> = records.iter().filter(|r| r.id == obj.id()).collect();
            let life = obj.lifetime();
            for t in life.start..life.end {
                let covering = mine.iter().filter(|r| r.stbox.lifetime.contains(t)).count();
                assert_eq!(covering, 1, "object {} instant {t}", obj.id());
            }
        }
    }

    #[test]
    fn cap_limits_per_object_splits() {
        let objs = objects();
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::Greedy,
            SplitBudget::Count(1000),
            Some(2),
        );
        assert!(plan.allocation().splits.iter().all(|&s| s <= 2));
    }

    #[test]
    fn parallel_build_is_byte_identical_to_sequential() {
        use crate::parallel::Parallelism;
        let objs = objects();
        let seq = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Count(5),
            None,
        );
        for workers in [2, 3, 8] {
            let par = SplitPlan::build_with(
                &objs,
                SingleSplitAlgorithm::MergeSplit,
                DistributionAlgorithm::LaGreedy,
                SplitBudget::Count(5),
                None,
                Parallelism::fixed(workers),
            );
            assert_eq!(par.allocation().splits, seq.allocation().splits);
            assert_eq!(
                par.total_volume().to_bits(),
                seq.total_volume().to_bits(),
                "{workers} workers"
            );
            assert_eq!(par.records(&objs), seq.records(&objs));
            assert_eq!(par.stats().workers, workers);
        }
    }

    #[test]
    fn a_merge_plan_keeps_twelve_bytes_per_instant() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use sti_geom::Rect2;
        let mut rng = StdRng::seed_from_u64(0x1a7e_5eed);
        let objs: Vec<RasterizedObject> = (0..20_000)
            .map(|id| {
                let (x, y) = (rng.random::<f64>() * 0.9, rng.random::<f64>() * 0.9);
                let (dx, dy) = (rng.random::<f64>() * 1e-3, rng.random::<f64>() * 1e-3);
                let rects = (0..rng.random_range(1..100))
                    .map(|i| {
                        let (x, y) = (x + dx * f64::from(i), y + dy * f64::from(i));
                        Rect2::from_bounds(x, y, x + 0.01, y + 0.01)
                    })
                    .collect();
                RasterizedObject::new(id, rng.random_range(0..900), rects)
            })
            .collect();
        let instants: usize = objs.iter().map(RasterizedObject::len).sum();
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(50.0),
            None,
        );
        let per_object = std::mem::size_of::<SplitSource>() + std::mem::size_of::<VolumeCurve>();
        let bytes = plan.stats().heap_bytes;
        // n − 1 cuts of 4 B and n curve points of 8 B per object.
        assert!(
            bytes <= 12 * instants + per_object * objs.len(),
            "{bytes} B"
        );
        assert!(bytes >= 12 * instants - 4 * objs.len(), "{bytes} B");
    }

    #[test]
    fn unsplit_and_piecewise_baselines() {
        let objs = objects();
        let u = unsplit_records(&objs);
        assert_eq!(u.len(), objs.len());
        // diagonal_mover/two_jump/stationary are built raster-first and
        // carry no change points, so piecewise degenerates to unsplit.
        let p = piecewise_records(&objs);
        assert_eq!(p.len(), objs.len());
        assert!((total_volume(&p) - total_volume(&u)).abs() < 1e-12);
    }
}
