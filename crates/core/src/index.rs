//! The high-level spatiotemporal index: split records + a disk-based
//! index backend, queried uniformly.

use crate::multi::DistributionAlgorithm;
use crate::parallel::Parallelism;
use crate::plan::{ObjectRecord, SplitBudget, SplitPlan};
use crate::single::SingleSplitAlgorithm;
use std::time::{Duration, Instant};
use sti_geom::{Rect2, Rect3, Time, TimeInterval};
use sti_obs::{QueryStats, Span};
use sti_pprtree::{BulkError, BulkLoader, BulkPiece, BulkStats, PprParams, PprTree, Update};
use sti_rstar::{RStarParams, RStarTree};
use sti_storage::{FaultStats, IoStats, PageStore, StorageError};
use sti_trajectory::RasterizedObject;

/// Which index structure backs a [`SpatioTemporalIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexBackend {
    /// The partially persistent R-Tree (the paper's proposal).
    PprTree,
    /// The 3D R\*-Tree (the straightforward baseline).
    RStar,
}

impl std::fmt::Display for IndexBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexBackend::PprTree => write!(f, "PPR-Tree"),
            IndexBackend::RStar => write!(f, "R*-Tree"),
        }
    }
}

/// Build configuration for [`SpatioTemporalIndex::build`].
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Backend selection.
    pub backend: IndexBackend,
    /// Evolution length in instants; the R\*-Tree scales time into the
    /// unit range by this (§V), and query ranges are interpreted in it.
    pub time_extent: Time,
    /// PPR-Tree parameters (used when `backend == PprTree`).
    pub ppr: PprParams,
    /// R\*-Tree parameters (used when `backend == RStar`).
    pub rstar: RStarParams,
}

impl IndexConfig {
    /// The paper's setup for the given backend: 50-entry pages, 10-page
    /// LRU buffer, `P_version = 0.22`, `P_svo = 0.8`, `P_svu = 0.4`,
    /// 1000-instant evolution.
    pub fn paper(backend: IndexBackend) -> Self {
        Self {
            backend,
            time_extent: 1000,
            ppr: PprParams::default(),
            rstar: RStarParams::default(),
        }
    }
}

/// Timing breakdown of an end-to-end [`SpatioTemporalIndex::build_from_objects`]
/// call, reported by every figure binary and the `stidx` CLI.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BuildStats {
    /// Worker threads the data-parallel curve phase resolved to.
    pub workers: usize,
    /// Wall-clock building per-object split sources and volume curves.
    pub curve_time: Duration,
    /// Heap bytes of those sources and curves
    /// ([`PlanStats::heap_bytes`](crate::PlanStats::heap_bytes)).
    pub plan_bytes: usize,
    /// Wall-clock distributing the split budget across objects.
    pub distribute_time: Duration,
    /// Wall-clock materializing records and ingesting them into the
    /// backend structure.
    pub tree_build_time: Duration,
    /// Number of [`ObjectRecord`]s the plan emitted (= objects + splits).
    pub records_emitted: usize,
}

impl BuildStats {
    /// The phase timings as named [`Span`]s, in execution order:
    /// `split_planning` (per-object curves), `distribute` (budget
    /// distribution / packing), `tree_build` (record materialization and
    /// backend ingest).
    pub fn spans(&self) -> Vec<Span> {
        vec![
            Span::from_duration("split_planning", self.curve_time),
            Span::from_duration("distribute", self.distribute_time),
            Span::from_duration("tree_build", self.tree_build_time),
        ]
    }
}

impl std::fmt::Display for BuildStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "workers={} curves={:.3}s plan_bytes={} distribute={:.3}s tree={:.3}s records={}",
            self.workers,
            self.curve_time.as_secs_f64(),
            self.plan_bytes,
            self.distribute_time.as_secs_f64(),
            self.tree_build_time.as_secs_f64(),
            self.records_emitted
        )
    }
}

enum Backend {
    Ppr(PprTree),
    RStar { tree: RStarTree, time_scale: f64 },
}

/// A built index over split spatiotemporal records, answering topological
/// snapshot and interval queries with faithful I/O accounting.
///
/// Construction follows §V: the PPR-Tree ingests the records as a
/// time-ordered stream of insertions and (logical) deletions; the
/// R\*-Tree receives one 3D box per record, in deterministic pseudo-random
/// order, with the time axis scaled to the unit range.
pub struct SpatioTemporalIndex {
    backend: Backend,
    record_count: usize,
}

impl SpatioTemporalIndex {
    /// Build an index over the record set.
    ///
    /// # Errors
    /// A [`StorageError`] if the backend's page store fails during
    /// ingest (only possible with a fallible backing store; the default
    /// in-memory store cannot fail).
    pub fn build(records: &[ObjectRecord], config: &IndexConfig) -> Result<Self, StorageError> {
        let backend = match config.backend {
            IndexBackend::PprTree => Backend::Ppr(build_ppr(records, config.ppr)?),
            IndexBackend::RStar => {
                let time_scale = f64::from(config.time_extent);
                Backend::RStar {
                    tree: build_rstar(records, config.rstar, time_scale)?,
                    time_scale,
                }
            }
        };
        Ok(Self {
            backend,
            record_count: records.len(),
        })
    }

    /// Bulk-load a PPR-Tree bottom-up from a record stream, writing
    /// packed pages straight into `store` (pass a
    /// [`sti_storage::FileBackend`]-backed store for an out-of-core
    /// build). Peak memory is one external-sort chunk, one packing
    /// region and the pending directory edges — the record stream
    /// itself is spooled to sorted runs under `spool_dir`, so
    /// million-record datasets never reside in memory at once. The
    /// resulting index passes the same full-history sanitizer as an
    /// incrementally built one.
    ///
    /// # Errors
    /// Any [`BulkError`] from the loader (invalid piece, spool I/O, or
    /// page store failure).
    pub fn bulk_build_ppr(
        records: impl IntoIterator<Item = ObjectRecord>,
        config: &IndexConfig,
        store: PageStore,
        spool_dir: &std::path::Path,
    ) -> Result<(Self, BulkStats), BulkError> {
        let mut loader = BulkLoader::new(config.ppr, spool_dir);
        let mut count = 0usize;
        for r in records {
            loader.push(BulkPiece {
                rect: r.stbox.rect,
                ptr: r.id,
                insertion: r.stbox.lifetime.start,
                deletion: r.stbox.lifetime.end,
            })?;
            count += 1;
        }
        let (tree, stats) = loader.finish(store)?;
        Ok((
            Self {
                backend: Backend::Ppr(tree),
                record_count: count,
            },
            stats,
        ))
    }

    /// Split the objects and build an index in one step, reporting a
    /// per-phase [`BuildStats`].
    ///
    /// The curve phase fans out over `parallelism`
    /// ([`crate::parallel::map_chunked`]); the resulting plan, records,
    /// and index are byte-identical for every setting.
    ///
    /// # Errors
    /// A [`StorageError`] if ingest fails (see
    /// [`SpatioTemporalIndex::build`]).
    pub fn build_from_objects(
        objects: &[RasterizedObject],
        single: SingleSplitAlgorithm,
        distribution: DistributionAlgorithm,
        budget: SplitBudget,
        max_splits_per_object: Option<usize>,
        config: &IndexConfig,
        parallelism: Parallelism,
    ) -> Result<(Self, BuildStats), StorageError> {
        let plan = SplitPlan::build_with(
            objects,
            single,
            distribution,
            budget,
            max_splits_per_object,
            parallelism,
        );
        let tree_build = Instant::now();
        let records = plan.records(objects);
        let index = Self::build(&records, config)?;
        let plan_stats = plan.stats();
        let stats = BuildStats {
            workers: plan_stats.workers,
            curve_time: plan_stats.curve_time,
            plan_bytes: plan_stats.heap_bytes,
            distribute_time: plan_stats.distribute_time,
            tree_build_time: tree_build.elapsed(),
            records_emitted: records.len(),
        };
        Ok((index, stats))
    }

    /// Open a PPR-Tree index saved with [`PprTree::save_to_file`]. The
    /// R\*-Tree baseline is built in-process only and has no saved form.
    ///
    /// # Errors
    /// [`PprTree::open_file`]'s: an unreadable or damaged file, or one
    /// that holds an R\*-Tree image, which is no longer supported.
    pub fn open_file(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(PprTree::open_file(path)?.into())
    }

    /// Borrow the underlying PPR-Tree, when that backend is active.
    pub fn as_ppr(&self) -> Option<&PprTree> {
        match &self.backend {
            Backend::Ppr(t) => Some(t),
            Backend::RStar { .. } => None,
        }
    }

    /// Mutably borrow the underlying PPR-Tree, when that backend is
    /// active (e.g. to persist it with [`PprTree::save_to_file`], which
    /// needs `&mut` to flush and stamp the store).
    pub fn as_ppr_mut(&mut self) -> Option<&mut PprTree> {
        match &mut self.backend {
            Backend::Ppr(t) => Some(t),
            Backend::RStar { .. } => None,
        }
    }

    /// Which backend this index uses.
    pub fn backend(&self) -> IndexBackend {
        match self.backend {
            Backend::Ppr(_) => IndexBackend::PprTree,
            Backend::RStar { .. } => IndexBackend::RStar,
        }
    }

    /// Number of records indexed.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Disk footprint in pages (fig. 16).
    pub fn num_pages(&self) -> usize {
        match &self.backend {
            Backend::Ppr(t) => t.num_pages(),
            Backend::RStar { tree, .. } => tree.num_pages(),
        }
    }

    /// Accumulated I/O counters.
    pub fn io_stats(&self) -> IoStats {
        match &self.backend {
            Backend::Ppr(t) => t.io_stats(),
            Backend::RStar { tree, .. } => tree.io_stats(),
        }
    }

    /// Accumulated fault/retry counters from the backing store (all
    /// zero unless a fault-injecting backend is attached).
    pub fn fault_stats(&self) -> FaultStats {
        match &self.backend {
            Backend::Ppr(t) => t.fault_stats(),
            Backend::RStar { tree, .. } => tree.fault_stats(),
        }
    }

    /// Zero the I/O and fault counters without touching buffer
    /// residency. Shared: counters are interior-mutable, so a bench can
    /// open a fresh accounting window while other threads still hold
    /// `&self` for querying.
    pub fn reset_counters(&self) {
        match &self.backend {
            Backend::Ppr(t) => t.reset_counters(),
            Backend::RStar { tree, .. } => tree.reset_counters(),
        }
    }

    /// Empty the buffer pool (cold-buffer methodology). Exclusive so
    /// residency cannot be yanked out from under concurrent readers.
    pub fn clear_buffer(&mut self) {
        match &mut self.backend {
            Backend::Ppr(t) => t.clear_buffer(),
            Backend::RStar { tree, .. } => tree.clear_buffer(),
        }
    }

    /// Reset I/O counters and buffer pool before a measured query — the
    /// union of [`SpatioTemporalIndex::reset_counters`] and
    /// [`SpatioTemporalIndex::clear_buffer`].
    pub fn reset_for_query(&mut self) {
        self.reset_counters();
        self.clear_buffer();
    }

    /// Answer a topological query: ids of objects intersecting `area`
    /// at any instant of `range`, de-duplicated and sorted. An empty
    /// `range` (such as `TimeInterval::instant(Time::MAX)`) answers
    /// nothing.
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries; the index
    /// is unchanged (queries are read-only).
    pub fn query(&self, area: &Rect2, range: &TimeInterval) -> Result<Vec<u64>, StorageError> {
        Ok(self.query_with_stats(area, range)?.0)
    }

    /// Like [`SpatioTemporalIndex::query`], but also report the
    /// per-query [`QueryStats`] delta. `results` reflects the
    /// de-duplicated result count the caller receives; the I/O fields
    /// reconcile exactly with the global [`IoStats`] counters.
    ///
    /// # Errors
    /// A [`StorageError`] if a page read fails after retries.
    pub fn query_with_stats(
        &self,
        area: &Rect2,
        range: &TimeInterval,
    ) -> Result<(Vec<u64>, QueryStats), StorageError> {
        if range.is_empty() {
            return Ok((Vec::new(), QueryStats::new()));
        }
        let mut out = Vec::new();
        let mut stats = match &self.backend {
            Backend::Ppr(t) => {
                if range.len() == 1 {
                    t.query_snapshot(area, range.start, &mut out)?
                } else {
                    t.query_interval(area, range, &mut out)?
                }
            }
            Backend::RStar { tree, time_scale } => {
                tree.query(&Rect3::from_query(area, range, *time_scale), &mut out)?
            }
        };
        out.sort_unstable();
        out.dedup();
        stats.results = out.len() as u64;
        Ok((out, stats))
    }

    /// Answer a batch of queries, fanned across `parallelism` worker
    /// threads over this one shared index (queries are `&self` end to
    /// end). Outcomes come back in request order and are byte-identical
    /// for every `parallelism` setting; each query's [`QueryStats`] is
    /// attributed to that query alone, so the batch sum reconciles with
    /// the global [`IoStats`] delta even under concurrency.
    pub fn query_batch_with_stats(
        &self,
        requests: &[crate::executor::QueryRequest],
        parallelism: crate::parallel::Parallelism,
    ) -> Vec<crate::executor::QueryOutcome> {
        crate::executor::QueryExecutor::new(parallelism).run(self, requests)
    }
}

/// Serve a PPR-Tree built elsewhere — opened from a file, or sealed by
/// an [`crate::IngestPipeline`] — through the facade.
impl From<PprTree> for SpatioTemporalIndex {
    fn from(tree: PprTree) -> Self {
        let record_count = usize::try_from(tree.total_records()).unwrap_or(usize::MAX);
        Self {
            backend: Backend::Ppr(tree),
            record_count,
        }
    }
}

/// Ingest records into a PPR-Tree as a time-ordered update stream,
/// applied as one batch. Deletions at an instant are applied before
/// insertions so an object's consecutive split pieces never coexist.
fn build_ppr(records: &[ObjectRecord], params: PprParams) -> Result<PprTree, StorageError> {
    let updates: Vec<Update> = crate::plan::record_events(records)
        .into_iter()
        .map(|(t, ev, i)| ev.update(&records[i], t))
        .collect();
    let mut tree = PprTree::new(params);
    crate::plan::apply_events(&mut tree, &updates)?;
    Ok(tree)
}

/// Ingest records into a 3D R\*-Tree in deterministic pseudo-random order
/// (the paper inserts "in random order"), time scaled to the unit range.
fn build_rstar(
    records: &[ObjectRecord],
    params: RStarParams,
    time_scale: f64,
) -> Result<RStarTree, StorageError> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    // Multiplicative-hash shuffle: deterministic, dependency-free.
    order.sort_by_key(|&i| {
        (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17)
    });
    let mut tree = RStarTree::new(params);
    for i in order {
        let r = &records[i];
        tree.insert(r.id, r.to_rect3(time_scale))?;
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{unsplit_records, SplitBudget, SplitPlan};
    use crate::{DistributionAlgorithm, SingleSplitAlgorithm};
    use sti_geom::Rect2;
    use sti_trajectory::RasterizedObject;

    fn small_config(backend: IndexBackend) -> IndexConfig {
        IndexConfig {
            backend,
            time_extent: 1000,
            ppr: PprParams {
                max_entries: 10,
                buffer_pages: 4,
                ..PprParams::default()
            },
            rstar: RStarParams {
                max_entries: 8,
                buffer_pages: 4,
                ..RStarParams::default()
            },
        }
    }

    /// A small synthetic dataset of movers at staggered times.
    fn dataset() -> Vec<RasterizedObject> {
        (0..40u64)
            .map(|id| {
                let start = ((id * 17) % 800) as u32;
                let n = 20 + (id % 30) as usize;
                let rects = (0..n)
                    .map(|i| {
                        let x = 0.02 + 0.9 * ((id as f64 / 40.0) + 0.01 * i as f64).fract();
                        let y = 0.02 + 0.9 * ((id as f64 / 13.0) + 0.008 * i as f64).fract();
                        Rect2::from_bounds(x, y, (x + 0.02).min(1.0), (y + 0.02).min(1.0))
                    })
                    .collect();
                RasterizedObject::new(id, start, rects)
            })
            .collect()
    }

    /// Brute-force oracle over the raw per-instant geometry.
    fn oracle(objs: &[RasterizedObject], area: &Rect2, range: &TimeInterval) -> Vec<u64> {
        let mut out: Vec<u64> = objs
            .iter()
            .filter(|o| {
                let life = o.lifetime();
                life.overlaps(range)
                    && (range.start.max(life.start)..range.end.min(life.end))
                        .any(|t| o.rect((t - life.start) as usize).intersects(area))
            })
            .map(|o| o.id())
            .collect();
        out.sort_unstable();
        out
    }

    /// `open_file` answers the same queries as the in-memory index the
    /// saved image came from.
    #[test]
    fn open_file_round_trips_a_ppr_index() {
        let objs = dataset();
        let records = unsplit_records(&objs);
        let area = Rect2::from_bounds(0.2, 0.2, 0.6, 0.5);
        let range = TimeInterval::new(100, 300);
        let mut idx =
            SpatioTemporalIndex::build(&records, &small_config(IndexBackend::PprTree)).unwrap();
        let want = idx.query(&area, &range).unwrap();
        let path = std::env::temp_dir().join(format!("sti-core-open-{}.idx", std::process::id()));
        idx.as_ppr_mut().unwrap().save_to_file(&path).unwrap();
        let opened = SpatioTemporalIndex::open_file(&path).unwrap();
        assert_eq!(opened.backend(), IndexBackend::PprTree);
        assert_eq!(opened.record_count(), idx.record_count());
        assert_eq!(opened.query(&area, &range).unwrap(), want);
        let _ = std::fs::remove_file(&path);
    }

    /// A file that is not an index at all fails to open.
    #[test]
    fn open_file_rejects_garbage() {
        let path =
            std::env::temp_dir().join(format!("sti-core-garbage-{}.idx", std::process::id()));
        std::fs::write(&path, b"not an index").unwrap();
        assert!(SpatioTemporalIndex::open_file(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    /// An empty range — the last instant `[MAX, MAX)` or any `[t, t)` —
    /// answers nothing on either backend, reading no page.
    #[test]
    fn an_empty_range_answers_nothing_on_both_backends() {
        let records = unsplit_records(&dataset());
        for backend in [IndexBackend::PprTree, IndexBackend::RStar] {
            let idx = SpatioTemporalIndex::build(&records, &small_config(backend)).unwrap();
            let before = idx.io_stats();
            for range in [
                TimeInterval::instant(Time::MAX),
                TimeInterval::new(300, 300),
            ] {
                assert_eq!(
                    idx.query_with_stats(&Rect2::UNIT, &range).unwrap(),
                    (Vec::new(), QueryStats::new()),
                    "{backend}: {range:?}"
                );
            }
            assert_eq!(idx.io_stats(), before, "{backend}: no page was read");
        }
    }

    #[test]
    fn both_backends_have_no_false_negatives_on_unsplit_data() {
        let objs = dataset();
        let records = unsplit_records(&objs);
        for backend in [IndexBackend::PprTree, IndexBackend::RStar] {
            let idx = SpatioTemporalIndex::build(&records, &small_config(backend)).unwrap();
            for (cx, cy, t) in [(0.3, 0.3, 100u32), (0.7, 0.2, 400), (0.1, 0.9, 750)] {
                let area = Rect2::from_bounds(cx, cy, cx + 0.2, cy + 0.08);
                let range = TimeInterval::new(t, t + 1);
                let got = idx.query(&area, &range).unwrap();
                // Unsplit MBRs over-approximate: every true hit must be
                // reported, because an object's MBR contains the object.
                for id in oracle(&objs, &area, &range) {
                    assert!(got.contains(&id), "{backend}: missing object {id}");
                }
            }
        }
    }

    #[test]
    fn split_records_answer_exactly_and_backends_agree() {
        let objs = dataset();
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::MergeSplit,
            DistributionAlgorithm::LaGreedy,
            SplitBudget::Percent(150.0),
            None,
        );
        let records = plan.records(&objs);
        let ppr =
            SpatioTemporalIndex::build(&records, &small_config(IndexBackend::PprTree)).unwrap();
        let rstar =
            SpatioTemporalIndex::build(&records, &small_config(IndexBackend::RStar)).unwrap();

        let brute = |area: &Rect2, range: &TimeInterval| -> Vec<u64> {
            let mut v: Vec<u64> = records
                .iter()
                .filter(|r| r.stbox.matches(area, range))
                .map(|r| r.id)
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };

        for i in 0..20u32 {
            let x = 0.05 * f64::from(i % 10);
            let area = Rect2::from_bounds(x, 0.1, x + 0.15, 0.5);
            let range = TimeInterval::new(i * 40, i * 40 + 1 + (i % 7));
            let want = brute(&area, &range);
            assert_eq!(ppr.query(&area, &range).unwrap(), want, "PPR query {i}");
            assert_eq!(rstar.query(&area, &range).unwrap(), want, "R* query {i}");
        }
    }

    #[test]
    fn splitting_never_loses_objects() {
        // The split representation covers each object's true geometry, so
        // any object the oracle reports must still be found.
        let objs = dataset();
        let plan = SplitPlan::build(
            &objs,
            SingleSplitAlgorithm::DpSplit,
            DistributionAlgorithm::Greedy,
            SplitBudget::Percent(100.0),
            Some(8),
        );
        let records = plan.records(&objs);
        let idx =
            SpatioTemporalIndex::build(&records, &small_config(IndexBackend::PprTree)).unwrap();
        for t in (0..900).step_by(97) {
            let area = Rect2::from_bounds(0.2, 0.2, 0.6, 0.6);
            let range = TimeInterval::new(t, t + 1);
            let got = idx.query(&area, &range).unwrap();
            for id in oracle(&objs, &area, &range) {
                assert!(got.contains(&id), "missing object {id} at t={t}");
            }
        }
    }

    #[test]
    fn io_counting_is_wired_through() {
        let objs = dataset();
        let records = unsplit_records(&objs);
        let mut idx =
            SpatioTemporalIndex::build(&records, &small_config(IndexBackend::PprTree)).unwrap();
        idx.reset_for_query();
        let _ = idx
            .query(&Rect2::UNIT, &TimeInterval::new(100, 101))
            .unwrap();
        assert!(idx.io_stats().reads > 0, "queries must cost I/O");
        assert!(idx.num_pages() > 0);
        assert_eq!(idx.record_count(), records.len());
        assert_eq!(idx.backend(), IndexBackend::PprTree);
    }
}
