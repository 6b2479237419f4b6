//! Parallel query execution over one shared index.
//!
//! Queries take `&self` all the way down (tree → page store → buffer
//! pool), so a single [`SpatioTemporalIndex`] can serve many reader
//! threads at once: the only coordination is the buffer pool's one
//! lock, held for the LRU bookkeeping alone. [`QueryExecutor`] packages
//! that capability for batches (the facade's `query_batch_with_stats`
//! and the system benchmark's batch legs): it fans [`QueryRequest`]s
//! across [`map_chunked`] workers and reassembles the per-query
//! outcomes **in request order**, so for every [`Parallelism`] setting
//! the output is byte-identical to running the batch sequentially (the
//! property `tests/concurrent_queries.rs` pins). One query needs no
//! executor: `sti-server` calls `query_with_stats` directly.
//!
//! Per-query [`QueryStats`] are attributed through thread-local
//! [`sti_storage::ReadProbe`]s rather than global counter snapshots, so
//! summing the outcomes of a concurrent batch still reconciles exactly
//! with the store's global [`sti_storage::IoStats`] delta.

use crate::index::SpatioTemporalIndex;
use crate::parallel::{map_chunked, Parallelism};
use sti_geom::{Rect2, TimeInterval};
use sti_obs::QueryStats;
use sti_storage::StorageError;

/// One topological query in a batch: ids of objects intersecting `area`
/// at any instant of `range`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRequest {
    /// Spatial window.
    pub area: Rect2,
    /// Temporal window; an empty one answers nothing.
    pub range: TimeInterval,
}

impl QueryRequest {
    /// A snapshot request: the single instant `t`.
    pub fn snapshot(area: Rect2, t: sti_geom::Time) -> Self {
        Self {
            area,
            range: TimeInterval::instant(t),
        }
    }
}

/// The outcome of one query in a batch: the de-duplicated, sorted result
/// ids plus the per-query I/O attribution, or the typed storage error
/// that aborted it. Errors are per-query — one failing read never
/// poisons its batch siblings.
pub type QueryOutcome = Result<(Vec<u64>, QueryStats), StorageError>;

/// Fans query batches across worker threads with deterministic output.
///
/// Stateless apart from its [`Parallelism`] setting; cheap to copy.
/// Results always come back in request order, so changing the worker
/// count can never change what a caller observes (only how fast).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryExecutor {
    parallelism: Parallelism,
}

impl QueryExecutor {
    /// An executor with the given worker setting.
    pub fn new(parallelism: Parallelism) -> Self {
        Self { parallelism }
    }

    /// The single-threaded baseline every other setting must match.
    pub fn sequential() -> Self {
        Self::new(Parallelism::Sequential)
    }

    /// Run every request against one shared index, returning one
    /// [`QueryOutcome`] per request, in request order.
    pub fn run(&self, index: &SpatioTemporalIndex, requests: &[QueryRequest]) -> Vec<QueryOutcome> {
        map_chunked(requests, self.parallelism, |_, req| {
            index.query_with_stats(&req.area, &req.range)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{IndexBackend, IndexConfig};
    use crate::plan::unsplit_records;
    use sti_geom::Point2;
    use sti_trajectory::RasterizedObject;

    fn build(backend: IndexBackend) -> SpatioTemporalIndex {
        let objects: Vec<RasterizedObject> = (0..40u64)
            .map(|id| {
                let start = ((id * 17) % 600) as u32;
                let rects = (0..30)
                    .map(|i| {
                        let x = 0.05 + 0.85 * ((id as f64 / 40.0) + 0.01 * f64::from(i)).fract();
                        Rect2::centered(Point2::new(x, 0.5), 0.03, 0.03)
                    })
                    .collect();
                RasterizedObject::new(id, start, rects)
            })
            .collect();
        let records = unsplit_records(&objects);
        SpatioTemporalIndex::build(&records, &IndexConfig::paper(backend)).unwrap()
    }

    fn requests() -> Vec<QueryRequest> {
        (0..25u32)
            .map(|i| {
                let x = 0.1 + 0.03 * f64::from(i);
                let t = 20 * i;
                QueryRequest {
                    area: Rect2::from_bounds(x.min(0.8), 0.3, (x + 0.15).min(0.99), 0.7),
                    range: TimeInterval::new(t, t + 1 + 10 * (i % 4)),
                }
            })
            .collect()
    }

    #[test]
    fn parallel_outcomes_match_sequential_exactly() {
        for backend in [IndexBackend::PprTree, IndexBackend::RStar] {
            let index = build(backend);
            let reqs = requests();
            let baseline = QueryExecutor::sequential().run(&index, &reqs);
            for workers in [2usize, 3, 8] {
                let got = QueryExecutor::new(Parallelism::fixed(workers)).run(&index, &reqs);
                assert_eq!(got.len(), baseline.len());
                for (g, b) in got.iter().zip(&baseline) {
                    let (g_ids, _) = g.as_ref().unwrap();
                    let (b_ids, _) = b.as_ref().unwrap();
                    assert_eq!(
                        g_ids, b_ids,
                        "{backend}: results must not depend on workers"
                    );
                }
            }
        }
    }

    #[test]
    fn outcome_stats_sum_to_the_global_io_delta() {
        for backend in [IndexBackend::PprTree, IndexBackend::RStar] {
            let index = build(backend);
            let reqs = requests();
            let before = index.io_stats();
            let outcomes = QueryExecutor::new(Parallelism::fixed(4)).run(&index, &reqs);
            let after = index.io_stats();
            let (mut reads, mut hits) = (0u64, 0u64);
            for o in &outcomes {
                let (_, stats) = o.as_ref().unwrap();
                reads += stats.disk_reads;
                hits += stats.buffer_hits;
            }
            assert_eq!(reads, after.reads - before.reads, "{backend}: disk reads");
            assert_eq!(
                hits,
                after.buffer_hits - before.buffer_hits,
                "{backend}: buffer hits"
            );
        }
    }

    /// An empty request in a batch answers nothing, and its siblings
    /// answer as they would alone.
    #[test]
    fn a_batch_with_an_empty_request_answers_it_with_nothing() {
        for backend in [IndexBackend::PprTree, IndexBackend::RStar] {
            let index = build(backend);
            let mut reqs = requests();
            reqs.insert(3, QueryRequest::snapshot(Rect2::UNIT, sti_geom::Time::MAX));
            reqs.insert(
                9,
                QueryRequest {
                    range: TimeInterval::new(70, 70),
                    ..reqs[0]
                },
            );
            let outcomes = QueryExecutor::new(Parallelism::fixed(2)).run(&index, &reqs);
            for (req, got) in reqs.iter().zip(outcomes) {
                let got = got.unwrap();
                if req.range.is_empty() {
                    assert_eq!(got, (Vec::new(), QueryStats::new()), "{backend}");
                } else {
                    let alone = index.query(&req.area, &req.range).unwrap();
                    assert_eq!(got.0, alone, "{backend}: {req:?}");
                }
            }
        }
    }

    #[test]
    fn snapshot_constructor_is_a_single_instant() {
        let r = QueryRequest::snapshot(Rect2::from_bounds(0.0, 0.0, 1.0, 1.0), 42);
        assert_eq!(r.range, TimeInterval::new(42, 43));
        assert_eq!(r.range.len(), 1);
        let last = QueryRequest::snapshot(Rect2::UNIT, sti_geom::Time::MAX);
        assert!(
            last.range.is_empty(),
            "nothing is alive at the last instant"
        );
    }
}
