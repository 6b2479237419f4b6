//! Criterion micro-bench: query latency (wall time, complementing the
//! I/O counts the figure binaries report).
//!
//! Snapshot and small-range queries against the PPR-Tree (150% splits)
//! and the R\*-Tree (1% splits) over the same dataset; and `node_scan`,
//! the two halves a PPR-Tree node visit is split into — the check a
//! frame passes once, when it enters the pool, and the scan every hit
//! runs over it — next to the owned decode the mutation paths keep and
//! the validating cursor the query paths used to walk; and `bulk_pack`,
//! what it costs to get the tree those queries run on at the scale tier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti_bench::{build_index, object_record, random_dataset, split_records};
use sti_core::{
    DistributionAlgorithm, IndexBackend, IndexConfig, ObjectRecord, SingleSplitAlgorithm,
    SpatioTemporalIndex, SplitBudget,
};
use sti_datagen::{QuerySetSpec, RandomDatasetSpec};
use sti_geom::{Rect2, TimeInterval};
use sti_pprtree::{NodeView, PprEntry, PprNode};
use sti_storage::{Page, PageStore};

fn bench_queries(c: &mut Criterion) {
    let objects = random_dataset(1000);
    let ppr_recs = split_records(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(150.0),
    );
    let rstar_recs = split_records(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(1.0),
    );
    let mut ppr = build_index(&ppr_recs, IndexBackend::PprTree);
    let mut rstar = build_index(&rstar_recs, IndexBackend::RStar);

    for (set_name, spec) in [
        ("snapshot_mixed", QuerySetSpec::mixed_snapshot()),
        ("range_small", QuerySetSpec::small_range()),
    ] {
        let queries = {
            let mut s = spec;
            s.cardinality = 100;
            s.generate()
        };
        let mut group = c.benchmark_group(set_name);
        group.bench_with_input(BenchmarkId::new("PPR-Tree", 1000), &queries, |b, qs| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in qs {
                    ppr.reset_for_query();
                    hits += ppr.query(&q.area, &q.range).expect("mem query").len();
                }
                hits
            })
        });
        group.bench_with_input(BenchmarkId::new("R*-Tree", 1000), &queries, |b, qs| {
            b.iter(|| {
                let mut hits = 0usize;
                for q in qs {
                    rstar.reset_for_query();
                    hits += rstar.query(&q.area, &q.range).expect("mem query").len();
                }
                hits
            })
        });
        group.finish();
    }
}

/// One node per iteration, nanoseconds per node as printed. The pages
/// are more than fit in L2, so each visit reads memory as a traversal
/// does; 43 entries a leaf is what the bulk-loaded scale tier averages.
fn bench_node_scan(c: &mut Criterion) {
    const NODES: usize = 4096;
    const ENTRIES: usize = 43;
    // Half of every leaf lives in [0, 100), the other half in
    // [100, 200): the span picks how many survive the stamp filter.
    let pages: Vec<Page> = (0..NODES)
        .map(|n| {
            let entries = (0..ENTRIES)
                .map(|i| {
                    let x = ((n * ENTRIES + i) % 97) as f64 / 100.0;
                    let insertion = if i % 2 == 0 { 0 } else { 100 };
                    PprEntry {
                        rect: Rect2::from_bounds(x, x, x + 0.02, x + 0.02),
                        ptr: (n * ENTRIES + i) as u64,
                        insertion,
                        deletion: insertion + 100,
                    }
                })
                .collect();
            let mut page = Page::zeroed();
            PprNode { level: 0, entries }.encode(&mut page);
            page
        })
        .collect();
    let mut at = 0;
    let mut next = || {
        at = (at + 1) % NODES;
        &pages[at]
    };

    let mut group = c.benchmark_group("node_scan");
    // The install check runs on a frame the fetch has just filled, so
    // it is timed (and the owned decode, beside it) over a few pages
    // that stay in cache.
    let mut hot = pages.iter().take(8).cycle();
    group.bench_function("validate_at_install", |b| {
        b.iter(|| hot.next().is_some_and(PprNode::well_formed))
    });
    let mut hot = pages.iter().take(8).cycle();
    group.bench_function(BenchmarkId::new("owned_decode", "in cache"), |b| {
        b.iter(|| hot.next().map(PprNode::decode))
    });
    let area = Rect2::from_bounds(0.2, 0.2, 0.4, 0.4);
    for (survival, span) in [
        ("0%", TimeInterval::new(300, 301)),
        ("50%", TimeInterval::new(50, 51)),
        ("100%", TimeInterval::new(0, 200)),
    ] {
        group.bench_function(BenchmarkId::new("hit_scan", survival), |b| {
            b.iter(|| {
                let node = NodeView::new(next()).expect("a node header");
                node.scan(span)
                    .filter(|e| e.rect.intersects(&area))
                    .fold(0, |sum, e| sum ^ e.ptr)
            })
        });
    }
    // The cursor the query paths walked before: every entry decoded and
    // validated on every visit, then the same two tests.
    let span = TimeInterval::new(0, 200);
    group.bench_function(BenchmarkId::new("checked_scan", "100%"), |b| {
        b.iter(|| {
            let node = NodeView::new(next()).expect("a node header");
            node.entries()
                .map_while(Result::ok)
                .filter(|e| e.lifetime().intersect(&span).is_some())
                .filter(|e| e.rect.intersects(&area))
                .fold(0, |sum, e| sum ^ e.ptr)
        })
    });
    group.bench_function(BenchmarkId::new("owned_decode", "from memory"), |b| {
        b.iter(|| PprNode::decode(next()))
    });
    group.finish();
}

/// One iteration bulk-loads 100 k big-spec pieces into a memory-backed
/// store: external sort (two spooled runs and their merge), leaf pass,
/// directory pass. Pieces per second is 100 000 over the printed time.
fn bench_bulk_pack(c: &mut Criterion) {
    const PIECES: usize = 100_000;
    let records: Vec<ObjectRecord> = RandomDatasetSpec::big(PIECES)
        .iter()
        .map(|o| object_record(&o))
        .collect();
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let spool = std::env::temp_dir().join(format!("sti-bench-bulk-pack-{}", std::process::id()));

    let mut group = c.benchmark_group("bulk_pack");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("big_spec", PIECES), |b| {
        b.iter(|| {
            let store = PageStore::new(config.ppr.buffer_pages);
            let (_, stats) = SpatioTemporalIndex::bulk_build_ppr(
                records.iter().copied(),
                &config,
                store,
                &spool,
            )
            .expect("bulk build");
            stats.pages_written
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&spool);
}

criterion_group!(benches, bench_queries, bench_node_scan, bench_bulk_pack);
criterion_main!(benches);
