//! Wall-clock micro timings behind the node-visit, node-write and
//! bulk-load numbers `EXPERIMENTS.md` and `DESIGN.md` cite. Timing
//! only: no table of these is committed under `results/`.

use std::hint::black_box;
use std::time::Instant;
use sti_bench::{object_record, timed, BenchReport, Scale};
use sti_core::{IndexBackend, IndexConfig, ObjectRecord, SpatioTemporalIndex};
use sti_datagen::RandomDatasetSpec;
use sti_geom::{Rect2, TimeInterval};
use sti_pprtree::{NodeView, PprEntry, PprNode, PprParams, PprTree, Update};
use sti_storage::{Page, PageStore};

/// Batch means taken per case.
const SAMPLES: usize = 10;

/// Nanoseconds per call of `op`: one warm-up call sizes a batch to about
/// 50 ms, and the result is the median of [`SAMPLES`] batch means.
fn ns_per_op<O>(mut op: impl FnMut() -> O) -> f64 {
    let (_, once) = timed(|| black_box(op()));
    let batch = (0.05 / once.max(1e-9)).ceil().clamp(1.0, 1e6) as u32;
    let mut means: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(op());
            }
            start.elapsed().as_secs_f64() / f64::from(batch)
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[SAMPLES / 2] * 1e9
}

/// Print (and with `--json` record) one table of timed cases.
fn report(name: &str, scale: &Scale, title: &str, cases: Vec<(String, f64)>) {
    let mut report = BenchReport::new(name, scale);
    let rows: Vec<Vec<String>> = cases
        .into_iter()
        .map(|(case, ns)| vec![format!("{name}/{case}"), format!("{ns:.1}")])
        .collect();
    report.table(title, &["Case", "ns/op"], &rows);
    report.finish();
}

/// The two halves a PPR-Tree node visit is split into — the check a
/// frame passes once, when it enters the pool, and the scan every hit
/// runs over it — next to the owned decode the mutation paths keep and
/// the validating cursor the query paths used to walk. One node per
/// op. The pages are more than fit in L2, so each visit reads memory as
/// a traversal does; 43 entries a leaf is what the bulk-loaded scale
/// tier averages.
pub fn node_scan(scale: Scale) {
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

    let mut cases = Vec::new();
    // The install check runs on a frame the fetch has just filled, so
    // it is timed (and the owned decode, beside it) over a few pages
    // that stay in cache.
    let mut hot = pages.iter().take(8).cycle();
    cases.push((
        "validate_at_install".into(),
        ns_per_op(|| hot.next().is_some_and(PprNode::well_formed)),
    ));
    let mut hot = pages.iter().take(8).cycle();
    cases.push((
        "owned_decode/in cache".into(),
        ns_per_op(|| hot.next().map(PprNode::decode)),
    ));
    let area = Rect2::from_bounds(0.2, 0.2, 0.4, 0.4);
    for (survival, span) in [
        ("0%", TimeInterval::new(300, 301)),
        ("50%", TimeInterval::new(50, 51)),
        ("100%", TimeInterval::new(0, 200)),
    ] {
        let ns = ns_per_op(|| {
            let node = NodeView::new(next()).expect("a node header");
            node.scan(span)
                .filter(|e| e.rect.intersects(&area))
                .fold(0, |sum, e| sum ^ e.ptr)
        });
        cases.push((format!("hit_scan/{survival}"), ns));
    }
    // The cursor the query paths walked before: every entry decoded and
    // validated on every visit, then the same two tests.
    let span = TimeInterval::new(0, 200);
    let ns = ns_per_op(|| {
        let node = NodeView::new(next()).expect("a node header");
        node.entries()
            .map_while(Result::ok)
            .filter(|e| e.lifetime().intersect(&span).is_some())
            .filter(|e| e.rect.intersects(&area))
            .fold(0, |sum, e| sum ^ e.ptr)
    });
    cases.push(("checked_scan/100%".into(), ns));
    cases.push((
        "owned_decode/from memory".into(),
        ns_per_op(|| PprNode::decode(next())),
    ));
    report(
        "node_scan",
        &scale,
        "node_scan — ns per 43-entry PPR-Tree node visit",
        cases,
    );
}

/// A deterministic churn workload, in time order.
fn churn(n: usize) -> Vec<Update> {
    let mut ops = Vec::with_capacity(2 * n);
    for i in 0..n as u64 {
        let x = (i as f64 * 0.61803).fract() * 0.9;
        let y = (i as f64 * 0.41421).fract() * 0.9;
        let rect = Rect2::from_bounds(x, y, x + 0.02, y + 0.02);
        let t = (i as u32) / 4;
        ops.push((t, false, i, Update::Insert { id: i, rect, t }));
        ops.push((
            t + 20,
            true,
            i,
            Update::Delete {
                id: i,
                rect,
                t: t + 20,
            },
        ));
    }
    ops.sort_by_key(|&(t, delete, id, _)| (t, delete, id));
    ops.into_iter().map(|(.., update)| update).collect()
}

/// What one node write costs on the update path — encoding a node, the
/// store's validated write inside a transaction — and a batch of
/// updates applied the way the ingest pipeline applies one: on a fork
/// of a tree (the fork's cost included, as in a commit).
pub fn node_write(scale: Scale) {
    // A 45-entry leaf, about what an incremental tree's leaves hold.
    let leaf = PprNode {
        level: 0,
        entries: (0..45u32)
            .map(|i| {
                let x = f64::from(i) / 50.0;
                PprEntry::alive(
                    Rect2::from_bounds(x, x, x + 0.02, x + 0.02),
                    u64::from(i),
                    i,
                )
            })
            .collect(),
    };
    let mut page = Page::zeroed();
    let mut cases = vec![(
        "encode".to_string(),
        ns_per_op(|| {
            leaf.encode(&mut page);
            page.bytes()[6]
        }),
    )];

    let mut store = PageStore::new(10);
    store.set_validator(PprNode::well_formed);
    let id = store.allocate().expect("mem allocate");
    leaf.encode(&mut page);
    store.begin_txn();
    cases.push((
        "store_write".into(),
        ns_per_op(|| store.write(id, &page.bytes()[..]).expect("mem write")),
    ));
    store.commit_txn();

    // The first 90 % of the churn workload, then the rest as one batch.
    let ops = churn(2000);
    let (base_ops, batch) = ops.split_at(ops.len() * 9 / 10);
    let mut base = PprTree::new(PprParams::default());
    base.apply(base_ops).expect("mem build");
    let ns = ns_per_op(|| {
        let mut fork = base.clone();
        fork.apply(batch).expect("mem batch");
        fork.num_pages()
    });
    cases.push((format!("batch_on_fork/{}", batch.len()), ns));
    report(
        "node_write",
        &scale,
        "node_write — ns per PPR-Tree node write or update batch",
        cases,
    );
}

/// One op bulk-loads 100 k big-spec pieces into a memory-backed store:
/// external sort (two spooled runs and their merge), leaf pass,
/// directory pass. Pieces per second is 100 000 over the time printed.
pub fn bulk_pack(scale: Scale) {
    const PIECES: usize = 100_000;
    let records: Vec<ObjectRecord> = RandomDatasetSpec::big(PIECES)
        .iter()
        .map(|o| object_record(&o))
        .collect();
    let config = IndexConfig::paper(IndexBackend::PprTree);
    let spool = std::env::temp_dir().join(format!("sti-bench-bulk-pack-{}", std::process::id()));
    let ns = ns_per_op(|| {
        let store = PageStore::new(config.ppr.buffer_pages);
        let (_, stats) =
            SpatioTemporalIndex::bulk_build_ppr(records.iter().copied(), &config, store, &spool)
                .expect("bulk build");
        stats.pages_written
    });
    let _ = std::fs::remove_dir_all(&spool);
    report(
        "bulk_pack",
        &scale,
        "bulk_pack — ns per bulk load of 100 k pieces",
        vec![(format!("big_spec/{PIECES}"), ns)],
    );
}
