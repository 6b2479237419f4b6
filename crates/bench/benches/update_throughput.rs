//! Criterion micro-bench: update throughput of the PPR-Tree and the
//! online splitter.
//!
//! The PPR-Tree amortizes version splits; the online splitter is O(1)
//! per observation. `node_write` is what one node write costs on the
//! update path — encoding a node, the store's validated write inside a
//! transaction — and a batch of updates applied the way the ingest
//! pipeline applies one: inside `begin_batch`, on a fork of a tree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti_core::online::{OnlineSplitConfig, OnlineSplitter};
use sti_geom::Rect2;
use sti_pprtree::{PprEntry, PprNode, PprParams, PprTree};
use sti_storage::{Page, PageStore};

/// A deterministic churn workload: (id, rect, t, is_insert).
fn workload(n: usize) -> Vec<(u64, Rect2, u32, bool)> {
    let mut ops = Vec::with_capacity(2 * n);
    for i in 0..n as u64 {
        let x = (i as f64 * 0.61803).fract() * 0.9;
        let y = (i as f64 * 0.41421).fract() * 0.9;
        let r = Rect2::from_bounds(x, y, x + 0.02, y + 0.02);
        let t = (i as u32) / 4;
        ops.push((i, r, t, true));
        ops.push((i, r, t + 20, false));
    }
    ops.sort_by_key(|&(id, _, t, ins)| (t, !ins, id));
    ops
}

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("persistent_updates");
    group.sample_size(10);
    for n in [500usize, 2000] {
        let ops = workload(n);
        group.bench_with_input(BenchmarkId::new("PPR-Tree", n), &ops, |b, ops| {
            b.iter(|| {
                let mut t = PprTree::new(PprParams::default());
                apply(&mut t, ops);
                t.num_pages()
            })
        });
    }
    group.finish();
}

/// Apply `ops` to `tree` in order.
fn apply(tree: &mut PprTree, ops: &[(u64, Rect2, u32, bool)]) {
    for &(id, r, at, ins) in ops {
        if ins {
            tree.insert(id, r, at).unwrap();
        } else {
            tree.delete(id, r, at).unwrap();
        }
    }
}

fn bench_node_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_write");
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
    group.bench_function("encode", |b| {
        b.iter(|| {
            leaf.encode(&mut page);
            page.bytes()[6]
        })
    });

    let mut store = PageStore::new(10);
    store.set_validator(PprNode::well_formed);
    let id = store.allocate().unwrap();
    leaf.encode(&mut page);
    store.begin_txn();
    group.bench_function("store_write", |b| {
        b.iter(|| store.write(id, &page.bytes()[..]).unwrap())
    });
    store.commit_txn();

    // The first 90 % of the churn workload, then the rest as one batch
    // on a fork per iteration (the fork's cost included, as in a commit).
    let ops = workload(2000);
    let (base_ops, batch) = ops.split_at(ops.len() * 9 / 10);
    let mut base = PprTree::new(PprParams::default());
    apply(&mut base, base_ops);
    group.bench_function(BenchmarkId::new("batch_on_fork", batch.len()), |b| {
        b.iter(|| {
            let mut fork = base.clone();
            fork.begin_batch();
            apply(&mut fork, batch);
            fork.commit_batch();
            fork.num_pages()
        })
    });
    group.finish();
}

fn bench_online_splitter(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_splitter");
    // One object observed for 100k instants: pure splitter overhead.
    group.bench_function("observe_100k", |b| {
        b.iter(|| {
            let mut s = OnlineSplitter::new(OnlineSplitConfig::default());
            let mut emitted = 0usize;
            for t in 0..100_000u32 {
                let x = (f64::from(t) * 0.0001).fract() * 0.9;
                let r = Rect2::from_bounds(x, 0.5, x + 0.01, 0.51);
                if s.observe(1, r, t).expect("contiguous stream").is_some() {
                    emitted += 1;
                }
            }
            emitted
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_updates,
    bench_node_write,
    bench_online_splitter
);
criterion_main!(benches);
