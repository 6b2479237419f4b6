//! Criterion micro-bench: update throughput of the PPR-Tree and the
//! online splitter.
//!
//! The PPR-Tree amortizes version splits; the online splitter is O(1)
//! per observation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sti_core::online::{OnlineSplitConfig, OnlineSplitter};
use sti_geom::Rect2;
use sti_pprtree::{PprParams, PprTree};

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
                for &(id, r, at, ins) in ops {
                    if ins {
                        t.insert(id, r, at).unwrap();
                    } else {
                        t.delete(id, r, at).unwrap();
                    }
                }
                t.num_pages()
            })
        });
    }
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

criterion_group!(benches, bench_updates, bench_online_splitter);
criterion_main!(benches);
