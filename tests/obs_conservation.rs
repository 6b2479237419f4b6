//! Conservation law for the per-query observability layer: the
//! [`sti_obs::QueryStats`] a tree returns are *deltas* of the global
//! [`spatiotemporal_index::storage::IoStats`] counters, so over any
//! sequence of queries — with no counter resets in between — the
//! per-query deltas must sum exactly to the global counter movement.
//! If a query path ever touched the store outside its snapshot window
//! (or double-counted inside it), these sums would drift.
//!
//! Runs across both tree backends and multiple buffer capacities,
//! including the degenerate capacity-0 pool where every access is a
//! disk read. The last test extends the law one layer down: a counted
//! disk read is exactly one positional read of the page file.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spatiotemporal_index::geom::{Rect2, Rect3, TimeInterval};
use spatiotemporal_index::obs::QueryStats;
use spatiotemporal_index::pprtree::{PprParams, PprTree};
use spatiotemporal_index::rstar::{RStarParams, RStarTree};
use spatiotemporal_index::storage::{FaultPlan, FaultyBackend, FileBackend, IoStats};

const BUFFER_CAPACITIES: [usize; 3] = [0, 4, 10];

fn random_rect2(rng: &mut StdRng) -> Rect2 {
    let x = rng.random::<f64>() * 0.8;
    let y = rng.random::<f64>() * 0.8;
    let w = 0.05 + rng.random::<f64>() * 0.2;
    Rect2::from_bounds(x, y, x + w, y + w)
}

/// Assert that summed per-query deltas equal the global counter delta.
fn assert_conserved(label: &str, total: QueryStats, before: IoStats, after: IoStats) {
    assert_eq!(
        total.disk_reads,
        after.reads - before.reads,
        "{label}: disk reads drifted"
    );
    assert_eq!(
        total.disk_writes,
        after.writes - before.writes,
        "{label}: disk writes drifted"
    );
    assert_eq!(
        total.buffer_hits,
        after.buffer_hits - before.buffer_hits,
        "{label}: buffer hits drifted"
    );
}

fn build_ppr(rng: &mut StdRng, n: u32) -> PprTree {
    let mut tree = PprTree::new(PprParams::default());
    let mut alive = Vec::new();
    for i in 0..n {
        let rect = random_rect2(rng);
        tree.insert(u64::from(i), rect, i).unwrap();
        alive.push((u64::from(i), rect));
        // Interleave deletions so several tree versions exist.
        if alive.len() > 4 && rng.random_bool(0.3) {
            let (id, r) = alive.swap_remove(rng.random_range(0..alive.len() - 1));
            tree.delete(id, r, i).expect("record is alive");
        }
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ppr_query_stats_sum_to_global_delta(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = build_ppr(&mut rng, 80);
        let horizon = tree.now();
        for capacity in BUFFER_CAPACITIES {
            tree.set_buffer_capacity(capacity);
            let before = tree.io_stats();
            let mut total = QueryStats::new();
            for _ in 0..12 {
                let area = random_rect2(&mut rng);
                let mut out = Vec::new();
                if rng.random_bool(0.5) {
                    let t = rng.random_range(0..horizon.max(1));
                    total += tree.query_snapshot(&area, t, &mut out).unwrap();
                } else {
                    let a = rng.random_range(0..horizon.max(1));
                    let b = rng.random_range(a..=horizon);
                    total += tree.query_interval(&area, &TimeInterval::new(a, b + 1), &mut out).unwrap();
                }
            }
            assert_conserved("ppr", total, before, tree.io_stats());
        }
    }

    #[test]
    fn rstar_query_stats_sum_to_global_delta(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RStarTree::new(RStarParams::default());
        for id in 0..150u64 {
            let lo = [
                rng.random::<f64>(),
                rng.random::<f64>(),
                rng.random::<f64>(),
            ];
            let hi = [lo[0] + 0.1, lo[1] + 0.1, lo[2] + 0.1];
            tree.insert(id, Rect3::new(lo, hi)).unwrap();
        }
        for capacity in BUFFER_CAPACITIES {
            tree.set_buffer_capacity(capacity);
            let before = tree.io_stats();
            let mut total = QueryStats::new();
            for _ in 0..12 {
                let lo = [
                    rng.random::<f64>() * 0.7,
                    rng.random::<f64>() * 0.7,
                    rng.random::<f64>() * 0.7,
                ];
                let hi = [lo[0] + 0.3, lo[1] + 0.3, lo[2] + 0.3];
                let mut out = Vec::new();
                total += tree.query(&Rect3::new(lo, hi), &mut out).unwrap();
            }
            assert_conserved("rstar", total, before, tree.io_stats());
        }
    }
}

/// "A disk read is one `read_at`": over a page file, the reads the
/// queries report, the reads the store counts and the transfers the
/// device performed are one number — and a pool that holds the whole
/// tree performs none once it is warm.
#[test]
fn a_counted_disk_read_is_exactly_one_device_read() {
    let path = std::env::temp_dir().join(format!("sti-one-read-{}.pages", std::process::id()));
    let file = FileBackend::create(&path).expect("create page file");
    let device = FaultyBackend::new(Box::new(file), FaultPlan::none());
    // A clone shares the device's operation clock: it counts every
    // operation the tree's store passes through to the page file, and
    // queries only ever read, so a delta of it counts `read_at` calls.
    let probe = device.clone();
    let mut rng = StdRng::seed_from_u64(0x0ead);
    let mut tree = PprTree::with_backend(
        PprParams {
            max_entries: 10,
            ..PprParams::default()
        },
        Box::new(device),
    );
    for i in 0..3_000u32 {
        tree.insert(u64::from(i), random_rect2(&mut rng), i)
            .unwrap();
    }
    let horizon = tree.now();
    let batch: Vec<(Rect2, TimeInterval)> = (0..300)
        .map(|i| {
            let start = rng.random_range(0..horizon);
            let len = if i % 8 == 0 { 40 } else { 1 };
            (
                random_rect2(&mut rng),
                TimeInterval::new(start, start + len),
            )
        })
        .collect();
    let run = |tree: &PprTree| {
        let mut total = QueryStats::new();
        for (area, range) in &batch {
            total += tree.query_interval(area, range, &mut Vec::new()).unwrap();
        }
        total
    };

    assert!(tree.num_pages() > 4 * 256, "the tree dwarfs the pool");
    tree.set_buffer_capacity(256);
    let (stats_before, ops_before) = (tree.io_stats(), probe.ops_executed());
    let total = run(&tree);
    let transfers = probe.ops_executed() - ops_before;
    assert!(total.disk_reads > 0 && total.buffer_hits > 0);
    assert_eq!(total.disk_reads, transfers, "a reported read is a transfer");
    assert_eq!(tree.io_stats().reads - stats_before.reads, transfers);

    tree.set_buffer_capacity(tree.num_pages());
    run(&tree); // warm-up: every page the batch touches becomes resident
    let ops_before = probe.ops_executed();
    let total = run(&tree);
    assert_eq!(
        (total.disk_reads, probe.ops_executed() - ops_before),
        (0, 0)
    );
    assert!(total.buffer_hits > 0);
    std::fs::remove_file(&path).ok();
}
