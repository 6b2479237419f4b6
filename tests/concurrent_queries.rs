//! The shared-read-path contract: one tree, many reader threads.
//!
//! Queries take `&self` end to end (tree → page store → buffer
//! pool), so N threads can query one shared tree with no external
//! locking. These tests pin the three properties that make that safe
//! to rely on:
//!
//! 1. **Determinism** — concurrent queries return byte-identical
//!    result sets to the same queries run sequentially; thread count
//!    and interleaving can never change an answer.
//! 2. **Conservation** — per-query [`QueryStats`] are attributed via
//!    per-call probes, so they sum exactly to the global
//!    [`IoStats`] delta even when queries race on the buffer pool.
//! 3. **Fault isolation** — under a [`FaultyBackend`] storm, a
//!    concurrent reader observes a typed [`StorageError`] or a correct
//!    result, never a panic and never a torn (partially wrong) result
//!    set.
//!
//! 4. **Pinned frames** — the page a reader was handed is the buffer
//!    pool's own frame; other readers evicting that page underneath
//!    never change the bytes it holds, and the pool stays within its
//!    capacity meanwhile.
//!
//! Both tree backends are covered, each with several reader threads on
//! its one LRU pool.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spatiotemporal_index::geom::{Rect2, Rect3, TimeInterval};
use spatiotemporal_index::obs::QueryStats;
use spatiotemporal_index::pprtree::{PprParams, PprTree};
use spatiotemporal_index::rstar::{RStarParams, RStarTree};
use spatiotemporal_index::storage::{
    FaultKind, FaultPlan, FaultyBackend, PageId, PageStore, ReadProbe, ScheduledFault, StorageError,
};
use std::sync::Barrier;

const THREADS: usize = 4;
const QUERIES: usize = 32;

/// One query descriptor, pre-generated so every pass (sequential or
/// concurrent, any backend) sees the same workload.
#[derive(Debug, Clone, Copy)]
struct Q {
    area: Rect2,
    range: TimeInterval,
}

fn random_rect2(rng: &mut StdRng) -> Rect2 {
    let x = rng.random::<f64>() * 0.8;
    let y = rng.random::<f64>() * 0.8;
    let w = 0.05 + rng.random::<f64>() * 0.2;
    Rect2::from_bounds(x, y, x + w, y + w)
}

fn queries(rng: &mut StdRng, horizon: u32) -> Vec<Q> {
    (0..QUERIES)
        .map(|_| {
            let area = random_rect2(rng);
            let range = if rng.random_bool(0.5) {
                let t = rng.random_range(0..horizon.max(1));
                TimeInterval::new(t, t + 1)
            } else {
                let a = rng.random_range(0..horizon.max(1));
                let b = rng.random_range(a..=horizon);
                TimeInterval::new(a, b + 1)
            };
            Q { area, range }
        })
        .collect()
}

fn build_ppr(rng: &mut StdRng, n: u32) -> PprTree {
    let mut tree = PprTree::new(PprParams::default());
    let mut alive = Vec::new();
    for i in 0..n {
        let rect = random_rect2(rng);
        tree.insert(u64::from(i), rect, i).unwrap();
        alive.push((u64::from(i), rect));
        if alive.len() > 4 && rng.random_bool(0.3) {
            let (id, r) = alive.swap_remove(rng.random_range(0..alive.len() - 1));
            tree.delete(id, r, i).expect("record is alive");
        }
    }
    tree
}

/// Run `query` for every descriptor on the calling thread.
fn run_sequential<F>(qs: &[Q], query: F) -> Vec<Result<(Vec<u64>, QueryStats), StorageError>>
where
    F: Fn(&Q) -> Result<(Vec<u64>, QueryStats), StorageError>,
{
    qs.iter().map(&query).collect()
}

/// Run `query` for every descriptor across [`THREADS`] scoped threads
/// (round-robin deal), reassembling outcomes in descriptor order.
fn run_concurrent<F>(qs: &[Q], query: F) -> Vec<Result<(Vec<u64>, QueryStats), StorageError>>
where
    F: Fn(&Q) -> Result<(Vec<u64>, QueryStats), StorageError> + Sync,
{
    let query = &query;
    let mut slots: Vec<_> = qs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                scope.spawn(move || {
                    qs.iter()
                        .enumerate()
                        .filter(|(i, _)| i % THREADS == tid)
                        .map(|(i, q)| (i, query(q)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, outcome) in handle.join().expect("reader thread must not panic") {
                slots[i] = Some(outcome);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// Sorted ids from an outcome (queries make no result-order promise).
fn ids(outcome: &Result<(Vec<u64>, QueryStats), StorageError>) -> Vec<u64> {
    let mut v = outcome.as_ref().expect("fault-free query").0.clone();
    v.sort_unstable();
    v
}

/// Properties 1 + 2 for one tree: concurrent results must be
/// byte-identical to the sequential baseline, and the concurrent pass's
/// per-query stats must sum exactly to the global counter delta.
fn assert_concurrent_matches_sequential<F, S>(label: &str, qs: &[Q], query: F, io: S)
where
    F: Fn(&Q) -> Result<(Vec<u64>, QueryStats), StorageError> + Sync,
    S: Fn() -> spatiotemporal_index::storage::IoStats,
{
    let baseline = run_sequential(qs, &query);
    let before = io();
    let concurrent = run_concurrent(qs, &query);
    let after = io();

    let mut total = QueryStats::new();
    for (i, (b, c)) in baseline.iter().zip(&concurrent).enumerate() {
        assert_eq!(
            ids(b),
            ids(c),
            "{label}: query {i} diverged under concurrency"
        );
        total += c.as_ref().expect("fault-free query").1;
    }
    assert_eq!(
        total.disk_reads,
        after.reads - before.reads,
        "{label}: concurrent disk reads drifted from the global delta"
    );
    assert_eq!(
        total.buffer_hits,
        after.buffer_hits - before.buffer_hits,
        "{label}: concurrent buffer hits drifted from the global delta"
    );
    assert_eq!(
        total.disk_writes,
        after.writes - before.writes,
        "{label}: queries must not write"
    );
}

// Compile-time proof that every tree is shareable across threads.
#[allow(dead_code)]
fn trees_are_sync() {
    fn assert_sync<T: Sync>() {}
    assert_sync::<PprTree>();
    assert_sync::<RStarTree>();
    assert_sync::<spatiotemporal_index::core::SpatioTemporalIndex>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn ppr_concurrent_queries_are_deterministic_and_conserved(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = build_ppr(&mut rng, 80);
        let horizon = tree.now();
        let qs = queries(&mut rng, horizon);
        let t = &tree;
        assert_concurrent_matches_sequential(
            "ppr",
            &qs,
            |q: &Q| {
                let mut out = Vec::new();
                let stats = if q.range.len() == 1 {
                    t.query_snapshot(&q.area, q.range.start, &mut out)?
                } else {
                    t.query_interval(&q.area, &q.range, &mut out)?
                };
                Ok((out, stats))
            },
            || t.io_stats(),
        );
    }

    #[test]
    fn rstar_concurrent_queries_are_deterministic_and_conserved(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = RStarTree::new(RStarParams::default());
        for id in 0..150u64 {
            let lo = [rng.random::<f64>(), rng.random::<f64>(), rng.random::<f64>()];
            let hi = [lo[0] + 0.1, lo[1] + 0.1, lo[2] + 0.1];
            tree.insert(id, Rect3::new(lo, hi)).unwrap();
        }
        let qs = queries(&mut rng, 1000);
        let t = &tree;
        assert_concurrent_matches_sequential(
            "rstar",
            &qs,
            |q: &Q| {
                let scale = 1000.0;
                let mut out = Vec::new();
                let stats = t.query(&Rect3::from_query(&q.area, &q.range, scale), &mut out)?;
                Ok((out, stats))
            },
            || t.io_stats(),
        );
    }
}

// ---------------------------------------------------------------------
// Property 3: fault storms under concurrent readers.
// ---------------------------------------------------------------------

/// A plan that keeps firing for the whole test: one fault every
/// `period` backend operations, cycling permanent fails, transient
/// fails, and read bit flips (which the store's checksum verification
/// catches and retries).
fn storm_plan(period: u64, horizon: u64) -> FaultPlan {
    let faults = (0..horizon / period)
        .map(|i| ScheduledFault {
            at_op: i * period,
            kind: match i % 3 {
                0 => FaultKind::Fail { transient: false },
                1 => FaultKind::Fail { transient: true },
                _ => FaultKind::BitFlip {
                    byte: (i % 4096) as u16,
                    bit: (i % 8) as u8,
                },
            },
        })
        .collect();
    FaultPlan::new(faults)
}

/// Build the same workload twice — once over a fault storm, once
/// clean — keeping only the inserts that succeeded on the faulty tree
/// (failed updates roll back completely), so both trees index exactly
/// the same records. Also returns how many backend operations the
/// faulty build executed.
fn build_under(plan: FaultPlan, seed: u64) -> (PprTree, PprTree, u64) {
    let params = PprParams {
        max_entries: 10,
        buffer_pages: 4,
        ..PprParams::default()
    };
    let device = FaultyBackend::new_mem(plan);
    // A clone shares the device's operation clock.
    let clock = device.clone();
    let mut faulty = PprTree::with_backend(params, Box::new(device));
    let mut shadow = PprTree::new(params);
    let mut rng = StdRng::seed_from_u64(seed);
    for t in 0..120u32 {
        let rect = random_rect2(&mut rng);
        if faulty.insert(u64::from(t), rect, t).is_ok() {
            shadow.insert(u64::from(t), rect, t).unwrap();
        }
    }
    (faulty, shadow, clock.ops_executed())
}

/// [`build_under`] a storm that fires every 97 operations through the
/// build and then starts over at the first operation after it, so the
/// readers meet a permanent fault on their first backend operation and
/// the storm's phase does not depend on how many operations the build
/// happened to issue. A first build under the build-time storm alone
/// measures that count; the build is deterministic, so the second one
/// issues the same operations and meets the same faults.
fn faulty_and_shadow_ppr(seed: u64) -> (PprTree, PprTree) {
    const HORIZON: u64 = 2_000_000;
    let storm = storm_plan(97, HORIZON);
    let (_, _, build_ops) = build_under(storm.clone(), seed);
    let during_build = storm.faults().iter().filter(|f| f.at_op < build_ops);
    let after_build = storm.faults().iter().map(|f| ScheduledFault {
        at_op: build_ops + f.at_op,
        ..*f
    });
    let plan = FaultPlan::new(during_build.copied().chain(after_build).collect());
    let (faulty, shadow, again) = build_under(plan, seed);
    assert_eq!(again, build_ops, "the build is deterministic");
    (faulty, shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn ppr_fault_storm_under_concurrent_readers_yields_typed_errors_only(seed in any::<u64>()) {
        let (faulty, shadow) = faulty_and_shadow_ppr(seed);
        let horizon = faulty.now();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let qs = queries(&mut rng, horizon);

        // Fault-free expected answers from the shadow tree.
        let expected: Vec<Vec<u64>> = qs
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                if q.range.len() == 1 {
                    shadow.query_snapshot(&q.area, q.range.start, &mut out).unwrap();
                } else {
                    shadow.query_interval(&q.area, &q.range, &mut out).unwrap();
                }
                out.sort_unstable();
                out
            })
            .collect();

        let t = &faulty;
        let outcomes = run_concurrent(&qs, |q: &Q| {
            let mut out = Vec::new();
            let stats = if q.range.len() == 1 {
                t.query_snapshot(&q.area, q.range.start, &mut out)?
            } else {
                t.query_interval(&q.area, &q.range, &mut out)?
            };
            Ok((out, stats))
        });

        let mut failed = 0usize;
        for (i, outcome) in outcomes.iter().enumerate() {
            match outcome {
                Ok((got, _)) => {
                    // Interval queries release nothing on error, and
                    // snapshot queries that *succeed* must be complete:
                    // a success under faults is indistinguishable from
                    // a fault-free run.
                    let mut got = got.clone();
                    got.sort_unstable();
                    prop_assert_eq!(
                        &got, &expected[i],
                        "query {} returned a torn result under faults", i
                    );
                }
                Err(e) => {
                    failed += 1;
                    // Typed, query-scoped errors only — and the error
                    // classifies as a real storage failure, not a panic
                    // smuggled into a Result.
                    let _: &StorageError = e;
                }
            }
        }
        // The storm restarts at the readers' first backend operation and
        // fires every 97 ops with capacity-4 buffers, so some queries
        // genuinely fail; if none did, the storm never reached the read
        // path and the test proves nothing.
        prop_assert!(failed > 0, "storm never hit a concurrent reader");
    }
}

// ---------------------------------------------------------------------
// Property 4: a held page survives eviction by concurrent readers.
// ---------------------------------------------------------------------

/// One reader holds the page it read while three others drive many
/// times `capacity` distinct misses through the pool. The held
/// bytes never change, the pool never exceeds its capacity in resident
/// pages, and every access still lands in exactly one probe. Checks
/// made while the readers race are asserted after the last barrier, so
/// a failing one fails the test instead of stranding the others there.
#[test]
fn a_held_page_survives_eviction_by_concurrent_readers() {
    const CAPACITY: usize = 8;
    let mut store = PageStore::new(CAPACITY);
    let pages: Vec<PageId> = (0..400).map(|_| store.allocate().unwrap()).collect();
    for &p in &pages {
        store.write(p, &p.to_le_bytes().repeat(1024)).unwrap();
    }
    store.reset_buffer();
    store.reset_stats();
    let pool = store.buffer();
    let (held_id, evictors) = pages.split_first().unwrap();
    assert!(evictors.len() > 10 * CAPACITY, "plenty of distinct misses");

    let store = &store;
    let pinned = Barrier::new(THREADS);
    let evicted = Barrier::new(THREADS);
    let probes: Vec<ReadProbe> = std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            let mut probe = ReadProbe::new();
            let held = store.read(*held_id, &mut probe).unwrap();
            let expected = held.clone();
            pinned.wait();
            // Racing the evictors: nothing they do reaches these bytes.
            let (mut torn, mut over) = (false, false);
            for _ in 0..200 {
                torn |= held.bytes() != expected.bytes();
                over |= pool.resident_pages() > CAPACITY;
            }
            evicted.wait();
            assert!(!torn, "held bytes changed");
            assert!(!over, "pool over capacity");
            assert!(!pool.resident(*held_id), "it was evicted long ago");
            assert!(held.bytes().chunks(4).all(|c| c == held_id.to_le_bytes()));
            // A fresh read is a miss again, and the same content.
            assert!(store.read(*held_id, &mut probe).unwrap() == held);
            probe
        });
        let evictors: Vec<_> = (0..THREADS - 1)
            .map(|t| {
                let (pinned, evicted) = (&pinned, &evicted);
                scope.spawn(move || {
                    let mut probe = ReadProbe::new();
                    pinned.wait();
                    let mut sound = true;
                    for &p in evictors.iter().skip(t).step_by(THREADS - 1) {
                        sound &= store
                            .read(p, &mut probe)
                            .is_ok_and(|page| page.bytes().chunks(4).all(|c| c == p.to_le_bytes()));
                    }
                    evicted.wait();
                    assert!(sound, "an evictor read failed or read wrong bytes");
                    probe
                })
            })
            .collect();
        let mut probes = vec![holder.join().expect("holder must not panic")];
        probes.extend(
            evictors
                .into_iter()
                .map(|h| h.join().expect("evictor must not panic")),
        );
        probes
    });

    let mut total = ReadProbe::new();
    probes.iter().for_each(|p| total.merge(p));
    let io = store.stats();
    assert_eq!(
        (io.reads, io.buffer_hits),
        (total.disk_reads, total.buffer_hits)
    );
    assert_eq!(
        io.reads,
        pages.len() as u64 + 1,
        "every page missed once, the held one twice"
    );
    assert!(pool.resident_pages() <= CAPACITY);
}
