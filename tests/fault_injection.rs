//! Fault-injection property tests against randomly seeded
//! [`FaultPlan`]s: random insert/delete/query interleavings on the
//! PPR-Tree, and random insert/query interleavings on the R\*-Tree
//! (which, like the paper's, never deletes).
//!
//! The properties, per case:
//!   1. No operation panics — faults surface as typed errors only.
//!   2. A failed operation leaves no trace: the tree keeps answering
//!      exactly like the shadow model, which is only advanced on `Ok`.
//!   3. After the storm the structure passes its invariant checker.
//!   4. A save interrupted by a simulated crash leaves the previous
//!      file current, and any torn temp image fails closed on open.
//!
//! Fault schedules stay inside `FAULT_HORIZON` backend operations while
//! every workload performs at least `STEPS` backend writes, so by the
//! time the final validation walks the tree the plan is exhausted and a
//! panicking checker (`RStarTree::validate`) can be
//! used as the oracle without racing leftover faults.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spatiotemporal_index::pprtree::tree::DeleteError as PprDeleteError;
use spatiotemporal_index::pprtree::{check, PprParams, PprTree};
use spatiotemporal_index::rstar::{RStarParams, RStarTree};
use spatiotemporal_index::storage::{FaultPlan, FaultyBackend};
use sti_geom::{Rect2, Rect3, TimeInterval};

/// Steps per workload; each step attempts at least one backend write,
/// so the executed operation count always exceeds the fault horizon.
const STEPS: u32 = 50;
/// All scheduled faults fire (or go stale) within this many backend
/// operations — strictly less than the writes the workload performs.
const FAULT_HORIZON: u64 = 40;

fn plan_for(seed: u64) -> FaultPlan {
    // 1..=6 faults, count drawn from the same seed for reproducibility.
    FaultPlan::seeded(seed, FAULT_HORIZON, (seed % 6) as usize + 1)
}

fn small_rect(rng: &mut StdRng) -> Rect2 {
    let x = rng.random::<f64>() * 0.9;
    let y = rng.random::<f64>() * 0.9;
    Rect2::from_bounds(x, y, x + 0.05, y + 0.05)
}

fn query_area(rng: &mut StdRng) -> Rect2 {
    let x = rng.random::<f64>() * 0.5;
    let y = rng.random::<f64>() * 0.5;
    let w = 0.1 + rng.random::<f64>() * 0.5;
    Rect2::from_bounds(x, y, (x + w).min(1.0), (y + w).min(1.0))
}

/// Shadow model of the temporal tree: full record history
/// with alive intervals `[start, end)`.
#[derive(Default)]
struct Shadow {
    records: Vec<(u64, Rect2, u32, u32)>,
}

impl Shadow {
    fn snapshot(&self, area: &Rect2, t: u32) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter(|(_, r, s, e)| *s <= t && t < *e && r.intersects(area))
            .map(|&(id, ..)| id)
            .collect();
        v.sort_unstable();
        v
    }

    fn interval(&self, area: &Rect2, range: &TimeInterval) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .records
            .iter()
            .filter(|(_, r, s, e)| TimeInterval::new(*s, *e).overlaps(range) && r.intersects(area))
            .map(|&(id, ..)| id)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// One faulted PPR-Tree workload: returns the tree and its shadow for
/// final validation by the caller.
fn ppr_case(seed: u64) {
    let backend = FaultyBackend::new_mem(plan_for(seed));
    let mut tree = PprTree::with_backend(
        PprParams {
            max_entries: 10,
            buffer_pages: 4,
            ..PprParams::default()
        },
        Box::new(backend),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut shadow = Shadow::default();
    let mut alive: Vec<usize> = Vec::new();
    let mut failed_ops = 0u64;

    for t in 0..STEPS {
        // Every step inserts (id = step), keeping the backend op count
        // growing past the fault horizon.
        let id = u64::from(t);
        let r = small_rect(&mut rng);
        match tree.insert(id, r, t) {
            Ok(()) => {
                shadow.records.push((id, r, t, u32::MAX));
                alive.push(shadow.records.len() - 1);
            }
            Err(_) => failed_ops += 1, // typed, rolled back
        }

        if !alive.is_empty() && rng.random::<f64>() < 0.3 {
            let k = rng.random_range(0..alive.len());
            let idx = alive[k];
            let (id, r, ..) = shadow.records[idx];
            match tree.delete(id, r, t) {
                Ok(()) => {
                    shadow.records[idx].3 = t;
                    alive.swap_remove(k);
                }
                Err(PprDeleteError::Storage(_)) => failed_ops += 1,
                Err(e @ PprDeleteError::NotFound { .. }) => {
                    panic!("shadow says {id} is alive at {t}: {e}")
                }
            }
        }

        if rng.random::<f64>() < 0.4 {
            let area = query_area(&mut rng);
            let qt = rng.random_range(0..=t);
            let mut out = Vec::new();
            match tree.query_snapshot(&area, qt, &mut out) {
                Ok(_) => {
                    out.sort_unstable();
                    assert_eq!(
                        out,
                        shadow.snapshot(&area, qt),
                        "snapshot t={qt} seed={seed}"
                    );
                }
                Err(_) => failed_ops += 1,
            }
            let range = TimeInterval::new(qt, qt + 1 + qt % 7);
            let mut out = Vec::new();
            match tree.query_interval(&area, &range, &mut out) {
                Ok(_) => {
                    out.sort_unstable();
                    out.dedup();
                    assert_eq!(
                        out,
                        shadow.interval(&area, &range),
                        "interval {range} seed={seed}"
                    );
                }
                Err(_) => failed_ops += 1,
            }
        }
    }

    // Accounting sanity: failures only come from injected faults.
    if failed_ops > 0 {
        assert!(
            tree.fault_stats().io_faults_injected > 0,
            "{failed_ops} ops failed without any injected fault"
        );
    }
    if let Err(violations) = check::validate(&tree) {
        let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!(
            "seed {seed}: invariants broken after faults:\n{}",
            lines.join("\n")
        );
    }
}

fn rstar_case(seed: u64) {
    let backend = FaultyBackend::new_mem(plan_for(seed));
    let mut tree = match RStarTree::with_backend(
        RStarParams {
            max_entries: 10,
            buffer_pages: 4,
            ..RStarParams::default()
        },
        Box::new(backend),
    ) {
        Ok(t) => t,
        // A fault on the very first operations can fail construction;
        // that is a typed, clean outcome.
        Err(_) => return,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    let mut inserted: Vec<(u64, Rect3)> = Vec::new();

    let cube = |rng: &mut StdRng| {
        let x = rng.random::<f64>() * 0.9;
        let y = rng.random::<f64>() * 0.9;
        let z = rng.random::<f64>() * 0.9;
        Rect3::new([x, y, z], [x + 0.05, y + 0.05, z + 0.05])
    };

    for id in 0..u64::from(STEPS) {
        let r = cube(&mut rng);
        if tree.insert(id, r).is_ok() {
            inserted.push((id, r));
        }

        if rng.random::<f64>() < 0.4 {
            let q = {
                let x = rng.random::<f64>() * 0.5;
                let y = rng.random::<f64>() * 0.5;
                let z = rng.random::<f64>() * 0.5;
                Rect3::new([x, y, z], [x + 0.4, y + 0.4, z + 0.4])
            };
            let mut out = Vec::new();
            if tree.query(&q, &mut out).is_ok() {
                out.sort_unstable();
                let mut want: Vec<u64> = inserted
                    .iter()
                    .filter(|(_, r)| r.intersects(&q))
                    .map(|&(id, _)| id)
                    .collect();
                want.sort_unstable();
                assert_eq!(out, want, "rstar query seed={seed}");
            }
        }
    }

    tree.validate();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ppr_tree_survives_random_faults(seed in any::<u64>()) {
        ppr_case(seed);
    }

    #[test]
    fn rstar_tree_survives_random_faults(seed in any::<u64>()) {
        rstar_case(seed);
    }
}

/// Crash-safe persistence: a save interrupted mid-temp-file or just
/// before the rename leaves the previous image current and loadable,
/// the torn temp file fails closed if anything tries to open it, and a
/// complete temp loads. A killed save is modelled by what it leaves on
/// disk: the image at the temp sibling, whole or cut short.
#[test]
fn mid_save_crash_recovers_to_the_previous_image() {
    use spatiotemporal_index::storage::persist::temp_sibling;
    use spatiotemporal_index::storage::{OpenError, PageStore, ReadProbe};

    let path = std::env::temp_dir().join(format!("sti-crash-{}.idx", std::process::id()));
    let tmp = temp_sibling(&path);

    let mut store = PageStore::new(4);
    let a = store.allocate().unwrap();
    store.write(a, b"version one").unwrap();
    store.save_to(&path, b"meta-v1").expect("clean save");

    // Crash after the temp file is complete but before the rename: the
    // previous image is still the current one, and the temp is whole.
    store.write(a, b"version two").unwrap();
    store.save_to(&tmp, b"meta-v2").expect("complete temp");
    let (_, meta) = PageStore::load_from(&path, 4).expect("previous image still loads");
    assert_eq!(meta, b"meta-v1", "rename never happened");
    let (_, meta) = PageStore::load_from(&tmp, 4).expect("complete temp loads");
    assert_eq!(meta, b"meta-v2");

    // Crash while the temp file is half-written: the current file is
    // untouched, and the torn temp image is rejected.
    let file = std::fs::OpenOptions::new().write(true).open(&tmp).unwrap();
    file.set_len(100).unwrap();
    let (back, meta) = PageStore::load_from(&path, 4).expect("previous image loads");
    assert_eq!(meta, b"meta-v1");
    assert_eq!(
        &back.read(a, &mut ReadProbe::new()).unwrap().bytes()[..11],
        b"version one"
    );
    let torn = PageStore::load_from(&tmp, 4);
    assert!(
        matches!(
            torn,
            Err(OpenError::Truncated { .. }) | Err(OpenError::Corrupt { .. })
        ),
        "torn temp image must fail closed: {torn:?}"
    );

    // An uninterrupted save then supersedes it.
    store.save_to(&path, b"meta-v2").expect("clean save");
    let (back, meta) = PageStore::load_from(&path, 4).expect("new image loads");
    assert_eq!(meta, b"meta-v2");
    assert_eq!(
        &back.read(a, &mut ReadProbe::new()).unwrap().bytes()[..11],
        b"version two"
    );

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp).ok();
}

/// The same guarantee at tree level: after a tree is saved, torn
/// prefixes of a would-be replacement image (what a crashed re-save
/// leaves in its temp file) never open as a valid index, while the
/// original file keeps validating clean.
#[test]
fn tree_level_crash_images_fail_closed_or_validate_clean() {
    let path = std::env::temp_dir().join(format!("sti-crash-tree-{}.idx", std::process::id()));
    let mut tree = PprTree::new(PprParams {
        max_entries: 10,
        buffer_pages: 4,
        ..PprParams::default()
    });
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..80u64 {
        let r = small_rect(&mut rng);
        tree.insert(i, r, i as u32).unwrap();
    }
    tree.save_to_file(&path).expect("save");
    let pristine = std::fs::read(&path).expect("read image");

    for cut in [0, 1, 37, pristine.len() / 3, pristine.len() - 1] {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            PprTree::open_file(&path).is_err(),
            "crash image of {cut} bytes must fail closed"
        );
    }

    std::fs::write(&path, &pristine).unwrap();
    let back = PprTree::open_file(&path).expect("pristine image reopens");
    assert!(check::validate(&back).is_ok());
    std::fs::remove_file(&path).ok();
}
