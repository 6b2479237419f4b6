//! Bulk-loader oracles: a bulk-loaded tree must answer exactly like an
//! incrementally built one (both backends), pass the full-history
//! sanitizer, and build deterministically whether or not the external
//! sort spilled to disk. Loads that share a spool directory stay apart,
//! a damaged spool run fails the build, and storage faults under the
//! packed pages are retried or fail typed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;
use sti_geom::{Rect2, TimeInterval};
use sti_pprtree::{check, BulkError, BulkLoader, BulkPiece, PprParams, PprTree};
use sti_storage::{
    FaultKind, FaultPlan, FaultyBackend, FileBackend, PageStore, ScheduledFault, StorageError,
    PAGE_SIZE,
};

fn params() -> PprParams {
    PprParams {
        max_entries: 12,
        buffer_pages: 8,
        ..PprParams::default()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sti-bulk-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Random pieces in the unit square: a mix of 1-instant, short and
/// evolution-long lifetimes, with a third of the centers drawn from four
/// fixed points — many pieces on one `hilbert2` key, alive together, so
/// the cutter's spill and the replay's carry both run. A sprinkle of
/// still-open lifetimes when `with_open`.
fn random_pieces(seed: u64, n: usize, with_open: bool) -> Vec<BulkPiece> {
    const CLUSTERS: [(f64, f64); 4] = [(0.1, 0.1), (0.3, 0.6), (0.6, 0.25), (0.62, 0.62)];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (x, y) = if rng.random_range(0..3u32) == 0 {
                CLUSTERS[rng.random_range(0..4u32) as usize]
            } else {
                (rng.random::<f64>() * 0.9, rng.random::<f64>() * 0.9)
            };
            let ins = rng.random_range(0..150u32);
            let deletion = if with_open && rng.random_range(0..10u32) == 0 {
                TimeInterval::OPEN_END
            } else {
                match rng.random_range(0..8u32) {
                    0 => ins + 1,
                    1 => ins + rng.random_range(100..=190u32),
                    _ => ins + rng.random_range(1..=40u32),
                }
            };
            BulkPiece {
                rect: Rect2::from_bounds(x, y, x + 0.05, y + 0.05),
                ptr: i as u64,
                insertion: ins,
                deletion,
            }
        })
        .collect()
}

fn bulk_build(pieces: &[BulkPiece], store: PageStore, tag: &str) -> PprTree {
    let dir = scratch_dir(tag);
    let mut loader = BulkLoader::new(params(), &dir);
    for p in pieces {
        loader.push(*p).unwrap();
    }
    let (tree, stats) = loader.finish(store).unwrap();
    assert_eq!(stats.pieces, pieces.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
    tree
}

/// Replay the same pieces through the incremental update path, in time
/// order (the PPR-Tree only accepts non-decreasing update times).
fn incremental_build(pieces: &[BulkPiece]) -> PprTree {
    let mut events: Vec<(u32, u8, usize)> = Vec::new();
    for (i, p) in pieces.iter().enumerate() {
        events.push((p.insertion, 0, i));
        if p.deletion != TimeInterval::OPEN_END {
            events.push((p.deletion, 1, i));
        }
    }
    events.sort_unstable();
    let mut tree = PprTree::new(params());
    for (t, kind, i) in events {
        let p = &pieces[i];
        if kind == 0 {
            tree.insert(p.ptr, p.rect, t).unwrap();
        } else {
            tree.delete(p.ptr, p.rect, t).unwrap();
        }
    }
    tree
}

fn snapshot(tree: &PprTree, area: &Rect2, t: u32) -> Vec<u64> {
    let mut v = Vec::new();
    tree.query_snapshot(area, t, &mut v).unwrap();
    v.sort_unstable();
    v
}

fn interval(tree: &PprTree, area: &Rect2, range: &TimeInterval) -> Vec<u64> {
    let mut v = Vec::new();
    tree.query_interval(area, range, &mut v).unwrap();
    v.sort_unstable();
    v
}

fn assert_equivalent(bulk: &PprTree, incr: &PprTree) {
    let areas = [
        Rect2::from_bounds(0.0, 0.0, 1.0, 1.0),
        Rect2::from_bounds(0.2, 0.1, 0.8, 0.9),
        Rect2::from_bounds(0.0, 0.0, 0.4, 0.4),
        Rect2::from_bounds(0.55, 0.55, 0.7, 0.7),
    ];
    for area in &areas {
        for t in (0..360).step_by(13) {
            assert_eq!(
                snapshot(bulk, area, t),
                snapshot(incr, area, t),
                "snapshot diverged at t={t} area={area:?}"
            );
        }
        for start in (0..340).step_by(19) {
            let range = TimeInterval::new(start, start + 1 + (start % 31));
            assert_eq!(
                interval(bulk, area, &range),
                interval(incr, area, &range),
                "interval diverged at {range} area={area:?}"
            );
        }
    }
}

fn assert_valid(tree: &PprTree) {
    if let Err(violations) = check::validate(tree) {
        let lines: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
        panic!("bulk tree broke invariants:\n{}", lines.join("\n"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bulk_matches_incremental_mem_backend(seed in any::<u64>(), n in 50usize..300) {
        let pieces = random_pieces(seed, n, true);
        let bulk = bulk_build(&pieces, PageStore::new(params().buffer_pages), "mem");
        assert_valid(&bulk);
        let incr = incremental_build(&pieces);
        assert_equivalent(&bulk, &incr);
        prop_assert_eq!(bulk.total_records(), pieces.len() as u64);
        prop_assert_eq!(bulk.alive_records(), incr.alive_records());
    }

    #[test]
    fn bulk_matches_incremental_file_backend(seed in any::<u64>(), n in 50usize..200) {
        let pieces = random_pieces(seed, n, false);
        let dir = scratch_dir("fb");
        let path = dir.join(format!("tree-{seed}-{n}.pages"));
        let backend = FileBackend::create(&path).unwrap();
        let store = PageStore::with_backend(Box::new(backend), params().buffer_pages);
        let bulk = bulk_build(&pieces, store, "fb");
        assert_valid(&bulk);
        let incr = incremental_build(&pieces);
        assert_equivalent(&bulk, &incr);
        drop(bulk);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The build is a function of the piece *set*: the spilled
/// (external-sort) path, the in-memory path and a different push order
/// must all produce byte-identical trees — same pages, same saved file.
/// This is also what proves `(key, ptr, insertion, deletion)` is a total
/// order.
#[test]
fn spilled_and_in_memory_builds_are_byte_identical() {
    let pieces = random_pieces(77, 2200, true);
    let dir = scratch_dir("det");
    let image = |tree: &PprTree, name: &str| {
        let path = dir.join(name);
        tree.save_to_file(&path).unwrap();
        std::fs::read(&path).unwrap()
    };

    let in_mem = bulk_build(&pieces, PageStore::new(8), "det-mem");
    let mut reversed = pieces.clone();
    reversed.reverse();
    let in_mem_reversed = bulk_build(&reversed, PageStore::new(8), "det-rev");
    // Interleaved from both ends, so every spooled run differs from the
    // runs the forward order would have written.
    let mut loader = BulkLoader::new(params(), &dir).chunk_capacity(1024);
    let half = pieces.len() / 2;
    for (a, b) in pieces[..half].iter().zip(pieces[half..].iter().rev()) {
        loader.push(*a).unwrap();
        loader.push(*b).unwrap();
    }
    let (spilled, stats) = loader.finish(PageStore::new(8)).unwrap();
    assert_eq!(stats.pieces, pieces.len() as u64);
    assert!(stats.spilled_runs >= 2, "test must exercise the merge path");
    assert_valid(&spilled);

    let reference = image(&in_mem, "a.idx");
    assert_eq!(
        reference,
        image(&in_mem_reversed, "b.idx"),
        "push order changed the packed tree"
    );
    assert_eq!(
        reference,
        image(&spilled, "c.idx"),
        "external sort changed the packed tree"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Degenerate timelines reach the region cutter through the leaf pass:
/// no piece at all, one piece, nothing but still-open pieces (the
/// horizon is then an insertion), and lifetimes at the top of the time
/// domain. `cargo test` runs this with overflow checks on.
#[test]
fn empty_and_single_piece_edge_cases() {
    let everywhere = Rect2::from_bounds(0.0, 0.0, 1.0, 1.0);
    let build = |pieces: &[BulkPiece]| {
        let tree = bulk_build(pieces, PageStore::new(4), "edge");
        assert_valid(&tree);
        assert_eq!(tree.total_records(), pieces.len() as u64);
        tree
    };
    let piece = |ptr: u64, insertion: u32, deletion: u32| {
        let x = ptr as f64 / 100.0;
        BulkPiece {
            rect: Rect2::from_bounds(x, 0.1, x + 0.05, 0.2),
            ptr,
            insertion,
            deletion,
        }
    };

    assert_eq!(build(&[]).num_pages(), 0);

    let tree = build(&[piece(42, 3, 8)]);
    assert_eq!(tree.num_pages(), 1);
    assert_eq!(snapshot(&tree, &everywhere, 5), vec![42]);
    assert_eq!(snapshot(&tree, &everywhere, 8), Vec::<u64>::new());

    // One piece whose lifetime is the single instant 0.
    let tree = build(&[piece(1, 0, 1)]);
    assert_eq!(snapshot(&tree, &everywhere, 0), vec![1]);

    // All still open, all born at the same instant: the data span is
    // empty (`lo == horizon`).
    let open: Vec<BulkPiece> = (0..40)
        .map(|i| piece(i, 7, TimeInterval::OPEN_END))
        .collect();
    let tree = build(&open);
    assert_eq!(tree.alive_records(), 40);
    assert_eq!(snapshot(&tree, &everywhere, 7).len(), 40);
    assert_eq!(snapshot(&tree, &everywhere, 6), Vec::<u64>::new());

    // Still open, born at instant 0 only.
    let tree = build(&[piece(9, 0, TimeInterval::OPEN_END)]);
    assert_eq!(snapshot(&tree, &everywhere, 1_000_000), vec![9]);

    // The top of the time domain: `horizon + 1` and `lo + 1` saturate.
    let top = TimeInterval::OPEN_END - 1;
    let near_max: Vec<BulkPiece> = (0..30)
        .map(|i| match i % 3 {
            0 => piece(i, top - 1, top),
            1 => piece(i, top, TimeInterval::OPEN_END),
            _ => piece(i, top - 3 - i as u32, top - 1),
        })
        .collect();
    let tree = build(&near_max);
    assert_eq!(tree.alive_records(), 10);
    assert_eq!(snapshot(&tree, &everywhere, top).len(), 10);
    assert_eq!(snapshot(&tree, &everywhere, top - 1).len(), 10);
}

/// A sparse timeline never reaches a region's target mass (`A_max ·
/// span` with a 10⁶-instant span), so the cutter's piece ceiling is what
/// bounds the replay working set: region + spill never exceed it,
/// whatever the dataset size, and `peak_resident_pages` says so.
#[test]
fn sparse_timeline_is_cut_at_the_region_ceiling() {
    const REGION_CEILING: u64 = 1 << 15;
    const N: u64 = 2 * REGION_CEILING + 5_000;
    let dir = scratch_dir("sparse");
    let mut rng = StdRng::seed_from_u64(0x5ba5e);
    let mut loader = BulkLoader::new(params(), &dir);
    let mut born_at_zero = 0;
    for i in 0..N {
        // Ten births per occupied instant: more than the per-instant
        // ceiling admits, so the spill path runs too.
        let ins = rng.random_range(0..N as u32 / 10) * 140;
        born_at_zero += usize::from(ins == 0);
        let x = rng.random::<f64>() * 0.9;
        let y = rng.random::<f64>() * 0.9;
        loader
            .push(BulkPiece {
                rect: Rect2::from_bounds(x, y, x + 0.01, y + 0.01),
                ptr: i,
                insertion: ins,
                deletion: ins + 1,
            })
            .unwrap();
    }
    let (tree, stats) = loader.finish(PageStore::new(8)).unwrap();
    assert_eq!(stats.pieces, N);
    assert_valid(&tree);
    let carry = params().weak_min() as u64;
    assert!(
        stats.peak_resident_pages <= REGION_CEILING + stats.leaf_pages + carry,
        "working set {} exceeds the {REGION_CEILING}-piece ceiling + {} pending edges",
        stats.peak_resident_pages,
        stats.leaf_pages
    );
    assert_eq!(
        snapshot(&tree, &Rect2::from_bounds(0.0, 0.0, 1.0, 1.0), 0).len(),
        born_at_zero
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every id a tree holds, over all of space and time.
fn all_ids(tree: &PprTree) -> Vec<u64> {
    let everywhere = Rect2::from_bounds(0.0, 0.0, 1.0, 1.0);
    let mut ids = interval(tree, &everywhere, &TimeInterval::new(0, 1_000));
    ids.dedup();
    ids
}

/// The files a spool directory holds.
fn spool_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

/// Three loads share one spool directory and spill in turns: each run
/// is its loader's own, so each tree holds exactly its own pieces, and
/// a loader dropped without `finish` takes its runs with it.
#[test]
fn loaders_sharing_a_spool_directory_keep_their_own_runs() {
    let dir = scratch_dir("shared");
    let with_ids = |seed: u64, n: usize, first: u64| -> Vec<BulkPiece> {
        let mut pieces = random_pieces(seed, n, false);
        for (p, id) in pieces.iter_mut().zip(first..) {
            p.ptr = id;
        }
        pieces
    };
    let a_pieces = with_ids(1, 2048, 0);
    let b_pieces = with_ids(2, 1024, 100_000);
    let c_pieces = with_ids(3, 2048, 200_000);
    let mut a = BulkLoader::new(params(), &dir).chunk_capacity(1024);
    let mut b = BulkLoader::new(params(), &dir).chunk_capacity(1024);
    let mut c = BulkLoader::new(params(), &dir).chunk_capacity(1024);
    // Each loader's first run, then A's and C's second: every spill
    // lands next to another loader's run of the same number.
    let turns = [
        (0, 0..1024),
        (1, 0..1024),
        (2, 0..1024),
        (0, 1024..2048),
        (2, 1024..2048),
    ];
    for (i, half) in turns {
        for p in [&a_pieces, &b_pieces, &c_pieces][i][half].iter() {
            [&mut a, &mut b, &mut c][i].push(*p).unwrap();
        }
    }
    let own = |pieces: &[BulkPiece]| pieces.iter().map(|p| p.ptr).collect::<Vec<u64>>();
    let (b_tree, b_stats) = b.finish(PageStore::new(8)).unwrap();
    assert_eq!(
        all_ids(&b_tree),
        own(&b_pieces),
        "B holds exactly its own ids"
    );
    let (a_tree, a_stats) = a.finish(PageStore::new(8)).unwrap();
    assert_eq!(
        all_ids(&a_tree),
        own(&a_pieces),
        "A holds exactly its own ids"
    );
    assert_eq!((a_stats.spilled_runs, b_stats.spilled_runs), (2, 1));
    assert_valid(&a_tree);
    assert_valid(&b_tree);
    assert_eq!(
        spool_files(&dir).len(),
        2,
        "C's runs are left, A's and B's are gone"
    );
    drop(c);
    assert!(
        spool_files(&dir).is_empty(),
        "a dropped loader removes its runs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spool run that comes back shorter than it was spilled — cut at a
/// record boundary or mid-record — or longer fails the build with a
/// typed `InvalidData` spool error and returns no tree; the runs are
/// removed all the same.
#[test]
fn a_damaged_spool_run_fails_the_build() {
    let pieces = random_pieces(11, 2200, true);
    const RECORD: i64 = 56;
    // A change to each run's length, in bytes.
    let damages = [
        ("100 records short", -100 * RECORD),
        ("7 bytes short", -7),
        ("a record long", RECORD),
    ];
    for (what, delta) in damages {
        let dir = scratch_dir(&format!("damaged-{}", what.replace(' ', "-")));
        let mut loader = BulkLoader::new(params(), &dir).chunk_capacity(1024);
        for p in &pieces {
            loader.push(*p).unwrap();
        }
        let runs = spool_files(&dir);
        assert_eq!(runs.len(), 2, "{what}");
        for run in &runs {
            let file = std::fs::OpenOptions::new().write(true).open(run).unwrap();
            let len = file.metadata().unwrap().len();
            assert_eq!(len, 1024 * RECORD as u64, "{what}");
            file.set_len(len.checked_add_signed(delta).unwrap())
                .unwrap();
        }
        match loader.finish(PageStore::new(8)) {
            Err(BulkError::Spool(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{what}: {e}")
            }
            Err(e) => panic!("{what}: wrong error {e}"),
            Ok((tree, stats)) => panic!(
                "{what}: built a tree of {} ids from {} pieces",
                all_ids(&tree).len(),
                stats.pieces
            ),
        }
        assert!(spool_files(&dir).is_empty(), "{what}: runs removed");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A bulk build over a fault-injecting device. Transient write faults
/// and write-side bit flips are retried, and the build finishes with
/// the fault-free build's page file and image, byte for byte, and its
/// write count. A permanent fault fails the build typed, and the page
/// file holds nothing past the start of the run it hit: the packed pages
/// before it, as the fault-free build wrote them.
#[test]
fn a_bulk_build_over_a_faulty_device_retries_or_fails_typed() {
    let pieces = random_pieces(5, 3000, true);
    let dir = scratch_dir("faulty");
    let page_file = |name: &str| dir.join(format!("{name}.pages"));
    let build = |name: &str, plan: Option<FaultPlan>| {
        let file = Box::new(FileBackend::create(&page_file(name)).unwrap());
        let backend: Box<dyn sti_storage::PageBackend> = match plan {
            Some(plan) => Box::new(FaultyBackend::new(file, plan)),
            None => file,
        };
        let mut loader = BulkLoader::new(params(), &dir);
        for p in &pieces {
            loader.push(*p).unwrap();
        }
        loader.finish(PageStore::with_backend(backend, params().buffer_pages))
    };
    let image = |tree: &PprTree, name: &str| {
        let path = dir.join(format!("{name}.idx"));
        tree.save_to_file(&path).unwrap();
        std::fs::read(&path).unwrap()
    };

    let (clean, _) = build("clean", None).unwrap();
    let clean_pages = std::fs::read(page_file("clean")).unwrap();
    let pages = clean.num_pages();
    assert!(pages > 100, "{pages} pages");
    // On the device, each packed page is one allocate and one write.
    let ops = 2 * pages as u64;

    // Odd operations are writes. A failed attempt of a run costs an
    // even number of them, so every later fault still lands on a write;
    // a hundred operations apart, no run meets two.
    let faults = (51..ops)
        .step_by(102)
        .enumerate()
        .map(|(i, at_op)| ScheduledFault {
            at_op,
            kind: if i % 2 == 0 {
                FaultKind::Fail { transient: true }
            } else {
                FaultKind::BitFlip {
                    byte: (i * 397 % PAGE_SIZE) as u16,
                    bit: (i % 8) as u8,
                }
            },
        })
        .collect::<Vec<_>>();
    let injected = faults.len() as u64;
    let (healed, _) = build("healed", Some(FaultPlan::new(faults))).unwrap();
    let fs = healed.fault_stats();
    assert_eq!((fs.io_faults_injected, fs.io_retries), (injected, injected));
    assert_eq!(healed.io_stats(), clean.io_stats());
    assert!(std::fs::read(page_file("healed")).unwrap() == clean_pages);
    assert!(image(&healed, "healed") == image(&clean, "clean"));

    let at_op = ops / 2 + 1;
    let permanent = ScheduledFault {
        at_op,
        kind: FaultKind::Fail { transient: false },
    };
    let failed = build("failed", Some(FaultPlan::new(vec![permanent])));
    assert!(
        matches!(
            failed,
            Err(BulkError::Storage(StorageError::Injected {
                transient: false,
                ..
            }))
        ),
        "{:?}",
        failed.map(|_| ())
    );
    let hit = (at_op / 2) as usize;
    let run_start = hit - hit % 8;
    let left = std::fs::read(page_file("failed")).unwrap();
    assert_eq!(
        left.len(),
        run_start * PAGE_SIZE,
        "no page past the run's start"
    );
    assert!(left[..] == clean_pages[..left.len()]);
    drop((clean, healed));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejects_empty_lifetimes_and_non_finite_rects() {
    let dir = scratch_dir("rej");
    let mut loader = BulkLoader::new(params(), &dir);
    let bad_time = BulkPiece {
        rect: Rect2::from_bounds(0.0, 0.0, 0.1, 0.1),
        ptr: 1,
        insertion: 5,
        deletion: 5,
    };
    assert!(loader.push(bad_time).is_err());
    let bad_rect = BulkPiece {
        rect: Rect2 {
            lo: sti_geom::Point2 {
                x: f64::NAN,
                y: 0.0,
            },
            hi: sti_geom::Point2 { x: 0.1, y: 0.1 },
        },
        ptr: 2,
        insertion: 0,
        deletion: 5,
    };
    assert!(loader.push(bad_rect).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Big-tier smoke: a million-piece build on `FileBackend` completes
/// with bounded memory and passes the sanitizer. Gated so default
/// `cargo test` stays fast — run with `STI_SCALE=big cargo test -p
/// sti-pprtree --release -- --ignored big_tier`.
#[test]
#[ignore = "big tier; set STI_SCALE=big and run with --ignored"]
fn big_tier_million_piece_bulk_build() {
    if std::env::var("STI_SCALE").as_deref() != Ok("big") {
        eprintln!("skipping: STI_SCALE != big");
        return;
    }
    let dir = scratch_dir("big");
    let path = dir.join("big.pages");
    let store = PageStore::with_backend(
        Box::new(FileBackend::create(&path).unwrap()),
        PprParams::default().buffer_pages,
    );
    let mut rng = StdRng::seed_from_u64(0xb16);
    let mut loader = BulkLoader::new(PprParams::default(), &dir);
    // `STI_BIG_N` shrinks the run for quick local iteration; CI and the
    // acceptance criterion use the one-million default.
    let n: u64 = std::env::var("STI_BIG_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000);
    for i in 0..n {
        let x = rng.random::<f64>() * 0.99;
        let y = rng.random::<f64>() * 0.99;
        let ins = rng.random_range(0..990u32);
        loader
            .push(BulkPiece {
                rect: Rect2::from_bounds(x, y, x + 0.004, y + 0.004),
                ptr: i,
                insertion: ins,
                deletion: ins + rng.random_range(1..=10u32),
            })
            .unwrap();
    }
    let (tree, stats) = loader.finish(store).unwrap();
    assert_eq!(stats.pieces, n);
    assert!(stats.spilled_runs > 0, "1M pieces must spill");
    assert!(stats.fill_factor > 0.8, "fill factor {}", stats.fill_factor);
    assert_valid(&tree);
    drop(tree);
    let _ = std::fs::remove_dir_all(&dir);
}
