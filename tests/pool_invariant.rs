//! The pool invariant, by entry path: a page its tree cannot decode is
//! pushed at the tree along every road bytes can take to a page slot,
//! and each time the outcome is a typed `Corrupt` / `Unallocated` or a
//! correct answer — never a panic, never an answer read off a malformed
//! frame. A malformed page is never resident, so it fails the same way
//! at every touch, and frames pinned before the damage keep answering.
//!
//! (What the pool *holds* is asserted where it can be seen: the store's
//! own `no_route_into_the_pool_skips_the_validator`, and the trees'
//! `damaged_node_bytes_fail_typed`.)

use spatiotemporal_index::core::{IngestOp, IngestPipeline, OnlineSplitConfig};
use spatiotemporal_index::geom::{Point2, Rect2, Rect3, Time, TimeInterval};
use spatiotemporal_index::pprtree::{check, PprParams, PprTree};
use spatiotemporal_index::rstar::{RStarParams, RStarTree};
use spatiotemporal_index::storage::{
    xxh64, CorruptReason, FileBackend, FsyncPolicy, StorageError, WalConfig, PAGE_SIZE,
};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sti-pool-invariant-{}-{name}", std::process::id()));
    if p.is_dir() {
        std::fs::remove_dir_all(&p).expect("clear scratch dir");
    }
    p
}

fn params() -> PprParams {
    PprParams {
        max_entries: 10,
        buffer_pages: 4,
        ..PprParams::default()
    }
}

fn rect_for(i: u64) -> Rect2 {
    let x = (i % 10) as f64 * 0.09;
    let y = (i / 10) as f64 * 0.09;
    Rect2::from_bounds(x, y, x + 0.05, y + 0.05)
}

const RECORDS: u64 = 80;

/// Eighty records, one an instant, every fourth deleted later: several
/// leaves under a directory root, with closed nodes behind them.
fn grow(tree: &mut PprTree) {
    for i in 0..RECORDS {
        tree.insert(i, rect_for(i), i as Time).unwrap();
    }
    for i in (0..RECORDS).step_by(4) {
        tree.delete(i, rect_for(i), (RECORDS + i) as Time).unwrap();
    }
    assert!(tree.roots().last().unwrap().level > 0);
}

type Answers = Vec<Result<Vec<u64>, StorageError>>;

/// Every way to ask, at the instants and spans that matter here.
fn ask(tree: &PprTree) -> Answers {
    let sorted = |mut ids: Vec<u64>| {
        ids.sort_unstable();
        ids
    };
    let mut answers = Vec::new();
    for t in [10, 79, 120, tree.now()] {
        let mut out = Vec::new();
        let snapshot = tree.query_snapshot(&Rect2::UNIT, t, &mut out);
        answers.push(snapshot.map(|_| sorted(out)));
    }
    let mut out = Vec::new();
    let everything = tree.query_interval(&Rect2::UNIT, &TimeInterval::new(0, 500), &mut out);
    answers.push(everything.map(|_| sorted(out)));
    answers
}

/// Each outcome is an answer or one of the typed refusals, and — the
/// damage sits on the current root — the questions about the present
/// are refused.
fn assert_fails_typed(answers: &Answers, reason: CorruptReason, route: &str) {
    for outcome in answers {
        assert!(
            matches!(
                outcome,
                Ok(_) | Err(StorageError::Corrupt { .. }) | Err(StorageError::Unallocated { .. })
            ),
            "{route}: {outcome:?}"
        );
    }
    let refused = |o: &Result<Vec<u64>, StorageError>| matches!(o, Err(StorageError::Corrupt { reason: r, .. }) if *r == reason);
    assert!(
        refused(&answers[3]) && refused(&answers[4]),
        "{route}: the damaged root answered: {answers:?}"
    );
}

/// Overwrite the first bound of the first entry of page `page` in a
/// saved index image with NaN, and re-stamp the page's checksum: the
/// loader accepts the file, and the damage reaches the tree behind a
/// checksum that vouches for it.
fn patch_image(path: &Path, pages: usize, page: usize) {
    let mut image = std::fs::read(path).unwrap();
    let record = PAGE_SIZE + 8;
    let at = image.len() - 8 - (pages - page) * record;
    image[at + 6..at + 14].copy_from_slice(&f64::NAN.to_le_bytes());
    let sum = xxh64(&image[at..at + PAGE_SIZE]);
    image[at + PAGE_SIZE..at + record].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(path, image).unwrap();
}

/// A rectangle no node can hold: finite where `is_empty` looks, not
/// where the decoder does.
fn unbounded() -> Rect2 {
    Rect2 {
        lo: Point2::new(0.5, 0.5),
        hi: Point2::new(f64::INFINITY, 0.6),
    }
}

#[test]
fn a_saved_image_with_a_malformed_page_opens_and_fails_typed_at_first_touch() {
    let mut tree = PprTree::new(params());
    grow(&mut tree);
    let root = tree.roots().last().unwrap().page as usize;
    let path = temp("image.idx");
    tree.save_to_file(&path).unwrap();
    patch_image(&path, tree.num_pages(), root);
    let back = PprTree::open_file(&path).expect("every checksum in the file matches");
    std::fs::remove_file(&path).ok();
    // Not once and then resident: the same refusal at every touch.
    let first = ask(&back);
    assert_fails_typed(&first, CorruptReason::Decode, "open_file");
    assert_eq!(ask(&back), first, "open_file, second touch");
    assert!(check::validate(&back).is_err(), "stidx check still sees it");
}

#[test]
fn a_recovered_checkpoint_with_a_malformed_page_fails_typed_and_stays_usable() {
    let dir = temp("recover");
    let wal = WalConfig {
        segment_max_bytes: 4096,
        fsync: FsyncPolicy::Always,
    };
    let config = OnlineSplitConfig::default();
    let mut pipeline = IngestPipeline::new(config, params());
    pipeline.attach_durability(&dir, wal).unwrap();
    for t in 0..12u32 {
        for id in 0..12u64 {
            let rect = rect_for(id * 5 + u64::from(t % 3));
            pipeline
                .enqueue_durable(IngestOp::Update { id, rect, t })
                .unwrap();
        }
    }
    for id in 0..12u64 {
        pipeline
            .enqueue_durable(IngestOp::Finish { id, end: 12 })
            .unwrap();
    }
    assert!(pipeline.commit().error.is_none());
    let published = pipeline.published();
    let root = published.tree().roots().last().unwrap().page as usize;
    let pages = published.tree().num_pages();
    let generation = pipeline.checkpoint().unwrap().generation;
    drop(published);
    drop(pipeline);
    patch_image(
        &dir.join(format!("checkpoint-{generation:016x}.idx")),
        pages,
        root,
    );

    let (mut recovered, report) =
        IngestPipeline::recover(&dir, config, params(), wal).expect("the checkpoint loads");
    assert_eq!(report.checkpoint_generation, Some(generation));
    let version = recovered.published();
    for _ in 0..2 {
        let mut out = Vec::new();
        let now = version.tree().now();
        let refused = version
            .tree()
            .query_snapshot(&Rect2::UNIT, now - 1, &mut out);
        assert!(
            matches!(
                refused,
                Err(StorageError::Corrupt {
                    reason: CorruptReason::Decode,
                    ..
                })
            ),
            "recover: {refused:?}"
        );
    }
    // The writer meets the same page: the batch is refused whole, typed.
    recovered.enqueue(IngestOp::Update {
        id: 50,
        rect: rect_for(3),
        t: 20,
    });
    recovered.enqueue(IngestOp::Finish { id: 50, end: 21 });
    let _ = recovered.seal();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_node_the_decoder_would_refuse_is_never_written() {
    let mut tree = PprTree::new(params());
    grow(&mut tree);
    let before = (
        ask(&tree),
        tree.num_pages(),
        tree.now(),
        tree.alive_records(),
    );
    let state = |t: &PprTree| (ask(t), t.num_pages(), t.now(), t.alive_records());

    // `PageStore::write`, reached the only public way: an update whose
    // node the store refuses. Typed, and rolled back whole.
    let refused = tree.insert(900, unbounded(), 200);
    assert!(
        matches!(
            refused,
            Err(StorageError::Corrupt {
                reason: CorruptReason::Decode,
                ..
            })
        ),
        "{refused:?}"
    );
    assert_eq!(state(&tree), before, "a refused write changes nothing");

    // The same on a fork, after updates that did go through: dropping
    // the fork is the whole undo.
    let mut fork = tree.clone();
    fork.insert(901, rect_for(1), 200).unwrap();
    fork.insert(902, rect_for(2), 201).unwrap();
    assert!(fork.insert(903, unbounded(), 202).is_err());
    drop(fork);
    assert_eq!(state(&tree), before, "a dropped fork changes nothing");
    assert!(check::validate(&tree).is_ok());
    tree.insert(904, rect_for(4), 203).unwrap();

    let mut rstar = RStarTree::new(RStarParams::default());
    rstar
        .insert(1, Rect3::new([0.1; 3], [0.2; 3]))
        .expect("a finite box");
    let unbounded = Rect3 {
        lo: [0.5; 3],
        hi: [0.6, f64::INFINITY, 0.6],
    };
    assert!(matches!(
        rstar.insert(2, unbounded),
        Err(StorageError::Corrupt {
            reason: CorruptReason::Decode,
            ..
        })
    ));
    let mut all = Vec::new();
    rstar
        .query(&Rect3::new([0.0; 3], [1.0; 3]), &mut all)
        .unwrap();
    assert_eq!(all, vec![1]);
}

#[test]
fn damage_at_rest_fails_typed_under_a_cold_pool_and_is_not_seen_by_a_warm_one() {
    for (case, capacity) in [0usize, 1, usize::MAX].into_iter().enumerate() {
        let path = temp(&format!("at-rest-{case}.pages"));
        let backend = FileBackend::create(&path).unwrap();
        let mut tree = PprTree::with_backend(params(), Box::new(backend));
        grow(&mut tree);
        let holds_everything = capacity == usize::MAX;
        tree.set_buffer_capacity(capacity.min(tree.num_pages()));
        let before = ask(&tree); // and, where the pool can, warm it
        assert!(before.iter().all(Result::is_ok));

        // Below the pool, below the store: straight into the page file.
        let root = u64::from(tree.roots().last().unwrap().page);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.write_all_at(&f64::NAN.to_le_bytes(), root * PAGE_SIZE as u64 + 6)
            .unwrap();

        let route = format!("at rest, capacity {capacity}");
        if holds_everything {
            // Every frame was checked when it came in, and none has
            // been replaced since: readers keep what they pinned.
            assert_eq!(ask(&tree), before, "{route}");
        } else {
            // The recorded checksum no longer matches: refused before
            // the node check is even asked, at every touch.
            let first = ask(&tree);
            assert_fails_typed(&first, CorruptReason::Checksum, &route);
            assert_eq!(ask(&tree), first, "{route}, second touch");
        }
        std::fs::remove_file(&path).ok();
    }
}
