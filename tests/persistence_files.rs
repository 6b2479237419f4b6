//! Index persistence: save a built index to a real file, load it in a
//! "fresh process" (new object), and verify answers and I/O accounting
//! are identical.

use spatiotemporal_index::core::{
    IngestOp, IngestPipeline, OnlineSplitConfig, RecoverError, SpatioTemporalIndex, SplitPlan,
};
use spatiotemporal_index::pprtree::{PprParams, PprTree};
use spatiotemporal_index::prelude::*;
use spatiotemporal_index::storage::{xxh64, FsyncPolicy, WalConfig};
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sti-index-{}-{name}", std::process::id()));
    p
}

fn records() -> Vec<spatiotemporal_index::core::ObjectRecord> {
    let objects = RandomDatasetSpec::paper(400).generate();
    SplitPlan::build(
        &objects,
        SingleSplitAlgorithm::MergeSplit,
        DistributionAlgorithm::LaGreedy,
        SplitBudget::Percent(100.0),
        None,
    )
    .records(&objects)
}

#[test]
fn pprtree_survives_a_round_trip() {
    let recs = records();
    // Build via the facade to exercise the real ingestion path, then
    // reach the concrete tree through a fresh build for saving.
    let mut tree = PprTree::new(Default::default());
    let mut events: Vec<(u32, u8, usize)> = Vec::new();
    for (i, r) in recs.iter().enumerate() {
        events.push((r.stbox.lifetime.start, 1, i));
        events.push((r.stbox.lifetime.end, 0, i));
    }
    events.sort_unstable();
    for (t, kind, i) in events {
        if kind == 1 {
            tree.insert(recs[i].id, recs[i].stbox.rect, t).unwrap();
        } else {
            tree.delete(recs[i].id, recs[i].stbox.rect, t).unwrap();
        }
    }

    let path = temp("ppr");
    tree.save_to_file(&path).expect("save");
    let mut back = PprTree::open_file(&path).expect("open");
    std::fs::remove_file(&path).ok();

    assert_eq!(back.num_pages(), tree.num_pages());
    assert_eq!(back.roots(), tree.roots());
    assert_eq!(back.alive_records(), tree.alive_records());
    back.validate();

    for t in (0..1000).step_by(83) {
        let area = Rect2::from_bounds(0.2, 0.2, 0.7, 0.7);
        let mut a = Vec::new();
        let mut b = Vec::new();
        tree.query_snapshot(&area, t, &mut a).unwrap();
        back.query_snapshot(&area, t, &mut b).unwrap();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "snapshot at {t}");
        let mut c = Vec::new();
        let mut d = Vec::new();
        let range = TimeInterval::new(t, t + 40);
        tree.query_interval(&area, &range, &mut c).unwrap();
        back.query_interval(&area, &range, &mut d).unwrap();
        c.sort_unstable();
        d.sort_unstable();
        assert_eq!(c, d, "interval at {t}");
    }

    // I/O accounting still behaves after loading.
    back.reset_for_query();
    let mut out = Vec::new();
    back.query_snapshot(&Rect2::UNIT, 500, &mut out).unwrap();
    assert!(back.io_stats().reads > 0);
}

#[test]
fn loading_garbage_fails_cleanly() {
    let path = temp("garbage");
    std::fs::write(&path, b"definitely not an index file").expect("write");
    assert!(PprTree::open_file(&path).is_err());
    std::fs::remove_file(&path).ok();
}

/// Corrupt index files fail closed: header or metadata damage surfaces
/// as an `io::Error` from `open_file`, and page-body damage that the
/// loader cannot see is caught by the integrity checker — never a panic.
#[test]
fn corrupted_index_files_fail_closed() {
    use spatiotemporal_index::pprtree::check;
    use spatiotemporal_index::storage::PAGE_SIZE;

    let mut tree = PprTree::new(spatiotemporal_index::pprtree::PprParams {
        max_entries: 10,
        buffer_pages: 4,
        ..Default::default()
    });
    let rect_for = |i: u64| {
        let x = (i % 30) as f64 * 0.03;
        let y = (i / 30) as f64 * 0.2;
        Rect2::from_bounds(x, y, x + 0.02, y + 0.02)
    };
    for i in 0..120u64 {
        tree.insert(i, rect_for(i), i as u32 / 4).unwrap();
    }
    for i in (0..120u64).step_by(3) {
        tree.delete(i, rect_for(i), 31 + i as u32 / 4).unwrap();
    }
    let path = temp("corrupt");
    tree.save_to_file(&path).expect("save");
    let pristine = std::fs::read(&path).expect("read back");

    // Wrong magic.
    let mut bad = pristine.clone();
    bad[0] = b'X';
    std::fs::write(&path, &bad).unwrap();
    assert!(PprTree::open_file(&path).is_err(), "wrong magic must fail");

    // Truncation anywhere in the file.
    for cut in [9, pristine.len() / 2, pristine.len() - 17] {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            PprTree::open_file(&path).is_err(),
            "truncation at {cut} must fail"
        );
    }

    // Garbage metadata (valid magic, shredded header region).
    let mut bad = pristine.clone();
    for b in bad.iter_mut().skip(8).take(40) {
        *b = 0xFF;
    }
    std::fs::write(&path, &bad).unwrap();
    assert!(PprTree::open_file(&path).is_err(), "garbage meta must fail");

    // Shred the page region (the trailing pages): the per-page
    // checksums catch this at open time — the loader fails closed
    // before the sanitizer ever has to look at the tree.
    let mut bad = pristine.clone();
    let tail = bad.len() - 2 * PAGE_SIZE;
    for b in bad.iter_mut().skip(tail) {
        *b = 0xFF;
    }
    std::fs::write(&path, &bad).unwrap();
    let err = match PprTree::open_file(&path) {
        Err(e) => e,
        Ok(_) => panic!("shredded pages must fail the checksum"),
    };
    assert!(
        err.to_string().contains("checksum"),
        "page damage should be a checksum error: {err}"
    );

    // And the pristine bytes still round-trip cleanly.
    std::fs::write(&path, &pristine).unwrap();
    let back = PprTree::open_file(&path).expect("pristine file reopens");
    assert!(check::validate(&back).is_ok());
    std::fs::remove_file(&path).ok();
}

/// Twenty small records, one an instant.
fn small_tree() -> PprTree {
    let mut tree = PprTree::new(PprParams::default());
    for i in 0..20u64 {
        let x = i as f64 * 0.04;
        tree.insert(i, Rect2::from_bounds(x, x, x + 0.03, x + 0.03), i as u32)
            .unwrap();
    }
    tree
}

/// `image` with `bytes` written at offset `at` of its owner metadata and
/// the metadata checksum re-stamped: every checksum in the file passes,
/// so only the tree's own parameter check stands between the value and
/// the tree.
fn patch_meta(image: &[u8], at: usize, bytes: &[u8]) -> Vec<u8> {
    const META: usize = 28 + 8; // the header and its checksum
    let len = u32::from_le_bytes(image[16..20].try_into().unwrap()) as usize;
    let mut out = image.to_vec();
    out[META + at..META + at + bytes.len()].copy_from_slice(bytes);
    let sum = xxh64(&out[META..META + len]);
    out[META + len..META + len + 8].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Parameters outside the ranges the constructors assert fail typed at
/// open — `InvalidData`, never the constructors' panic — through the
/// tree, the facade, and `stidx check`.
#[test]
fn out_of_range_parameters_fail_typed_at_open() {
    let nan = f64::NAN.to_le_bytes();
    let (too_few, too_many) = (2u32.to_le_bytes(), 1000u32.to_le_bytes());
    let ppr = small_tree();
    let path = temp("params");
    // Meta offsets: backend tag at 0, then max_entries (u32) and the
    // f64 fractions in save order.
    let ppr_cases: [(usize, &[u8]); 6] = [
        (1, &too_few),
        (1, &too_many),
        (5, &nan),  // p_version
        (13, &nan), // p_svo
        (21, &nan), // p_svu
        (21, &0.9f64.to_le_bytes()),
    ];
    ppr.save_to_file(&path).unwrap();
    let pristine = std::fs::read(&path).unwrap();
    for (at, bytes) in ppr_cases {
        std::fs::write(&path, patch_meta(&pristine, at, bytes)).unwrap();
        let err = PprTree::open_file(&path).err().expect("out of range");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("parameters"), "{err}");
        assert!(SpatioTemporalIndex::open_file(&path).is_err());
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_stidx"))
            .arg("check")
            .arg(&path)
            .output()
            .expect("run stidx check");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "stidx check accepted it");
        assert!(stderr.contains("parameters"), "{stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// An R\*-Tree image written by an older release — a PPR image whose
/// backend tag says `R`, under a re-stamped metadata checksum — fails
/// typed on every path a user opens an index by: the tree, the facade,
/// and `stidx query`, `stats --index` and `check`. (`sti-server --index`
/// is the fourth; its suite spawns that binary.)
#[test]
fn old_rstar_images_fail_typed_on_every_path() {
    const GONE: &str = "R*-Tree images are no longer supported";
    let path = temp("old-rstar");
    small_tree().save_to_file(&path).unwrap();
    let image = patch_meta(&std::fs::read(&path).unwrap(), 0, b"R");
    std::fs::write(&path, image).unwrap();

    let err = PprTree::open_file(&path).err().expect("an R* image");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(GONE), "{err}");
    let err = SpatioTemporalIndex::open_file(&path)
        .err()
        .expect("an R* image");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains(GONE), "{err}");
    let index = path.to_str().unwrap();
    let area = ["--area", "0,0,1,1", "--time", "5"];
    for args in [
        &["query", "--index", index][..],
        &["stats", "--index", index],
        &["check", index],
    ] {
        let query = if args[0] == "query" { &area[..] } else { &[] };
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_stidx"))
            .args(args)
            .args(query)
            .output()
            .expect("run stidx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stidx {args:?}: {stderr}");
        assert!(stderr.contains(GONE), "stidx {args:?}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// A checkpoint whose image carries out-of-range parameters is one
/// recovery skips, like a damaged one: it falls back a generation.
#[test]
fn recovery_skips_a_checkpoint_with_out_of_range_parameters() {
    let dir = temp("recover-params");
    std::fs::remove_dir_all(&dir).ok();
    let wal = WalConfig {
        segment_max_bytes: 4096,
        fsync: FsyncPolicy::Always,
    };
    let config = OnlineSplitConfig::default();
    let params = PprParams {
        max_entries: 10,
        buffer_pages: 4,
        ..PprParams::default()
    };
    let mut pipeline = IngestPipeline::new(config, params);
    pipeline.attach_durability(&dir, wal).unwrap();
    let mut newest = 0;
    for t in 0..2u32 {
        for id in 0..8u64 {
            let x = id as f64 * 0.1;
            let rect = Rect2::from_bounds(x, x, x + 0.05, x + 0.05);
            pipeline
                .enqueue_durable(IngestOp::Update { id, rect, t })
                .unwrap();
        }
        assert!(pipeline.commit().error.is_none());
        newest = pipeline.checkpoint().unwrap().generation;
    }
    drop(pipeline);
    let idx = dir.join(format!("checkpoint-{newest:016x}.idx"));
    let image = std::fs::read(&idx).unwrap();
    std::fs::write(&idx, patch_meta(&image, 1, &2u32.to_le_bytes())).unwrap();

    let (_, report) =
        IngestPipeline::recover(&dir, config, params, wal).expect("the older generation loads");
    assert_eq!(report.checkpoints_skipped, 1);
    assert_eq!(report.checkpoint_generation, Some(newest - 1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A version-1 checkpoint state — magic `STICKPT1`, written before the
/// splitter recorded its admitted-object count — is refused as an old
/// format: recovery skips the generation and, with no other, returns a
/// typed `NoUsableCheckpoint` instead of panicking.
#[test]
fn a_version_1_checkpoint_meta_is_refused() {
    let dir = temp("recover-v1");
    std::fs::remove_dir_all(&dir).ok();
    let wal = WalConfig {
        segment_max_bytes: 4096,
        fsync: FsyncPolicy::Always,
    };
    let config = OnlineSplitConfig::default();
    let mut pipeline = IngestPipeline::new(config, PprParams::default());
    pipeline.attach_durability(&dir, wal).unwrap();
    for t in 0..20u32 {
        for id in 0..6u64 {
            let d = 0.01 * f64::from(t);
            let rect = Rect2::point(Point2::new(0.1 * id as f64 + d, d));
            pipeline
                .enqueue_durable(IngestOp::Update { id, rect, t })
                .unwrap();
        }
    }
    assert!(pipeline.commit().error.is_none());
    let generation = pipeline.checkpoint().unwrap().generation;
    drop(pipeline);

    // Rewrite the image's state as version 1: its magic, no admitted
    // count (the u64 after the magic, eight u64s and two u32s).
    let idx = dir.join(format!("checkpoint-{generation:016x}.idx"));
    let (tree, state) = PprTree::open_with_owner(&idx).unwrap();
    assert_eq!(&state[..8], b"STICKPT3");
    assert_eq!(state[80..88], 6u64.to_le_bytes());
    let v1 = [b"STICKPT1".as_slice(), &state[8..80], &state[88..]].concat();
    tree.save_with_owner(&idx, &v1).unwrap();

    let result = IngestPipeline::recover(&dir, config, PprParams::default(), wal);
    assert!(
        matches!(result, Err(RecoverError::NoUsableCheckpoint { tried: 1 })),
        "{:?}",
        result.err()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL directory as releases before the one-file checkpoint wrote it
/// — a plain index image beside a `checkpoint-<g>.meta` file holding
/// the pipeline state — is refused: no image carries a state, so
/// recovery fails with `NoUsableCheckpoint` rather than replaying the
/// truncated WAL onto an empty pipeline.
#[test]
fn a_checkpoint_with_a_meta_file_beside_it_is_refused() {
    let dir = temp("recover-two-files");
    std::fs::remove_dir_all(&dir).ok();
    let wal = WalConfig {
        segment_max_bytes: 4096,
        fsync: FsyncPolicy::Always,
    };
    let config = OnlineSplitConfig::default();
    let mut pipeline = IngestPipeline::new(config, PprParams::default());
    pipeline.attach_durability(&dir, wal).unwrap();
    let mut generations = Vec::new();
    for t in 0..20u32 {
        for id in 0..6u64 {
            let d = 0.01 * f64::from(t);
            let rect = Rect2::point(Point2::new(0.1 * id as f64 + d, d));
            pipeline
                .enqueue_durable(IngestOp::Update { id, rect, t })
                .unwrap();
        }
        if t % 10 == 9 {
            assert!(pipeline.commit().error.is_none());
            generations.push(pipeline.checkpoint().unwrap().generation);
        }
    }
    drop(pipeline);

    // Split each generation the old way: the tree alone in the `.idx`,
    // the state (magic `STICKPT2`, trailing xxh64) in the `.meta`.
    for g in &generations {
        let idx = dir.join(format!("checkpoint-{g:016x}.idx"));
        let (tree, state) = PprTree::open_with_owner(&idx).unwrap();
        assert_eq!(&state[..8], b"STICKPT3");
        tree.save_to_file(&idx).unwrap();
        assert!(PprTree::open_with_owner(&idx).unwrap().1.is_empty());
        let mut meta = [b"STICKPT2".as_slice(), &state[8..]].concat();
        let sum = xxh64(&meta);
        meta.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(dir.join(format!("checkpoint-{g:016x}.meta")), &meta).unwrap();
    }

    let result = IngestPipeline::recover(&dir, config, PprParams::default(), wal);
    assert!(
        matches!(result, Err(RecoverError::NoUsableCheckpoint { tried: 2 })),
        "{:?}",
        result.err()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The owner region has no bound of its own beyond the format's `u32`
/// length: a 17 MiB owner state — more than a checkpoint of ≈ 300 k open
/// pieces carries — saves and reopens byte for byte.
#[test]
fn a_17_mib_owner_region_round_trips_byte_for_byte() {
    let path = temp("owner-17mib.idx");
    let mut tree = PprTree::new(PprParams::default());
    tree.insert(7, Rect2::point(Point2::new(0.5, 0.5)), 3)
        .unwrap();
    let owner: Vec<u8> = (0..17u32 << 20).map(|i| (i % 251) as u8).collect();
    tree.save_with_owner(&path, &owner).unwrap();
    let (back, state) = PprTree::open_with_owner(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(state == owner, "the owner region came back changed");
    assert_eq!(back.num_pages(), tree.num_pages());
}
