//! The crash-recovery matrix: kill the durable ingest pipeline at every
//! WAL / checkpoint / publish boundary and prove that recovery
//!
//!   1. never panics — injected crashes and disk damage surface as
//!      typed errors only,
//!   2. never loses an acknowledged operation under `fsync = Always`,
//!   3. never resurrects an operation the pipeline rejected, and
//!   4. produces an index that answers snapshot and interval queries
//!      exactly like a shadow pipeline that ran uninterrupted, from the
//!      same records, after the same split decisions.
//!
//! A byte-level corruption sweep then flips every byte of every WAL
//! segment (and damages checkpoint images) and re-runs recovery: every
//! outcome must be a typed error or a pipeline whose sealed index still
//! upholds the invariants above.

use spatiotemporal_index::core::{
    CrashPoint, DurabilityError, IngestOp, IngestPipeline, OnlineSplitConfig, RecoverError,
};
use spatiotemporal_index::geom::{Rect2, TimeInterval};
use spatiotemporal_index::obs::MetricSet;
use spatiotemporal_index::pprtree::{PprParams, PprTree};
use spatiotemporal_index::storage::{FsyncPolicy, WalConfig};
use std::path::{Path, PathBuf};

/// Fresh scratch directory (removed first if a previous run left one).
fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sti-crash-{}-{name}", std::process::id()));
    if p.exists() {
        std::fs::remove_dir_all(&p).expect("clear scratch dir");
    }
    p
}

/// Tiny segments so the workload exercises rotation and truncation.
fn wal_config() -> WalConfig {
    WalConfig {
        segment_max_bytes: 256,
        fsync: FsyncPolicy::Always,
    }
}

/// Object `id` drifts up at `0.0004 · id` per instant: slowly enough
/// that how long a piece runs before its waste reaches the splitter's
/// threshold depends on the threshold, i.e. on the splitter's counters.
fn rect_for(id: u64, t: u32) -> Rect2 {
    let x = id as f64 * 0.1;
    let y = 0.3 + 0.0004 * id as f64 * f64::from(t);
    Rect2::from_bounds(x, y, x + 0.05, y + 0.05)
}

/// Where the rejected op claims to be — nothing else goes near it, so a
/// non-empty query here means recovery resurrected a rejected op.
const REJECTED_CORNER: Rect2 = Rect2 {
    lo: spatiotemporal_index::geom::Point2 { x: 0.88, y: 0.88 },
    hi: spatiotemporal_index::geom::Point2 { x: 1.0, y: 1.0 },
};
const REJECTED_T: u32 = 5;

/// The full intended stream, in arrival order: four objects observed on
/// contiguous instants, then finished — plus one op the pipeline must
/// reject (its instant is behind the global clock by the time it
/// arrives) sitting in the middle of the stream.
fn workload() -> Vec<IngestOp> {
    let mut timeline: Vec<(u32, u8, u64, IngestOp)> = Vec::new();
    for id in 1..=4u64 {
        let start = id as u32;
        let end = start + 10;
        for t in start..end {
            let op = IngestOp::Update {
                id,
                rect: rect_for(id, t),
                t,
            };
            timeline.push((t, 0, id, op));
        }
        timeline.push((end, 1, id, IngestOp::Finish { id, end }));
    }
    timeline.sort_by_key(|&(t, tie, id, _)| (t, tie, id));
    let mut ops: Vec<IngestOp> = timeline.into_iter().map(|(_, _, _, op)| op).collect();
    // Stale by the time it arrives: the stream is already past t = 8.
    let past_t8 = ops
        .iter()
        .position(|op| matches!(op, IngestOp::Update { t: 9, .. }))
        .expect("stream reaches t = 9");
    ops.insert(
        past_t8,
        IngestOp::Update {
            id: 99,
            rect: Rect2::from_bounds(0.9, 0.9, 0.95, 0.95),
            t: REJECTED_T,
        },
    );
    ops
}

const COMMIT_EVERY: usize = 7;
const CHECKPOINT_EVERY: u64 = 2;

/// Why a drive stopped early, and where the resumed client must pick
/// the stream back up. A client that saw `enqueue_durable` fail before
/// the WAL append re-submits that op; one that saw it fail *after* the
/// append must not (recovery replays it from the log) — at-least-once
/// for unacknowledged ops, exactly-once for acknowledged ones.
struct CrashStop {
    resume_from: usize,
}

/// Feed `ops[start..]` through the pipeline with periodic commits and
/// (when durable) checkpoints. Stops at the first durability error.
fn drive(
    pipeline: &mut IngestPipeline,
    ops: &[IngestOp],
    start: usize,
    durable: bool,
) -> Result<(), CrashStop> {
    // Checkpoint cadence counts commit *calls*: `commits()` only counts
    // commits that published, and a stream whose objects are all still
    // open pins the watermark, making most commits no-ops.
    let mut commit_calls = 0u64;
    for (i, op) in ops.iter().enumerate().skip(start) {
        if durable {
            if let Err(e) = pipeline.enqueue_durable(*op) {
                let resume_from = match e {
                    DurabilityError::InjectedCrash(CrashPoint::AfterWalAppend) => i + 1,
                    _ => i,
                };
                return Err(CrashStop { resume_from });
            }
        } else {
            pipeline.enqueue(*op);
        }
        if (i + 1) % COMMIT_EVERY == 0 {
            let report = pipeline.commit();
            if report.durability.is_some() {
                return Err(CrashStop { resume_from: i + 1 });
            }
            assert!(report.error.is_none(), "commit hit a storage fault");
            commit_calls += 1;
            if durable
                && commit_calls.is_multiple_of(CHECKPOINT_EVERY)
                && pipeline.checkpoint().is_err()
            {
                return Err(CrashStop { resume_from: i + 1 });
            }
        }
    }
    Ok(())
}

/// What a sealed pipeline is compared on.
#[derive(Debug, PartialEq)]
struct Sealed {
    /// The probe battery's answers.
    answers: Vec<Vec<u64>>,
    /// At every instant, the objects each horizontal line crosses. An
    /// object moves along y only, by at least 0.0004 an instant, so the
    /// lines 0.0001 apart that its live record crosses pin the y-extent
    /// of that record's box: equal strips at every instant mean the
    /// splitter emitted the same records.
    records: Vec<Vec<u64>>,
    /// `ingest_splits_total`: the split decisions.
    splits: f64,
    /// `ingest_objects_admitted_total`: what the budget resolves against.
    admitted: f64,
}

/// Seal and describe the result (see [`Sealed`]).
fn seal_and_probe(mut pipeline: IngestPipeline) -> Sealed {
    let report = pipeline.seal();
    assert!(report.error.is_none(), "seal hit a storage fault");
    assert!(report.durability.is_none(), "seal hit a durability fault");
    assert!(!report.stalled, "seal stalled");
    assert_eq!(pipeline.pending_events(), 0, "seal left events pending");
    let tree = pipeline.published();
    let mut records = Vec::new();
    for t in 0..16 {
        for k in 0..800 {
            let y = 0.300_05 + 0.0001 * f64::from(k);
            let mut out = Vec::new();
            tree.tree()
                .query_snapshot(&Rect2::from_bounds(0.0, y, 1.0, y), t, &mut out)
                .expect("strip");
            out.sort_unstable();
            records.push(out);
        }
    }
    let mut metrics = MetricSet::new();
    pipeline.record_metrics(&mut metrics);
    let text = metrics.to_prometheus();
    let counter = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} is exported"))
    };
    Sealed {
        answers: probe(&pipeline),
        records,
        splits: counter("ingest_splits_total"),
        admitted: counter("ingest_objects_admitted_total"),
    }
}

fn probe(pipeline: &IngestPipeline) -> Vec<Vec<u64>> {
    let published = pipeline.published();
    let tree = published.tree();
    let everything = Rect2::from_bounds(0.0, 0.0, 1.0, 1.0);
    let window = Rect2::from_bounds(0.05, 0.05, 0.45, 0.45);
    let mut answers = Vec::new();
    for t in 0..16 {
        for area in [&everything, &window, &REJECTED_CORNER] {
            let mut out = Vec::new();
            tree.query_snapshot(area, t, &mut out).expect("snapshot");
            out.sort_unstable();
            out.dedup();
            answers.push(out);
        }
    }
    for range in [TimeInterval::new(2, 9), TimeInterval::new(0, 16)] {
        for area in [&everything, &window] {
            let mut out = Vec::new();
            tree.query_interval(area, &range, &mut out)
                .expect("interval");
            out.sort_unstable();
            out.dedup();
            answers.push(out);
        }
    }
    answers
}

/// The uninterrupted reference: same stream, no WAL, sealed.
fn shadow_answers(ops: &[IngestOp]) -> Sealed {
    let mut shadow = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    drive(&mut shadow, ops, 0, false).unwrap_or_else(|_| unreachable!("volatile drive"));
    seal_and_probe(shadow)
}

fn recover(
    dir: &Path,
) -> Result<(IngestPipeline, spatiotemporal_index::core::RecoveryReport), RecoverError> {
    IngestPipeline::recover(
        dir,
        OnlineSplitConfig::default(),
        PprParams::default(),
        wal_config(),
    )
}

/// A durable run crashed at `point`, recovered, and resumed must end up
/// answer-identical to the uninterrupted shadow.
#[test]
fn every_crash_point_recovers_to_the_shadow_answers() {
    let ops = workload();
    let reference = shadow_answers(&ops);
    // The rejected corner must stay empty in the reference too — the
    // probe battery includes it at every instant.
    assert!(reference.answers.iter().all(|ids| !ids.contains(&99)));
    // The four objects are admitted and split (the rejected op is not
    // an object), so the comparison below covers split decisions.
    assert_eq!(reference.admitted, 4.0);
    assert!(
        (4.0..36.0).contains(&reference.splits),
        "{} splits: some pieces, not every instant",
        reference.splits
    );

    for (i, point) in CrashPoint::ALL.into_iter().enumerate() {
        let dir = temp_dir(&format!("point-{i}"));
        let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
        pipeline
            .attach_durability(&dir, wal_config())
            .expect("attach");
        pipeline.arm_crash_point(point).expect("arm");

        let stop = drive(&mut pipeline, &ops, 0, true)
            .expect_err("every armed crash point fires under this cadence");
        // A dead pipeline refuses all further durable work.
        assert!(matches!(
            pipeline.enqueue_durable(ops[0]),
            Err(DurabilityError::Dead)
        ));
        drop(pipeline);

        let (mut recovered, report) =
            recover(&dir).unwrap_or_else(|e| panic!("recovery after {point} failed: {e}"));
        assert!(
            !report.torn_tail,
            "fsync=Always leaves no torn tail ({point})"
        );
        drive(&mut recovered, &ops, stop.resume_from, true)
            .unwrap_or_else(|_| panic!("resumed drive crashed again after {point}"));
        let sealed = seal_and_probe(recovered);
        assert_eq!(
            sealed, reference,
            "recovered index diverges from the shadow after a crash at {point}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Run the durable workload to completion (commits + checkpoints, no
/// seal) and leave the WAL directory behind for damage experiments.
fn durable_run(dir: &Path) {
    let ops = workload();
    let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    pipeline
        .attach_durability(dir, wal_config())
        .expect("attach");
    drive(&mut pipeline, &ops, 0, true).unwrap_or_else(|_| unreachable!("no crash armed"));
}

/// Every single-byte flip in every WAL segment must yield a typed error
/// or a recoverable pipeline — never a panic, and never a resurrected
/// rejected op.
#[test]
fn wal_corruption_sweep_fails_closed() {
    let dir = temp_dir("sweep");
    durable_run(&dir);
    let baseline = recover(&dir).expect("pristine recovery");
    let baseline_replayed = baseline.1.wal_records_replayed;
    drop(baseline);

    let segments: Vec<PathBuf> = {
        let mut v: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("read wal dir")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
            })
            .collect();
        v.sort();
        v
    };
    assert!(
        segments.len() > 1,
        "workload must span several segments to make the sweep meaningful"
    );

    // Bit rot: every single-byte flip leaves frame lengths intact, so
    // none can masquerade as a torn tail — recovery must refuse every
    // one with a typed error (that is the point of checksumming the
    // length field separately).
    for segment in &segments {
        let pristine = std::fs::read(segment).expect("read segment");
        for offset in 0..pristine.len() {
            let mut damaged = pristine.clone();
            damaged[offset] ^= 0xFF;
            std::fs::write(segment, &damaged).expect("write damaged segment");
            match recover(&dir) {
                Ok(_) => panic!(
                    "recovery accepted a flipped byte at {}+{offset}",
                    segment.display()
                ),
                // Force the error through its Display path too.
                Err(e) => drop(e.to_string()),
            }
            std::fs::write(segment, &pristine).expect("restore segment");
        }
    }

    // Torn tails: a crash mid-write shears the *last* segment at an
    // arbitrary byte. Every truncation length must recover — the torn
    // suffix is dropped fail-closed, never misread as data.
    let last = segments.last().expect("at least one segment");
    let pristine = std::fs::read(last).expect("read last segment");
    let mut survived = 0u32;
    for keep in 0..pristine.len() {
        std::fs::write(last, &pristine[..keep]).expect("shear segment");
        let (pipeline, report) =
            recover(&dir).unwrap_or_else(|e| panic!("torn tail at {keep} bytes must recover: {e}"));
        survived += 1;
        assert!(report.wal_records_replayed <= baseline_replayed);
        let mut out = Vec::new();
        pipeline
            .published()
            .tree()
            .query_snapshot(&REJECTED_CORNER, REJECTED_T, &mut out)
            .expect("probe torn recovery");
        assert!(out.is_empty(), "rejected op resurrected by a torn tail");
    }
    std::fs::write(last, &pristine).expect("restore last segment");
    assert!(survived > 0);

    // Shearing an *interior* segment is not a torn tail — the chain to
    // the next segment breaks, and recovery must say so.
    let interior = &segments[0];
    let bytes = std::fs::read(interior).expect("read interior segment");
    std::fs::write(interior, &bytes[..bytes.len() / 2]).expect("shear interior");
    assert!(
        recover(&dir).is_err(),
        "a sheared interior segment must fail recovery"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint files in `dir`, sorted by name.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read wal dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("checkpoint-"))
        })
        .collect();
    v.sort();
    v
}

/// Flip the first byte of the pipeline state in the image at `path`
/// and save it back, which re-stamps the metadata checksum: the image
/// opens, only the state's own decode can refuse it.
fn damage_state(path: &Path) {
    let (tree, mut state) = PprTree::open_with_owner(path).expect("open image");
    state[0] ^= 0xFF;
    tree.save_with_owner(path, &state).expect("save image");
}

/// Damaging the newest checkpoint — its pipeline state or its pages —
/// demotes recovery to the previous generation; damaging every
/// checkpoint is a typed error, not a panic.
#[test]
fn checkpoint_damage_falls_back_then_fails_closed() {
    let dir = temp_dir("ckpt");
    durable_run(&dir);

    // One file per generation, and retention keeps exactly two.
    let images = checkpoint_files(&dir);
    assert_eq!(images.len(), 2, "{images:?}");
    assert!(images
        .iter()
        .all(|p| p.extension().is_some_and(|e| e == "idx")));

    let (pristine, report) = recover(&dir).expect("pristine recovery");
    let newest_gen = report.checkpoint_generation.expect("has a checkpoint");
    assert_eq!(report.checkpoints_skipped, 0);
    drop(pristine);

    let newest = images.last().expect("two images");
    let saved = std::fs::read(newest).expect("read image");
    // Its state, under a valid checksum; then one of its pages.
    let mut torn_page = saved.clone();
    torn_page[saved.len() - 100] ^= 0xFF;
    for damage_pages in [false, true] {
        if damage_pages {
            std::fs::write(newest, &torn_page).expect("damage image");
        } else {
            damage_state(newest);
        }
        let (_, report) = recover(&dir).expect("fallback recovery");
        assert_eq!(report.checkpoints_skipped, 1);
        assert_eq!(
            report.checkpoint_generation,
            Some(newest_gen - 1),
            "fallback must land on the previous generation"
        );
    }
    std::fs::write(newest, &saved).expect("restore image");

    // Damage every image: recovery must refuse with a typed error rather
    // than silently replaying the whole WAL as if no checkpoint existed
    // (the WAL below the oldest cut is already truncated).
    for image in &images {
        damage_state(image);
    }
    match recover(&dir) {
        Err(RecoverError::NoUsableCheckpoint { tried }) => assert_eq!(tried, 2),
        Err(e) => panic!("expected NoUsableCheckpoint, got {e}"),
        Ok(_) => panic!("expected NoUsableCheckpoint, got a recovered pipeline"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint whose retention step fails has still committed its
/// generation, so the next checkpoint takes a new number: a crash in it
/// cannot leave a new tree under the old generation's name.
#[test]
fn a_failed_retention_step_does_not_reuse_the_generation() {
    let ops = workload();
    let reference = shadow_answers(&ops);
    let dir = temp_dir("retention");
    let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    pipeline
        .attach_durability(&dir, wal_config())
        .expect("attach");
    // A directory where pruning expects a stale image: removing it
    // fails, after the first checkpoint has committed.
    let blocker = dir.join("checkpoint-0000000000000000.idx");
    std::fs::create_dir(&blocker).expect("make the blocker");
    let stop = drive(&mut pipeline, &ops, 0, true).expect_err("retention fails");
    assert!(dir.join("checkpoint-0000000000000001.idx").is_file());
    std::fs::remove_dir(&blocker).expect("remove the blocker");

    pipeline
        .arm_crash_point(CrashPoint::CheckpointBeforeRename)
        .expect("arm");
    let stop = drive(&mut pipeline, &ops, stop.resume_from, true).expect_err("crash");
    drop(pipeline);
    let names: Vec<_> = checkpoint_files(&dir)
        .iter()
        .map(|p| p.file_name().expect("name").to_owned())
        .collect();
    assert_eq!(
        names,
        [
            "checkpoint-0000000000000001.idx",
            "checkpoint-0000000000000002.idx.tmp"
        ]
    );

    let (mut recovered, report) = recover(&dir).expect("recovery");
    assert_eq!(report.checkpoint_generation, Some(1));
    drive(&mut recovered, &ops, stop.resume_from, true)
        .unwrap_or_else(|_| panic!("resumed drive crashed"));
    let names: Vec<_> = checkpoint_files(&dir)
        .iter()
        .map(|p| p.file_name().expect("name").to_owned())
        .collect();
    assert_eq!(
        names,
        [
            "checkpoint-0000000000000001.idx",
            "checkpoint-0000000000000002.idx"
        ],
        "two distinct retained generations"
    );
    assert_eq!(seal_and_probe(recovered), reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite 6 at the library level: a recovered pipeline reports its
/// restored backlog — the queue-depth and pending-event gauges pick up
/// where the crashed process left off instead of resetting to zero.
#[test]
fn recovered_gauges_report_the_restored_backlog() {
    let dir = temp_dir("gauges");
    let ops = workload();
    let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    pipeline
        .attach_durability(&dir, wal_config())
        .expect("attach");
    // Stop mid-stream with acknowledged-but-uncommitted ops in flight:
    // past the last commit boundary, before the next.
    let cutoff = COMMIT_EVERY * 3 + 4;
    drive(&mut pipeline, &ops[..cutoff], 0, true).unwrap_or_else(|_| unreachable!("no crash"));
    let backlog = pipeline.queue_len();
    assert!(backlog > 0, "cutoff must strand ops in the queue");
    drop(pipeline);

    let (recovered, report) = recover(&dir).expect("recovery");
    // The restored queue holds everything past the checkpoint's LSN
    // cut, which includes the stranded backlog (and may include already
    // committed ops the replay re-derives deterministically).
    let restored = recovered.queue_len();
    assert!(restored >= backlog, "restored queue lost stranded ops");
    assert!(report.wal_records_replayed > 0 || report.queued_restored > 0);

    let mut metrics = MetricSet::new();
    recovered.record_metrics(&mut metrics);
    report.record_metrics(&mut metrics);
    let text = metrics.to_prometheus();
    assert!(
        text.contains(&format!("ingest_queue_depth {restored}")),
        "queue gauge must survive recovery, got:\n{text}"
    );
    assert!(text.contains("recovery_wal_records_replayed"));
    assert!(text.contains("recovery_checkpoint_generation"));
    assert!(text.contains("wal_appends_total"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Attaching a fresh pipeline to a directory that already holds durable
/// history must fail loudly — that directory belongs to `recover`.
#[test]
fn attach_refuses_a_used_directory() {
    let dir = temp_dir("used");
    durable_run(&dir);
    let mut fresh = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    assert!(matches!(
        fresh.attach_durability(&dir, wal_config()),
        Err(DurabilityError::DirNotInitial)
    ));
    std::fs::remove_dir_all(&dir).ok();
}
