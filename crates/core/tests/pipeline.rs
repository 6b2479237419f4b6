//! End-to-end properties of the single-writer/multi-reader ingest
//! pipeline ([`sti_core::IngestPipeline`]):
//!
//! * **equivalence** — for any seeded op stream and any commit cadence,
//!   every published version answers the history below its watermark,
//!   and the sealed one all of it, exactly like one brute-force pass
//!   over the records a bare [`OnlineSplitter`] emits for the same
//!   stream (and never drops a raw observation),
//! * **conformance** — every [`CommitReport::trace`] replays through
//!   the pure [`transition`] state machine (only documented edges),
//! * **immutability** — a reader holding a published version across
//!   concurrent commits sees byte-identical answers forever,
//! * **fault tolerance** — seeded non-transient fault storms mid-commit
//!   roll the batch back to the exact published version (same `Arc`,
//!   same stamp), and retried commits still converge to the fault-free
//!   answer,
//! * **isolation** — a published version's pages, I/O counters and
//!   buffer frames are its own: neither the committer's tree work on
//!   later forks nor a rolled-back batch shows up in them, and every
//!   published tree is byte for byte the tree a fresh one becomes when
//!   fed the same finalized events.
//!
//! The oracle shares no code with the pipeline beyond the splitter: no
//! tree, no reorder heap, no watermark. "One object, many index entries"
//! is written down once, in [`brute_force`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sti_core::{
    transition, BatchEvent, BatchState, CommitReport, IngestOp, IngestPipeline, ObjectRecord,
    OnlineSplitConfig, OnlineSplitter, RecordEvent, VersionStamp,
};
use sti_geom::{Rect2, Time, TimeInterval};
use sti_obs::QueryStats;
use sti_pprtree::{PprParams, PprTree};
use sti_storage::{
    FaultKind, FaultPlan, FaultyBackend, PageId, ScheduledFault, StorageError, PAGE_SIZE,
};

fn params() -> PprParams {
    PprParams {
        max_entries: 10,
        buffer_pages: 8,
        ..PprParams::default()
    }
}

fn config() -> OnlineSplitConfig {
    OnlineSplitConfig {
        max_piece_instants: Some(8),
        ..OnlineSplitConfig::default()
    }
}

/// A seeded stream of well-formed operations: objects spawn, observe a
/// gap-free position every instant they are alive (random walk), and
/// finish; every object is finished by the end. Some objects go dormant
/// first — they stop observing but stay unfinished, so their eventual
/// finish lands *behind* the stream clock (a straggler, legal because a
/// finish validates against the object's own last observation). The
/// stream always keeps at least one active object so the final instant
/// is observed and the sealed watermark reaches `horizon`. Also returns
/// the raw observations for the no-false-negatives check.
fn gen_stream(
    seed: u64,
    max_objects: usize,
    horizon: Time,
) -> (Vec<IngestOp>, Vec<(u64, Rect2, Time)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    let mut raw = Vec::new();
    // (id, x, y, last observed instant, dormant)
    let mut alive: Vec<(u64, f64, f64, Time, bool)> = Vec::new();
    let mut next_id = 0u64;
    for t in 0..horizon {
        // Spawn; force one active object into existence when none is
        // (the invariants below then keep at least one active forever).
        while alive.len() < max_objects && (alive.iter().all(|o| o.4) || rng.random::<f64>() < 0.4)
        {
            alive.push((
                next_id,
                rng.random::<f64>() * 0.9,
                rng.random::<f64>() * 0.9,
                t,
                false,
            ));
            next_id += 1;
        }
        for obj in &mut alive {
            if obj.4 {
                continue;
            }
            obj.1 = (obj.1 + (rng.random::<f64>() - 0.5) * 0.08).clamp(0.0, 0.9);
            obj.2 = (obj.2 + (rng.random::<f64>() - 0.5) * 0.08).clamp(0.0, 0.9);
            let rect = Rect2::from_bounds(obj.1, obj.2, obj.1 + 0.05, obj.2 + 0.05);
            ops.push(IngestOp::Update { id: obj.0, rect, t });
            raw.push((obj.0, rect, t));
            obj.3 = t;
        }
        let mut active = alive.iter().filter(|o| !o.4).count();
        for obj in &mut alive {
            if !obj.4 && active > 1 && rng.random::<f64>() < 0.04 {
                obj.4 = true; // goes silent; finished later as a straggler
                active -= 1;
            }
        }
        let mut i = 0;
        while i < alive.len() {
            let is_active = !alive[i].4;
            // The last active object never finishes mid-stream: the
            // final instant must be observed for the sealed watermark
            // to reach `horizon`.
            let may_finish = !is_active || active > 1;
            if may_finish && rng.random::<f64>() < 0.05 {
                if is_active {
                    active -= 1;
                }
                let (id, _, _, last, _) = alive.swap_remove(i);
                ops.push(IngestOp::Finish { id, end: last + 1 });
            } else {
                i += 1;
            }
        }
    }
    for (id, _, _, last, _) in alive {
        ops.push(IngestOp::Finish { id, end: last + 1 });
    }
    (ops, raw)
}

/// The oracle's half of the work: the clean stream through a bare
/// splitter, keeping every record it emits.
fn shadow_records(ops: &[IngestOp]) -> Vec<ObjectRecord> {
    let mut splitter = OnlineSplitter::new(config());
    let mut records = Vec::new();
    for op in ops {
        match *op {
            IngestOp::Update { id, rect, t } => {
                records.extend(splitter.observe(id, rect, t).expect("clean stream"));
            }
            IngestOp::Finish { id, end } => {
                records.push(splitter.finish(id, end).expect("clean stream"));
            }
        }
    }
    assert_eq!(splitter.open_objects(), 0, "the stream finishes everyone");
    records
}

/// The reference answer: every record is tested, and an object split
/// into many records is reported once.
fn brute_force(records: &[ObjectRecord], area: &Rect2, range: &TimeInterval) -> Vec<u64> {
    let mut ids: Vec<u64> = records
        .iter()
        .filter(|r| r.stbox.matches(area, range))
        .map(|r| r.id)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Sorted interval answer — never deduplicated here: the tree owes the
/// id *set*. Retries because the fault suites query trees on backends
/// whose scheduled faults may fire during the read itself (each fault
/// fires once, so retrying always terminates).
fn interval_ids(tree: &PprTree, area: &Rect2, range: &TimeInterval) -> Vec<u64> {
    for _ in 0..64 {
        let mut out = Vec::new();
        if tree.query_interval(area, range, &mut out).is_ok() {
            out.sort_unstable();
            return out;
        }
    }
    panic!("query faulted 64 times in a row; fault plans are finite");
}

fn snapshot_ids(tree: &PprTree, area: &Rect2, t: Time) -> Vec<u64> {
    for _ in 0..64 {
        let mut out = Vec::new();
        if tree.query_snapshot(area, t, &mut out).is_ok() {
            out.sort_unstable();
            return out;
        }
    }
    panic!("query faulted 64 times in a row; fault plans are finite");
}

const ALL_EVENTS: [BatchEvent; 5] = [
    BatchEvent::Drain,
    BatchEvent::Begin,
    BatchEvent::Applied,
    BatchEvent::Fail,
    BatchEvent::Publish,
];

/// Every hop in the recorded trace must be an edge of the pure state
/// machine, starting at `Queued` and ending where the report says.
fn assert_trace_conforms(report: &CommitReport) {
    assert_eq!(report.trace.first(), Some(&BatchState::Queued));
    assert_eq!(report.trace.last(), Some(&report.state));
    for w in report.trace.windows(2) {
        assert!(
            ALL_EVENTS.iter().any(|&e| transition(w[0], e) == Ok(w[1])),
            "trace takes an edge the state machine does not have: {} -> {}",
            w[0],
            w[1],
        );
    }
}

/// Probe rectangles that slice the unit square differently.
fn probe_areas() -> Vec<Rect2> {
    vec![
        Rect2::UNIT,
        Rect2::from_bounds(0.0, 0.0, 0.5, 0.5),
        Rect2::from_bounds(0.3, 0.2, 0.8, 0.9),
        Rect2::from_bounds(0.6, 0.6, 0.95, 0.95),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any stream and any commit cadence: every version published
    /// mid-stream holds exactly the events below its watermark (its
    /// clock never reaches it) and already answers that history like the
    /// oracle does over the *final* records; the sealed version answers
    /// every interval and snapshot probe exactly like the oracle — and
    /// never misses a raw observation (piece MBRs cover their instants,
    /// so the raw stream is a lower bound on every snapshot answer).
    #[test]
    fn sealed_pipeline_matches_brute_force_over_splitter_records(
        seed in any::<u64>(),
        commit_every in 1usize..25,
    ) {
        let horizon: Time = 50;
        let (ops, raw) = gen_stream(seed, 6, horizon);
        let records = shadow_records(&ops);

        let mut p = IngestPipeline::new(config(), params());
        let mut last_stamp = VersionStamp::INITIAL;
        for (i, op) in ops.iter().enumerate() {
            p.enqueue(*op);
            if i % commit_every == commit_every - 1 {
                let report = p.commit();
                prop_assert!(report.rejected.is_empty(), "clean stream: {:?}", report.rejected);
                prop_assert!(report.error.is_none());
                assert_trace_conforms(&report);
                prop_assert!(report.stamp >= last_stamp, "stamps regress");
                last_stamp = report.stamp;
                if report.state == BatchState::Published {
                    // The stream always has an open piece mid-stream, so
                    // the watermark is a real bound: nothing at or past
                    // it may have reached the tree, and everything below
                    // it is final.
                    let v = p.published();
                    let w = report.stamp.watermark;
                    prop_assert!(
                        v.tree().now() < w || w == 0,
                        "version {} applied an event at {} >= its watermark {}",
                        report.stamp.version, v.tree().now(), w,
                    );
                    for start in (0..w).step_by(5) {
                        let range = TimeInterval::new(start, (start + 4).min(w));
                        prop_assert_eq!(
                            interval_ids(v.tree(), &Rect2::UNIT, &range),
                            brute_force(&records, &Rect2::UNIT, &range),
                            "history {} below watermark {} was not final", range, w,
                        );
                    }
                }
            }
        }
        let report = p.seal();
        prop_assert_eq!(report.state, BatchState::Published);
        prop_assert!(!report.stalled);
        prop_assert_eq!(p.pending_events(), 0);
        assert_trace_conforms(&report);
        prop_assert_eq!(p.rollbacks(), 0);

        let v = p.published();
        prop_assert_eq!(v.stamp().watermark, horizon);
        v.tree().validate();
        prop_assert_eq!(v.tree().total_records(), records.len() as u64);

        for area in probe_areas() {
            for start in (0..horizon).step_by(7) {
                let range = TimeInterval::new(start, start + 1 + (start % 11));
                prop_assert_eq!(
                    interval_ids(v.tree(), &area, &range),
                    brute_force(&records, &area, &range),
                    "interval {} / area {:?} disagrees with the oracle", range, area,
                );
            }
            for t in (0..horizon).step_by(9) {
                let got = snapshot_ids(v.tree(), &area, t);
                prop_assert_eq!(
                    &got,
                    &brute_force(&records, &area, &TimeInterval::new(t, t + 1)),
                    "snapshot t={} / area {:?} disagrees with the oracle", t, area,
                );
                // No false negatives vs the raw observations.
                for (id, rect, rt) in raw.iter().filter(|&&(_, r, rt)| rt == t && r.intersects(&area)) {
                    prop_assert!(
                        got.binary_search(id).is_ok(),
                        "object {} observed at t={} in {:?} missing from the snapshot", id, rt, rect,
                    );
                }
            }
        }
    }

    /// Seeded non-transient fault storms on the device every version
    /// forks: every rolled-back commit leaves the published slot
    /// untouched (the very same `Arc`, no stamp movement), and retrying
    /// converges to the fault-free oracle's answers.
    #[test]
    fn fault_storm_mid_commit_rolls_back_to_published_version(seed in any::<u64>()) {
        let horizon: Time = 40;
        let (ops, _) = gen_stream(seed, 5, horizon);
        let records = shadow_records(&ops);

        // A fault-free run says how many device operations the stream
        // costs; the storm is scheduled among them.
        let calm = FaultyBackend::new_mem(FaultPlan::none());
        let calm_clock = calm.clone();
        let mut p = IngestPipeline::with_backend(config(), params(), Box::new(calm));
        for (i, op) in ops.iter().enumerate() {
            p.enqueue(*op);
            if i % 6 == 5 {
                p.commit();
            }
        }
        p.seal();
        let device_ops = calm_clock.ops_executed();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5717_feed);
        let plan = FaultPlan::new(
            (0..5)
                .map(|_| ScheduledFault {
                    at_op: rng.random_range(0..device_ops.max(1)),
                    kind: FaultKind::Fail { transient: false },
                })
                .collect(),
        );
        let scheduled = plan.faults().len();
        let device = FaultyBackend::new_mem(plan);
        let clock = device.clone();
        let mut p = IngestPipeline::with_backend(config(), params(), Box::new(device));

        for (i, op) in ops.iter().enumerate() {
            p.enqueue(*op);
            if i % 6 == 5 {
                let before = p.published();
                let report = p.commit();
                prop_assert!(report.rejected.is_empty());
                assert_trace_conforms(&report);
                match report.state {
                    BatchState::Published => {
                        prop_assert!(report.stamp.version == before.stamp().version + 1);
                    }
                    BatchState::RolledBack => {
                        prop_assert!(report.error.is_some(), "rollback must carry the fault");
                        let after = p.published();
                        prop_assert!(
                            std::sync::Arc::ptr_eq(&before, &after),
                            "rollback must leave the published slot untouched",
                        );
                        prop_assert_eq!(after.stamp(), before.stamp());
                    }
                    BatchState::Queued => {} // no-op commit
                    other => prop_assert!(false, "commit cannot end in {}", other),
                }
            }
        }

        // Seal gives up after two consecutive rollbacks; the plans are
        // finite, so plain retries always finish the job.
        let mut report = p.seal();
        let mut retries = 0;
        while p.pending_events() > 0 {
            report = p.commit();
            retries += 1;
            prop_assert!(retries < 64, "fault plans are finite; commits must converge");
        }
        prop_assert_eq!(report.state, BatchState::Published);
        // One device: a fault fires once, whichever fork reaches its
        // operation, and each one aborts exactly the batch it hit.
        prop_assert_eq!(clock.journal().len(), scheduled, "every scheduled fault fired");
        prop_assert_eq!(p.rollbacks(), scheduled as u64, "each fault rolled one batch back");

        let v = p.published();
        prop_assert_eq!(v.stamp().watermark, horizon);
        for area in probe_areas() {
            for start in (0..horizon).step_by(9) {
                let range = TimeInterval::new(start, start + 5);
                prop_assert_eq!(
                    interval_ids(v.tree(), &area, &range),
                    brute_force(&records, &area, &range),
                    "storm-surviving index disagrees with the fault-free oracle at {}", range,
                );
            }
        }
    }
}

/// Readers pinning a published version while the writer races commits:
/// the pinned version's snapshot answers are byte-identical on every
/// re-query (same frozen tree, same traversal — snapshot output order
/// is the deterministic stack order), interval answers are set-equal
/// (their output order is a dedup set's, by contract unordered), and
/// the stamps each reader observes never move backwards.
#[test]
fn pinned_versions_stay_byte_identical_while_commits_race() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (ops, _) = gen_stream(0x9e37_79b9, 8, 60);
    let mut p = IngestPipeline::new(config(), params());
    let reader = p.reader();
    let stop = AtomicBool::new(false);
    let area = Rect2::from_bounds(0.1, 0.1, 0.9, 0.9);
    let probe = TimeInterval::new(0, 30);

    std::thread::scope(|s| {
        for _ in 0..3 {
            let r = reader.clone();
            let stop = &stop;
            let (area, probe) = (area, probe);
            s.spawn(move || {
                let mut last_version = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let v = r.current();
                    assert!(v.stamp().version >= last_version, "stamps moved backwards");
                    last_version = v.stamp().version;
                    let mut pinned_snap = Vec::new();
                    v.tree().query_snapshot(&area, 5, &mut pinned_snap).unwrap();
                    let pinned_ival = interval_ids(v.tree(), &area, &probe);
                    for _ in 0..4 {
                        let mut again = Vec::new();
                        v.tree().query_snapshot(&area, 5, &mut again).unwrap();
                        assert_eq!(pinned_snap, again, "a pinned snapshot answer changed bytes");
                        assert_eq!(
                            pinned_ival,
                            interval_ids(v.tree(), &area, &probe),
                            "a pinned interval answer changed under a reader",
                        );
                    }
                }
            });
        }

        for (i, op) in ops.iter().enumerate() {
            p.enqueue(*op);
            if i % 10 == 9 {
                let report = p.commit();
                assert!(report.rejected.is_empty());
                assert!(report.error.is_none());
            }
        }
        let report = p.seal();
        assert_eq!(report.state, BatchState::Published);
        stop.store(true, Ordering::Release);
    });

    // After the race: the final version agrees with the oracle.
    let v = p.published();
    v.tree().validate();
    assert_eq!(
        interval_ids(v.tree(), &Rect2::UNIT, &TimeInterval::new(0, 60)),
        brute_force(
            &shadow_records(&ops),
            &Rect2::UNIT,
            &TimeInterval::new(0, 60)
        ),
    );
}

/// A reader that pins one version across *many* later commits never
/// holds the writer up — each commit forks the newest version, not the
/// pinned one — and the pinned version keeps answering identically.
#[test]
fn reader_pinning_a_version_across_many_commits_never_blocks_the_writer() {
    let mut p = IngestPipeline::new(config(), params());
    let mut pinned: Option<(std::sync::Arc<sti_core::PublishedIndex>, Vec<u64>)> = None;
    let probe = TimeInterval::new(0, 10);
    for t in 0..80 {
        enqueue_dense_instant(&mut p, t);
        if t % 2 == 1 {
            let report = p.commit();
            assert!(report.error.is_none());
            if pinned.is_none() && report.stamp.watermark >= probe.end {
                let v = p.published();
                let answer = interval_ids(v.tree(), &Rect2::UNIT, &probe);
                pinned = Some((v, answer));
            }
        }
    }
    let report = p.seal();
    assert_eq!(report.state, BatchState::Published);

    let (v, answer) = pinned.expect("80 instants pass watermark 10");
    assert!(
        p.published().stamp().version > v.stamp().version + 5,
        "the pinned version must have been superseded many commits ago",
    );
    assert_eq!(
        interval_ids(v.tree(), &Rect2::UNIT, &probe),
        answer,
        "a version pinned across many commits changed its answers",
    );
}

/// Run the fixed probe set on `tree`, returning the summed stats.
fn probe(tree: &PprTree, watermark: Time) -> Result<QueryStats, StorageError> {
    let mut total = QueryStats::new();
    let mut out = Vec::new();
    for area in probe_areas() {
        for t in (0..watermark).step_by(3) {
            out.clear();
            total += tree.query_snapshot(&area, t, &mut out)?;
        }
        out.clear();
        total += tree.query_interval(&area, &TimeInterval::new(0, watermark), &mut out)?;
    }
    Ok(total)
}

/// Enqueue instant `t` of a dense stream: forty objects, each observed
/// every instant on its own diagonal drift.
fn enqueue_dense_instant(p: &mut IngestPipeline, t: Time) {
    for id in 0..40u64 {
        let x = (0.023 * id as f64 + 0.007 * f64::from(t)).fract() * 0.9;
        let y = (0.041 * id as f64 + 0.005 * f64::from(t)).fract() * 0.9;
        p.enqueue_update(id, Rect2::from_bounds(x, y, x + 0.04, y + 0.04), t);
    }
}

/// Counters mean what they say: while a reader holds one published
/// version and the committer applies batch after batch to the other
/// tree, the held tree's `io_stats()` move by exactly the reads and hits
/// of the queries run on it.
#[test]
fn a_published_version_counts_only_its_own_reads() {
    let mut p = IngestPipeline::new(config(), params());
    let mut held = None;
    let mut queried = QueryStats::new();
    let mut commits_while_held = 0;
    for t in 0..80 {
        enqueue_dense_instant(&mut p, t);
        if t % 4 != 3 {
            continue;
        }
        let report = p.commit();
        assert!(report.error.is_none() && report.rejected.is_empty());
        if held.is_none() && report.stamp.watermark >= 20 {
            let v = p.published();
            let before = v.tree().io_stats();
            held = Some((v, before));
        } else if let Some((v, _)) = &held {
            commits_while_held += u32::from(report.state == BatchState::Published);
            queried += probe(v.tree(), v.stamp().watermark).unwrap();
        }
    }
    let (v, before) = held.expect("eighty instants pass watermark 20");
    assert!(commits_while_held >= 3, "several commits ran meanwhile");
    assert!(
        queried.disk_reads > 0,
        "an 8-page pool cannot hold the probes"
    );
    let after = v.tree().io_stats();
    assert_eq!(
        (
            after.reads - before.reads,
            after.buffer_hits - before.buffer_hits
        ),
        (queried.disk_reads, queried.buffer_hits),
        "the held version's counters moved by something other than its own queries",
    );
}

/// A batch that rolls back on the committer's tree leaves the published
/// version's buffer frames where they were: probes that were fully
/// resident before the failed commit cost no disk read after it.
#[test]
fn a_rolled_back_batch_leaves_the_readers_frames_resident() {
    // Permanent faults on the one device every version forks. Warm
    // probes are buffer hits and never reach it; a fault that lands on
    // a warming miss instead of on the batch proves nothing that round.
    let storm = FaultPlan::new(
        (0..8)
            .map(|i| ScheduledFault {
                at_op: 300 + 97 * i,
                kind: FaultKind::Fail { transient: false },
            })
            .collect(),
    );
    let roomy = PprParams {
        buffer_pages: 1024,
        ..params()
    };
    let mut p =
        IngestPipeline::with_backend(config(), roomy, Box::new(FaultyBackend::new_mem(storm)));
    let mut rollbacks_checked = 0;
    for t in 0..80 {
        enqueue_dense_instant(&mut p, t);
        if t % 4 != 3 {
            continue;
        }
        let v = p.published();
        let w = v.stamp().watermark;
        let warm = probe(v.tree(), w).and_then(|_| probe(v.tree(), w));
        let report = p.commit();
        let warmed = warm.is_ok_and(|again| again.disk_reads == 0 && again.buffer_hits > 0);
        if report.state == BatchState::RolledBack && warmed {
            assert!(std::sync::Arc::ptr_eq(&v, &p.published()));
            assert_eq!(
                probe(v.tree(), w).unwrap().disk_reads,
                0,
                "the rolled-back batch evicted the published version's frames",
            );
            rollbacks_checked += 1;
        }
    }
    assert!(rollbacks_checked > 0, "the storm never rolled a batch back");
    assert_eq!(p.seal().state, BatchState::Published, "and it blew over");
}

/// A seeded stream of objects that never go quiet, one `Vec` of
/// operations per instant: each object appears in one of the first
/// eight instants, walks randomly every instant after, and finishes at
/// `horizon` (those finishes close the last instant). The staggered
/// starts spread length-capped piece closures over the instants, so
/// nearly every commit moves the watermark and publishes.
fn gen_steady_stream(seed: u64, objects: u64, horizon: Time) -> Vec<Vec<IngestOp>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut walkers: Vec<(Time, f64, f64)> = (0..objects)
        .map(|_| {
            let x = rng.random::<f64>() * 0.9;
            (rng.random_range(0..8), x, rng.random::<f64>() * 0.9)
        })
        .collect();
    let mut instants: Vec<Vec<IngestOp>> = (0..horizon)
        .map(|t| {
            let mut ops = Vec::new();
            for (id, (start, x, y)) in (0u64..).zip(&mut walkers) {
                if t >= *start {
                    *x = (*x + (rng.random::<f64>() - 0.5) * 0.06).clamp(0.0, 0.9);
                    *y = (*y + (rng.random::<f64>() - 0.5) * 0.06).clamp(0.0, 0.9);
                    let rect = Rect2::from_bounds(*x, *y, *x + 0.05, *y + 0.05);
                    ops.push(IngestOp::Update { id, rect, t });
                }
            }
            ops
        })
        .collect();
    if let Some(last) = instants.last_mut() {
        last.extend((0..objects).map(|id| IngestOp::Finish { id, end: horizon }));
    }
    instants
}

/// Every page of `tree` at rest, read through a fork of it: the fork
/// shares the bytes and reading them moves none of `tree`'s counters.
fn pages_of(tree: &PprTree) -> Vec<Vec<u8>> {
    let mut fork = tree.clone();
    let device = fork.backend();
    (0..device.num_pages())
        .map(|id| {
            let mut page = [0u8; PAGE_SIZE];
            let id = PageId::try_from(id).expect("page ids fit");
            device.peek_into(id, &mut page).expect("an allocated page");
            page.to_vec()
        })
        .collect()
}

/// Snapshot answers at every fourth instant below `watermark` and the
/// interval answer over all of it, for each probe area.
fn answers_below(tree: &PprTree, watermark: Time) -> Vec<Vec<u64>> {
    let mut out = Vec::new();
    for area in probe_areas() {
        for t in (0..watermark).step_by(4) {
            out.push(snapshot_ids(tree, &area, t));
        }
        out.push(interval_ids(tree, &area, &TimeInterval::new(0, watermark)));
    }
    out
}

/// Apply `events` (of `records`) to `tree` one update at a time.
fn feed(tree: &mut PprTree, records: &[ObjectRecord], events: &[(Time, RecordEvent, usize)]) {
    for &(t, kind, i) in events {
        let r = &records[i];
        match kind {
            RecordEvent::Insert => tree.insert(r.id, r.stbox.rect, t).unwrap(),
            RecordEvent::Delete => tree.delete(r.id, r.stbox.rect, t).unwrap(),
        }
    }
}

/// Asserts that `published` is `reference`: same pages, root log,
/// clock and record counters.
fn assert_same_tree(published: &PprTree, reference: &PprTree) {
    assert!(pages_of(published) == pages_of(reference), "pages differ");
    assert_eq!(published.roots(), reference.roots());
    assert_eq!(published.now(), reference.now());
    assert_eq!(published.alive_records(), reference.alive_records());
    assert_eq!(published.total_records(), reference.total_records());
}

/// Raises its flag when dropped, unwinding included, so a failing
/// writer never leaves the reader it stops spinning.
struct RaiseOnDrop<'a>(&'a std::sync::atomic::AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Versions are isolated. A reader thread pins one version and keeps
    /// re-reading it — every page at rest and a fixed set of answers —
    /// while the writer runs fifty-odd later commits on the same device
    /// and a fault storm rolls some of them back; nothing the pinned
    /// version holds may change. And after every publish the published
    /// tree is exactly the tree a fresh one becomes when fed the same
    /// finalized events in order: every page, the root log, the clock
    /// and the record counters.
    #[test]
    fn versions_are_isolated_from_later_commits_and_storms(seed in any::<u64>()) {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{mpsc, Arc};

        let instants = gen_steady_stream(seed, 24, 96);
        let records = shadow_records(&instants.concat());
        let events = sti_core::record_events(&records);
        // Roomy enough that the pinned version's re-reads are all hits:
        // once pinned, the reader never reaches the device the storm is on.
        let roomy = PprParams { buffer_pages: 512, ..params() };

        // A fault-free run says how many device operations the stream
        // costs; the storm is scheduled among them.
        let calm = FaultyBackend::new_mem(FaultPlan::none());
        let calm_clock = calm.clone();
        let mut p = IngestPipeline::with_backend(config(), roomy, Box::new(calm));
        for ops in &instants {
            ops.iter().for_each(|op| p.enqueue(*op));
            p.commit();
        }
        p.seal();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x150_1a7e);
        let storm = FaultPlan::new(
            (0..6)
                .map(|_| ScheduledFault {
                    at_op: rng.random_range(0..calm_clock.ops_executed().max(1)),
                    kind: FaultKind::Fail { transient: false },
                })
                .collect(),
        );

        let mut p = IngestPipeline::with_backend(config(), roomy, Box::new(FaultyBackend::new_mem(storm)));
        let mut reference = PprTree::new(roomy);
        let mut fed = 0usize;
        let (pin_tx, pin_rx) = mpsc::channel::<Arc<sti_core::PublishedIndex>>();
        let (ready_tx, ready_rx) = mpsc::channel::<()>();
        let stop = AtomicBool::new(false);
        let stop = &stop;
        let mut publishes_after_pin = 0u32;
        let rounds = std::thread::scope(|s| {
            let reader = s.spawn(move || {
                let Ok(pinned) = pin_rx.recv() else { return 0 };
                let w = pinned.stamp().watermark;
                let pages = pages_of(pinned.tree());
                let answers = answers_below(pinned.tree(), w);
                let _ = ready_tx.send(());
                let mut rounds = 0;
                loop {
                    let last = stop.load(Ordering::Acquire);
                    assert!(pages_of(pinned.tree()) == pages, "a page of the pinned version changed");
                    assert_eq!(answers_below(pinned.tree(), w), answers, "a pinned answer changed");
                    rounds += 1;
                    if last {
                        return rounds;
                    }
                }
            });
            // Owned here, so a failing writer drops the sender (the
            // reader's `recv` returns) and raises `stop` as it unwinds.
            let pin_tx = pin_tx;
            let _stop = RaiseOnDrop(stop);
            let mut pinned = false;
            for ops in &instants {
                ops.iter().for_each(|op| p.enqueue(*op));
                let before = p.published();
                let report = p.commit();
                match report.state {
                    BatchState::Published => {
                        feed(&mut reference, &records, &events[fed..fed + report.batch_events]);
                        fed += report.batch_events;
                        assert_same_tree(p.published().tree(), &reference);
                        publishes_after_pin += u32::from(pinned);
                    }
                    BatchState::RolledBack => assert!(Arc::ptr_eq(&before, &p.published())),
                    _ => {}
                }
                if !pinned && report.stamp.watermark >= 8 {
                    pin_tx.send(p.published()).expect("the reader waits for its version");
                    ready_rx.recv().expect("the reader pins before the writer goes on");
                    pinned = true;
                }
            }
            let mut report = p.seal();
            while p.pending_events() > 0 {
                report = p.commit();
            }
            assert_eq!(report.state, BatchState::Published);
            feed(&mut reference, &records, &events[fed..]);
            assert_same_tree(p.published().tree(), &reference);
            drop(_stop);
            reader.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        });
        prop_assert!(rounds > 0, "the reader never looked at its pinned version");
        prop_assert!(publishes_after_pin >= 50, "{} publishes after the pin", publishes_after_pin);
        prop_assert!(p.rollbacks() > 0, "the storm never rolled a batch back");
    }
}
