//! `ingest_durable`: the write use of the layers the query workloads
//! read. The paper's dataset is flattened into a time-ordered live
//! stream and pushed through `IngestPipeline` with a write-ahead log
//! (`FsyncPolicy::Commit`): a commit every two instants, a checkpoint
//! every fifty commits, twenty snapshot queries on the published version
//! after every commit, and a simulated crash at 90 % of the stream whose
//! recovery is checked against what was published at that moment.
//!
//! One pass is the whole life of a pipeline (new, attach, stream, seal),
//! so the passes of a run are identical work, step for step.

use crate::gen::{self, LiveStream};
use crate::metrics::Report;
use crate::run::{overhead_pct, repeat_setup, run_passes, steps, Ctx};
use crate::stats::{ns_to_us, quantile_ns, ratio, weighted_quantile};
use crate::trace::Tracer;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sti_core::{
    encode_op, BatchState, CommitReport, IngestOp, IngestPipeline, OnlineSplitConfig,
    OnlineSplitter, VersionStamp,
};
use sti_datagen::{Query, QuerySetSpec};
use sti_pprtree::{PprParams, PprTree};
use sti_storage::{FsyncPolicy, Wal, WalConfig, WalStats, PAGE_SIZE};
use sti_trajectory::RasterizedObject;

const COMMIT_EVERY_INSTANTS: u32 = 2;
const CHECKPOINT_EVERY_COMMITS: u64 = 50;
const LIVE_QUERIES_PER_COMMIT: usize = 20;
const RECOVERY_QUERIES: usize = 100;

/// The flush policy is part of the workload: the log is synced once per
/// commit, so durability tracks publication.
fn wal_config() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Commit,
        ..WalConfig::default()
    }
}

struct Inputs {
    objects: Vec<RasterizedObject>,
    stream: LiveStream,
    probes: Vec<Query>,
    datagen_s: f64,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let start = Instant::now();
    let objects = gen::paper_dataset(ctx.seed, ctx.size(3_000, 300)).generate();
    let datagen_s = start.elapsed().as_secs_f64();
    let stream = LiveStream::build(&objects);
    let commits = (stream.horizon() / COMMIT_EVERY_INSTANTS) as usize + 1;
    let probes = gen::live_probes(ctx.seed, commits * LIVE_QUERIES_PER_COMMIT);
    Inputs {
        objects,
        stream,
        probes,
        datagen_s,
    }
}

/// What was durable and what was published when the "crash" happened.
struct Crash {
    dir: PathBuf,
    stamp: VersionStamp,
    queries: Vec<Query>,
    answers: Vec<Vec<u64>>,
}

/// One pass: the time of every step, in the order the steps ran. The
/// live queries have a series of their own; they and the crash copy are
/// in none of the ingest series.
#[derive(Default)]
struct Pass {
    ops: u64,
    /// `enqueue_durable` of one instant's operations, per instant.
    enqueue_ns: Vec<u64>,
    /// Every `commit()` call, and how many finalized events it published
    /// (0 when it found nothing below the watermark and returned after
    /// the log sync, which about half the calls do).
    commit_ns: Vec<u64>,
    commit_events: Vec<u64>,
    checkpoint_ns: Vec<u64>,
    live_ns: Vec<u64>,
    seal_ns: u64,
    batch_events: u64,
    lag_events: u64,
    /// Rejected ops, rollbacks, durability and storage errors.
    refused: Vec<String>,
    rejected: u64,
    rollbacks: u64,
    wal: WalStats,
    /// The first pass keeps what verification needs: the crash copy and
    /// the sealed tree. Later passes drop theirs, so memory does not
    /// grow with the number of passes the time allows.
    crash: Option<Crash>,
    tree: Option<PprTree>,
}

impl Pass {
    fn absorb(&mut self, report: &CommitReport) {
        self.batch_events += report.batch_events as u64;
        self.lag_events += report.lag_events as u64;
        self.rejected += report.rejected.len() as u64;
        if report.state == BatchState::RolledBack {
            self.rollbacks += 1;
        }
        for r in &report.rejected {
            self.refused.push(format!("rejected op: {}", r.error));
        }
        if let Some(e) = &report.error {
            self.refused.push(format!("commit rolled back: {e}"));
        }
        if let Some(e) = &report.durability {
            self.refused.push(format!("commit durability: {e}"));
        }
        if report.stalled {
            self.refused.push("seal stalled".into());
        }
    }
}

fn snapshot_ids(tree: &PprTree, q: &Query, t: u32) -> Result<Vec<u64>, String> {
    let mut out = Vec::new();
    tree.query_snapshot(&q.area, t, &mut out)
        .map_err(|e| format!("live query: {e}"))?;
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Sizes of the log's files as they stand right after a sync.
fn synced_files(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut files: Vec<(PathBuf, u64)> = std::fs::read_dir(dir)
        .expect("list wal dir")
        .filter_map(Result::ok)
        .filter_map(|e| Some((e.path(), e.metadata().ok()?.len())))
        .collect();
    files.sort();
    files
}

/// Copy the durable state, cutting every file back to its length at the
/// last sync. An in-process "crash" would otherwise read back bytes that
/// only the operating system's cache ever held.
fn copy_synced(files: &[(PathBuf, u64)], to: &Path) {
    for (path, len) in files {
        let dest = to.join(path.file_name().expect("file name"));
        std::fs::copy(path, &dest).expect("copy durable file");
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&dest)
            .expect("open copy");
        f.set_len(*len).expect("truncate copy to synced length");
    }
}

fn pass(
    wal_dir: &Path,
    crash_dir: Option<&Path>,
    seed: u64,
    inp: &Inputs,
    tracer: &mut Tracer,
) -> Pass {
    let mut p = Pass::default();
    let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    pipeline
        .attach_durability(wal_dir, wal_config())
        .expect("attach a fresh WAL directory");
    let horizon = inp.stream.horizon();
    let total_commits = u64::from(horizon / COMMIT_EVERY_INSTANTS);
    // 90 % of the way through, moved to the middle of a checkpoint
    // interval so recovery has a log tail to replay.
    let crash_commit = total_commits * 9 / 10 / CHECKPOINT_EVERY_COMMITS * CHECKPOINT_EVERY_COMMITS
        + CHECKPOINT_EVERY_COMMITS / 2;
    let mut pending_crash: Option<(Vec<(PathBuf, u64)>, Crash)> = None;
    let mut commits = 0u64;
    let mut probe = 0usize;
    let mut op_index = 0usize;

    let root = tracer.enter("bench.pass", 0);
    for t in 0..horizon {
        let end = inp.stream.instant_end[t as usize];
        let t0 = Instant::now();
        for (i, op) in inp.stream.ops[op_index..end].iter().enumerate() {
            let span = tracer.enter("core.pipeline.enqueue_durable", (op_index + i) as u64);
            let outcome = pipeline.enqueue_durable(*op);
            tracer.exit(span);
            match outcome {
                Ok(_) => p.ops += 1,
                Err(e) => p.refused.push(format!("enqueue_durable: {e}")),
            }
        }
        p.enqueue_ns.push(t0.elapsed().as_nanos() as u64);
        op_index = end;

        // The crash copy happens here, one instant after the commit it
        // belongs to: this instant's appends are in the files but were
        // never synced, and the copy must not contain them.
        if let Some((files, crash)) = pending_crash.take() {
            copy_synced(&files, &crash.dir);
            p.crash = Some(crash);
        }
        if !(t + 1).is_multiple_of(COMMIT_EVERY_INSTANTS) {
            continue;
        }

        let span = tracer.enter("core.pipeline.commit", commits);
        let t0 = Instant::now();
        let report = pipeline.commit();
        p.commit_ns.push(t0.elapsed().as_nanos() as u64);
        tracer.exit(span);
        let published = report.state == BatchState::Published;
        p.commit_events.push(if published {
            report.batch_events as u64
        } else {
            0
        });
        p.absorb(&report);
        commits += 1;
        if commits.is_multiple_of(CHECKPOINT_EVERY_COMMITS) {
            let span = tracer.enter("core.pipeline.checkpoint", commits);
            let t0 = Instant::now();
            let outcome = pipeline.checkpoint();
            p.checkpoint_ns.push(t0.elapsed().as_nanos() as u64);
            tracer.exit(span);
            if let Err(e) = outcome {
                p.refused.push(format!("checkpoint: {e}"));
            }
        }

        // Reader side, from the same thread, timed on its own.
        let published = pipeline.published();
        let watermark = published.stamp().watermark;
        if watermark > 0 {
            for _ in 0..LIVE_QUERIES_PER_COMMIT {
                let q = &inp.probes[probe % inp.probes.len()];
                probe += 1;
                let span = tracer.enter("pprtree.query_snapshot", probe as u64);
                let q0 = Instant::now();
                let ids = snapshot_ids(published.tree(), q, q.range.start % watermark);
                p.live_ns.push(q0.elapsed().as_nanos() as u64);
                tracer.exit(span);
                match ids {
                    Ok(ids) => drop(black_box(ids)),
                    Err(e) => p.refused.push(e),
                }
            }
        }
        if let (true, Some(dir)) = (commits == crash_commit, crash_dir) {
            let stamp = published.stamp();
            let queries: Vec<Query> = recovery_queries(seed, stamp.watermark);
            let answers = queries
                .iter()
                .map(|q| snapshot_ids(published.tree(), q, q.range.start).unwrap_or_default())
                .collect();
            let crash = Crash {
                dir: dir.to_path_buf(),
                stamp,
                queries,
                answers,
            };
            pending_crash = Some((synced_files(wal_dir), crash));
        }
    }
    let span = tracer.enter("core.pipeline.seal", 0);
    let t0 = Instant::now();
    let report = pipeline.seal();
    p.seal_ns = t0.elapsed().as_nanos() as u64;
    tracer.exit(span);
    tracer.exit(root);
    p.absorb(&report);
    p.wal = pipeline.wal_stats().unwrap_or_default();
    if crash_dir.is_some() {
        p.tree = Some(pipeline.into_published_tree());
    }
    p
}

/// The ingest steps of a run, each at its minimum across passes
/// (`stats::stepwise_min`): every pass replays the same stream through a
/// fresh pipeline, and the time to ingest the stream is the sum of its
/// steps.
struct IngestSteps {
    /// Each series with the note `steps` wrote for it.
    enqueue: (Vec<u64>, String),
    commit: (Vec<u64>, String),
    checkpoint: (Vec<u64>, String),
    seal_ns: u64,
}

impl IngestSteps {
    fn reduce(passes: &[Pass], report: &mut Report) -> Self {
        Self {
            enqueue: steps(passes, |p| &p.enqueue_ns, "enqueue times", report),
            commit: steps(passes, |p| &p.commit_ns, "commit times", report),
            checkpoint: steps(passes, |p| &p.checkpoint_ns, "checkpoint times", report),
            seal_ns: passes.iter().map(|p| p.seal_ns).min().unwrap_or(0),
        }
    }

    fn total_ns(&self) -> u64 {
        [&self.enqueue.0, &self.commit.0, &self.checkpoint.0]
            .iter()
            .map(|series| series.iter().sum::<u64>())
            .sum::<u64>()
            + self.seal_ns
    }
}

/// Snapshot queries strictly below `watermark`: their answers are final.
fn recovery_queries(seed: u64, watermark: u32) -> Vec<Query> {
    let mut spec = QuerySetSpec::large_snapshot();
    spec.seed = gen::derive(seed, 31);
    spec.cardinality = RECOVERY_QUERIES;
    spec.time_extent = watermark.max(1);
    spec.generate()
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Tracer {
    let (inp, setup_s) = repeat_setup(ctx, inputs);
    report.set_best("setup_s", &setup_s);
    report.set("datagen.generate_s", inp.datagen_s);

    let crash_dir = ctx.scratch.subdir("crash").expect("scratch dir");
    let span_capacity = inp.stream.ops.len() + inp.probes.len() + 2_000;
    let mut first_pass = true;
    let passes = run_passes(ctx, span_capacity, |tracer| {
        let wal_dir = ctx.scratch.subdir("wal").expect("scratch dir");
        // Only the first pass pays for the crash copy and keeps its tree.
        let crash = std::mem::take(&mut first_pass).then_some(crash_dir.as_path());
        let p = pass(&wal_dir, crash, ctx.seed, &inp, tracer);
        let _ = std::fs::remove_dir_all(&wal_dir);
        p
    });
    let rss = crate::host::rss_mb();

    let timed = &passes.untraced;
    for p in timed.iter().chain(&passes.traced) {
        report.ok_ops(p.ops + p.commit_ns.len() as u64 + p.live_ns.len() as u64);
        for why in &p.refused {
            report.check(false, || why.clone());
        }
    }
    let first = &timed[0];
    let steps_of = IngestSteps::reduce(timed, report);
    // The timed operation is what the producer waits for at every
    // instant: `enqueue_durable` of that instant's observations (about
    // 155 of them), appended to the log and acknowledged. An instant has
    // the same cost whatever the seed, so its median and its p99 (ten
    // instants beyond it in every pass) repeat from seed to seed; no
    // quantile of `commit()` does, see below.
    let (enqueue, note) = &steps_of.enqueue;
    report.set_noted(
        "op_p50_us",
        ns_to_us(quantile_ns(enqueue, 0.50)),
        note.clone(),
    );
    report.set_noted(
        "op_tail_us",
        ns_to_us(quantile_ns(enqueue, 0.99)),
        note.clone(),
    );
    let (commit, note) = &steps_of.commit;
    // How many events a commit publishes is decided by where the
    // watermark happens to stand: batch sizes, and with them every
    // quantile of the raw commit latency, differ between seeds by 10 to
    // 30 % (measured over twenty seeds), which is why commit time is
    // gated through `ops_per_s` (four fifths of a pass is `commit()`)
    // and its quantiles are per-layer metrics. The steadiest of them is
    // what a finalized event sees: its commit's time per event, weighted
    // by events (a three-event batch that is all fsync counts for three
    // events, not for one commit). Up to its median that distribution is
    // the code's (within 3 % across seeds); above it is the input's, a
    // handful of near-empty batches that are all fsync.
    let publishing: Vec<(u64, u64)> = commit
        .iter()
        .zip(&first.commit_events)
        .filter(|(_, &events)| events > 0)
        .map(|(&ns, &events)| (ns, events))
        .collect();
    let per_event: Vec<(u64, u64)> = publishing
        .iter()
        .map(|&(ns, events)| (ns / events, events))
        .collect();
    let raw: Vec<u64> = publishing.iter().map(|&(ns, _)| ns).collect();
    let note = format!("{} publishing commits of {note}", publishing.len());
    report.set_noted(
        "core.pipeline.commit_event_p50_us",
        ns_to_us(weighted_quantile(&per_event, 0.50)),
        note.clone(),
    );
    report.set_noted(
        "core.pipeline.commit_event_p75_us",
        ns_to_us(weighted_quantile(&per_event, 0.75)),
        note.clone(),
    );
    report.set_noted(
        "core.pipeline.commit_p50_ms",
        quantile_ns(&raw, 0.50) as f64 / 1e6,
        note.clone(),
    );
    report.set_noted(
        "core.pipeline.commit_p95_ms",
        quantile_ns(&raw, 0.95) as f64 / 1e6,
        note,
    );
    report.set_noted(
        "ops_per_s",
        first.ops as f64 / (steps_of.total_ns() as f64 / 1e9),
        format!(
            "{} ops, per-step min over {} passes",
            first.ops,
            timed.len()
        ),
    );
    let tree = first.tree.as_ref().expect("the first pass keeps its tree");
    report.set(
        "index_bytes_per_object",
        (tree.num_pages() * PAGE_SIZE) as f64 / inp.objects.len() as f64,
    );
    report.set("rss_mb", rss);

    report.set("storage.wal.fsyncs", first.wal.fsyncs as f64);
    report.set("storage.wal.appends", first.wal.appends as f64);
    report.set(
        "storage.wal.segments_created",
        first.wal.segments_created as f64,
    );
    report.set(
        "storage.wal.bytes_per_op",
        ratio(first.wal.bytes, first.wal.appends),
    );
    report.set_noted(
        "core.pipeline.enqueue_ns",
        ratio(steps_of.enqueue.0.iter().sum(), first.ops),
        steps_of.enqueue.1.clone(),
    );
    report.set("core.pipeline.batch_events", first.batch_events as f64);
    report.set("core.pipeline.lag_events", first.lag_events as f64);
    report.set(
        "core.pipeline.lag_share",
        ratio(first.lag_events, first.lag_events + first.batch_events),
    );
    report.set("core.pipeline.commits_published", publishing.len() as f64);
    report.set("core.pipeline.rollbacks", first.rollbacks as f64);
    report.set("core.pipeline.rejected", first.rejected as f64);
    report.set_best(
        "core.pipeline.seal_s",
        &timed
            .iter()
            .map(|p| p.seal_ns as f64 / 1e9)
            .collect::<Vec<_>>(),
    );
    let (checkpoint, note) = &steps_of.checkpoint;
    report.set_noted(
        "core.pipeline.checkpoint_p50_ms",
        quantile_ns(checkpoint, 0.50) as f64 / 1e6,
        note.clone(),
    );
    report.set_noted(
        "core.pipeline.checkpoint_max_ms",
        quantile_ns(checkpoint, 1.0) as f64 / 1e6,
        note.clone(),
    );
    report.set("core.pipeline.checkpoints", checkpoint.len() as f64);
    let (live, note) = steps(timed, |p| &p.live_ns, "live query times", report);
    report.set_noted(
        "core.pipeline.live_query_p50_us",
        ns_to_us(quantile_ns(&live, 0.50)),
        note,
    );
    report.set("pprtree.insert.pages", tree.num_pages() as f64);

    if ctx.trace {
        let traced = IngestSteps::reduce(&passes.traced, report);
        report.set(
            "bench.trace_overhead_pct",
            overhead_pct(steps_of.total_ns() as f64, traced.total_ns() as f64),
        );
        layer_probes(ctx, &inp, report);
    }
    match &first.crash {
        Some(crash) => check_recovery(crash, report),
        None => report.check(false, || "the crash point was never reached".into()),
    }
    verify(ctx.seed, &inp, tree, report);
    passes.tracer
}

/// Recover from the crash copy; the recovered pipeline must publish the
/// watermark the live one had published, and answer alike below it.
fn check_recovery(crash: &Crash, report: &mut Report) {
    let start = Instant::now();
    let recovered = IngestPipeline::recover(
        &crash.dir,
        OnlineSplitConfig::default(),
        PprParams::default(),
        wal_config(),
    );
    report.set("core.recover.recover_s", start.elapsed().as_secs_f64());
    let (mut pipeline, recovery) = match recovered {
        Ok(pair) => pair,
        Err(e) => {
            report.check(false, || format!("recovery failed: {e}"));
            return;
        }
    };
    report.set(
        "core.recover.wal_records_replayed",
        recovery.wal_records_replayed as f64,
    );
    report.set(
        "core.recover.checkpoint_generation",
        recovery.checkpoint_generation.unwrap_or(0) as f64,
    );
    report.set(
        "core.recover.checkpoints_skipped",
        recovery.checkpoints_skipped as f64,
    );
    report.check(!recovery.torn_tail, || {
        "the synced copy of the log has a torn tail".into()
    });
    // `recover` restores the queue; the next commit replays it. The
    // version counter counts publishes and the tail goes in as one
    // batch, so only the watermark is comparable.
    let replay = pipeline.commit();
    report.check(replay.error.is_none() && replay.rejected.is_empty(), || {
        "replaying the log tail refused an operation".into()
    });
    let published = pipeline.published();
    report.check(published.stamp().watermark == crash.stamp.watermark, || {
        format!(
            "recovered to {} but {} was published at the crash",
            published.stamp(),
            crash.stamp
        )
    });
    for (i, (q, want)) in crash.queries.iter().zip(&crash.answers).enumerate() {
        let got = snapshot_ids(published.tree(), q, q.range.start);
        report.check(got.as_ref() == Ok(want), || {
            format!("recovery query {i} differs from the answer published before the crash")
        });
    }
}

/// The micro-phases that take one layer at a time over the same stream.
fn layer_probes(ctx: &Ctx, inp: &Inputs, report: &mut Report) {
    let ops = &inp.stream.ops;

    let mut splitter = OnlineSplitter::new(OnlineSplitConfig::default());
    let start = Instant::now();
    for op in ops {
        match *op {
            IngestOp::Update { id, rect, t } => drop(black_box(splitter.observe(id, rect, t))),
            IngestOp::Finish { id, end } => drop(black_box(splitter.finish(id, end))),
        }
    }
    report.set(
        "core.online.observe_ns",
        start.elapsed().as_nanos() as f64 / ops.len() as f64,
    );

    // Same stream, same commit cadence, no log: what is left of
    // `ops_per_s` when durability costs nothing.
    let mut pipeline = IngestPipeline::new(OnlineSplitConfig::default(), PprParams::default());
    let start = Instant::now();
    let mut at = 0;
    for (t, &end) in inp.stream.instant_end.iter().enumerate() {
        for op in &ops[at..end] {
            pipeline.enqueue(*op);
        }
        at = end;
        if (t as u32 + 1).is_multiple_of(COMMIT_EVERY_INSTANTS) {
            black_box(pipeline.commit());
        }
    }
    black_box(pipeline.seal());
    report.set(
        "core.pipeline.volatile_ops_per_s",
        ops.len() as f64 / start.elapsed().as_secs_f64(),
    );

    // The log alone: the same payloads, a sync where a commit would be.
    let dir = ctx.scratch.subdir("wal-probe").expect("scratch dir");
    let payloads: Vec<Vec<u8>> = ops.iter().map(encode_op).collect();
    let mut wal = Wal::open(&dir, wal_config()).expect("open probe log").wal;
    let mut append_ns = 0u64;
    let mut sync_ns = Vec::new();
    let mut at = 0;
    for (t, &end) in inp.stream.instant_end.iter().enumerate() {
        let t0 = Instant::now();
        for payload in &payloads[at..end] {
            wal.append(payload).expect("append");
        }
        append_ns += t0.elapsed().as_nanos() as u64;
        at = end;
        if (t as u32 + 1).is_multiple_of(COMMIT_EVERY_INSTANTS) {
            let t0 = Instant::now();
            wal.sync().expect("sync");
            sync_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    report.set("storage.wal.append_ns", ratio(append_ns, ops.len() as u64));
    report.set_with_samples(
        "storage.wal.sync_p50_us",
        ns_to_us(quantile_ns(&sync_ns, 0.50)),
        sync_ns.len(),
    );
}

/// After the timed phase: the sealed tree must report every object whose
/// raw per-instant rectangles meet the query (splitting only ever adds
/// empty space, so a false negative is a lost object), and must pass the
/// tree's own checker.
fn verify(seed: u64, inp: &Inputs, tree: &PprTree, report: &mut Report) {
    let mut snapshots = QuerySetSpec::mixed_snapshot();
    let mut ranges = QuerySetSpec::small_range();
    (snapshots.seed, ranges.seed) = (gen::derive(seed, 32), gen::derive(seed, 33));
    (snapshots.cardinality, ranges.cardinality) = (50, 50);
    for (i, q) in snapshots
        .generate()
        .iter()
        .chain(&ranges.generate())
        .enumerate()
    {
        let mut got = Vec::new();
        let outcome = if q.is_snapshot() {
            tree.query_snapshot(&q.area, q.range.start, &mut got)
        } else {
            tree.query_interval(&q.area, &q.range, &mut got)
        };
        let missing = inp.objects.iter().find(|o| {
            let life = o.lifetime();
            life.overlaps(&q.range)
                && (q.range.start.max(life.start)..q.range.end.min(life.end))
                    .any(|t| o.rect((t - life.start) as usize).intersects(&q.area))
                && !got.contains(&o.id())
        });
        report.check(outcome.is_ok() && missing.is_none(), || {
            format!(
                "verification query {i}: object {:?} is missing from the answer",
                missing.map(RasterizedObject::id)
            )
        });
    }
    let start = Instant::now();
    let violations = sti_pprtree::check::validate(tree).map_or_else(|v| v.len(), |_| 0);
    report.set("pprtree.check.validate_s", start.elapsed().as_secs_f64());
    report.set("pprtree.check.violations", violations as f64);
    report.check(violations == 0, || {
        format!("{violations} invariant violation(s) in the sealed tree")
    });
}
