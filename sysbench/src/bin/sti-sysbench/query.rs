//! `query_cold` and `query_hot`: one bulk-loaded PPR-Tree on a page file,
//! the same seeded queries, and a buffer pool that either is a small
//! fraction of the tree (`query_cold`: most leaf visits miss, so the
//! storage miss path does most of the work) or holds all of it
//! (`query_hot`: every visit hits, so what is left is the hit path, node
//! decode, entry scan and dedup).

use crate::gen;
use crate::metrics::Report;
use crate::run::{overhead_pct, repeat_setup, run_passes, steps, Ctx};
use crate::stats::{ns_to_us, quantile_ns, ratio};
use crate::trace::Tracer;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sti_core::{
    IndexBackend, IndexConfig, ObjectRecord, Parallelism, QueryRequest, SpatioTemporalIndex,
};
use sti_datagen::Query;
use sti_obs::QueryStats;
use sti_pprtree::{BulkStats, PprNode};
use sti_storage::{FileBackend, PageStore, ReadProbe, PAGE_SIZE};

/// Pool size of `query_cold`: keeps the directory hot and is far too
/// small for the leaf level (the `TIER_BUFFER_PAGES` of `sti-bench`).
const COLD_POOL_PAGES: usize = 256;

struct Built {
    index: SpatioTemporalIndex,
    bulk: BulkStats,
    dir: PathBuf,
    page_file: PathBuf,
    objects: usize,
    datagen_s: f64,
    build_s: f64,
}

impl Drop for Built {
    /// Deleting the page file also cancels the write-back of whatever of
    /// it is still dirty, so an earlier set-up round does not keep the
    /// kernel busy during the timed phase.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Pass {
    /// The whole pass, span bookkeeping included: what tracing costs.
    wall_ns: u64,
    samples: Vec<u64>,
    stats: QueryStats,
    errors: u64,
}

/// Stream the seeded dataset through the bulk loader into a page file,
/// size the pool, and warm it.
fn build(ctx: &Ctx, hot: bool, queries: &[Query]) -> Built {
    let objects = ctx.size(250_000, 10_000);
    let dir = ctx.scratch.subdir("tree").expect("scratch dir");
    let page_file = dir.join("tree.pages");
    let backend = FileBackend::create(&page_file).expect("create page file");
    let store = PageStore::with_backend(Box::new(backend), COLD_POOL_PAGES);
    let spec = gen::big_dataset(ctx.seed, objects);

    // The generator is lazy, so its cost is the time spent inside
    // `next()` while the loader pulls.
    let mut datagen_ns = 0u64;
    let mut source = spec.iter();
    let records = std::iter::from_fn(|| {
        let start = Instant::now();
        let record = source.next().map(|o| gen::object_record(&o));
        datagen_ns += start.elapsed().as_nanos() as u64;
        record
    });
    let start = Instant::now();
    let (mut index, bulk) = SpatioTemporalIndex::bulk_build_ppr(
        records,
        &IndexConfig::paper(IndexBackend::PprTree),
        store,
        &dir,
    )
    .expect("bulk build");
    // The loader leaves ~100 MiB of dirty pages behind. Flush them as
    // part of the set-up, or the kernel writes them back in the middle
    // of the timed phase.
    std::fs::File::open(&page_file)
        .and_then(|f| f.sync_all())
        .expect("flush page file");
    let total_s = start.elapsed().as_secs_f64();
    let datagen_s = datagen_ns as f64 / 1e9;

    if hot {
        // Pool >= tree, then one full pass: the timed passes replay the
        // same queries, so every page they touch is already resident.
        let pages = index.num_pages();
        index
            .as_ppr_mut()
            .expect("ppr backend")
            .set_buffer_capacity(pages);
        for q in queries {
            black_box(index.query(&q.area, &q.range).expect("warm query"));
        }
    } else {
        index.clear_buffer();
        let warm = gen::query_mix(ctx.seed, 14, ctx.size(5_000, 500));
        for q in &warm {
            black_box(index.query(&q.area, &q.range).expect("warm query"));
        }
    }
    Built {
        index,
        bulk,
        dir,
        page_file,
        objects,
        datagen_s,
        build_s: total_s - datagen_s,
    }
}

fn pass(index: &SpatioTemporalIndex, queries: &[Query], tracer: &mut Tracer) -> Pass {
    let mut samples = vec![0u64; queries.len()];
    let mut stats = QueryStats::new();
    let mut errors = 0;
    let root = tracer.enter("bench.pass", 0);
    let start = Instant::now();
    for (i, q) in queries.iter().enumerate() {
        let span = tracer.enter("core.index.query_with_stats", i as u64);
        let t0 = Instant::now();
        let outcome = index.query_with_stats(&q.area, &q.range);
        samples[i] = t0.elapsed().as_nanos() as u64;
        tracer.exit(span);
        match outcome {
            Ok((ids, s)) => {
                stats.merge(&s);
                black_box(ids);
            }
            Err(_) => errors += 1,
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    tracer.exit(root);
    Pass {
        wall_ns,
        samples,
        stats,
        errors,
    }
}

pub fn run(ctx: &Ctx, hot: bool, report: &mut Report) -> Tracer {
    let per_pass = ctx.size(10_000, 1_000);
    let queries = gen::query_mix(ctx.seed, 10, per_pass);
    let (built, setup_s) = repeat_setup(ctx, |ctx| build(ctx, hot, &queries));
    let index = &built.index;
    report.set_best("setup_s", &setup_s);

    index.reset_counters();
    let passes = run_passes(ctx, per_pass + 1, |tracer| pass(index, &queries, tracer));
    let rss = crate::host::rss_mb();
    let io = index.io_stats();
    let faults = index.fault_stats();

    let timed = &passes.untraced;
    for p in timed.iter().chain(&passes.traced) {
        report.ok_ops(p.samples.len() as u64 - p.errors);
        for _ in 0..p.errors {
            report.check(false, || "a timed query returned a storage error".into());
        }
    }
    // Every pass replays the same queries: a query's latency is its
    // minimum across passes (see `stats::stepwise_min`).
    let (lat, note) = steps(timed, |p| &p.samples, "query latencies", report);
    let total_ns: u64 = lat.iter().sum();
    let of_kind = |snapshot: bool| -> Vec<u64> {
        lat.iter()
            .zip(&queries)
            .filter(|(_, q)| q.is_snapshot() == snapshot)
            .map(|(&ns, _)| ns)
            .collect()
    };
    let n = per_pass;
    report.set_noted("op_p50_us", ns_to_us(quantile_ns(&lat, 0.50)), note.clone());
    report.set_noted(
        "op_tail_us",
        ns_to_us(quantile_ns(&lat, 0.99)),
        note.clone(),
    );
    report.set_noted(
        "ops_per_s",
        n as f64 / (total_ns as f64 / 1e9),
        note.clone(),
    );
    report.set(
        "index_bytes_per_object",
        (index.num_pages() * PAGE_SIZE) as f64 / built.objects as f64,
    );
    report.set("rss_mb", rss);

    // Counts come from the first pass only: it always starts from the
    // same pool state, so they repeat exactly for a given seed however
    // many passes the time allows.
    let first = &timed[0].stats;
    let q = n as u64;
    report.set(
        "storage.buffer.hit_ratio",
        ratio(first.buffer_hits, first.buffer_hits + first.disk_reads),
    );
    report.set("storage.buffer.hits_per_query", ratio(first.buffer_hits, q));
    report.set("storage.store.reads_per_query", ratio(first.disk_reads, q));
    report.set("storage.io.retries", faults.io_retries as f64);
    report.set(
        "storage.io.checksum_failures",
        faults.checksum_failures as f64,
    );
    report.set(
        "pprtree.query.nodes_per_query",
        ratio(first.nodes_visited, q),
    );
    report.set(
        "pprtree.query.entries_per_query",
        ratio(first.entries_scanned, q),
    );
    report.set(
        "pprtree.query.entries_per_result",
        ratio(first.entries_scanned, first.results),
    );
    report.set(
        "pprtree.query.dedup_candidates_per_query",
        ratio(first.dedup_candidates, q),
    );
    report.set_noted(
        "pprtree.query.ns_per_node",
        ratio(total_ns, first.nodes_visited),
        note.clone(),
    );
    report.set_noted(
        "core.index.snapshot_p50_us",
        ns_to_us(quantile_ns(&of_kind(true), 0.50)),
        note.clone(),
    );
    report.set_noted(
        "core.index.interval_p50_us",
        ns_to_us(quantile_ns(&of_kind(false), 0.50)),
        note,
    );
    report.set("pprtree.bulk.build_s", built.build_s);
    report.set(
        "pprtree.bulk.pages_written",
        built.bulk.pages_written as f64,
    );
    report.set("pprtree.bulk.leaf_pages", built.bulk.leaf_pages as f64);
    report.set("pprtree.bulk.fill_factor", built.bulk.fill_factor);
    report.set("pprtree.bulk.spilled_runs", built.bulk.spilled_runs as f64);
    report.set(
        "pprtree.bulk.peak_resident_pages",
        built.bulk.peak_resident_pages as f64,
    );
    report.set("datagen.generate_s", built.datagen_s);
    // The conservation property the workspace pins: per-query stats sum
    // to the store's own counters.
    let summed: u64 = timed
        .iter()
        .chain(&passes.traced)
        .map(|p| p.stats.disk_reads)
        .sum();
    report.check(summed == io.reads, || {
        format!(
            "per-query disk reads sum to {summed}, the store counted {}",
            io.reads
        )
    });

    if ctx.trace {
        // A query's sample starts after its span opens, so the cost of
        // tracing shows in the wall time of a pass, not in the samples.
        let fastest = |passes: &[Pass]| passes.iter().map(|p| p.wall_ns).min().unwrap_or(0) as f64;
        report.set(
            "bench.trace_overhead_pct",
            overhead_pct(fastest(timed), fastest(&passes.traced)),
        );
        // The one phase that needs the second CPU.
        if let Some((_, allowed)) = &ctx.cpus {
            crate::host::restore_cpus(allowed);
        }
        parallel_probe(index, &queries, report);
        if ctx.cpus.is_some() {
            crate::host::pin_to_one_cpu();
        }
        store_probes(ctx, &built.page_file, report);
    }
    verify(ctx, &built, report);
    passes.tracer
}

/// `core.executor.par2_speedup`: the same slice of the mix through the
/// batch executor, sequentially and on two workers.
fn parallel_probe(index: &SpatioTemporalIndex, queries: &[Query], report: &mut Report) {
    let requests: Vec<QueryRequest> = queries
        .iter()
        .take(10_000)
        .map(|q| QueryRequest {
            area: q.area,
            range: q.range,
        })
        .collect();
    let time = |parallelism| {
        let start = Instant::now();
        black_box(index.query_batch_with_stats(&requests, parallelism));
        start.elapsed().as_secs_f64()
    };
    let sequential = time(Parallelism::Sequential);
    let two = time(Parallelism::fixed(2));
    report.set("core.executor.par2_speedup", sequential / two);
}

/// The layer-isolating storage and node micro-phases, against the page
/// file the workload built.
fn store_probes(ctx: &Ctx, page_file: &Path, report: &mut Report) {
    let calls = ctx.size(200_000, 5_000);
    let open = |pool: usize| {
        let backend = FileBackend::open(page_file).expect("reopen page file");
        PageStore::with_backend(Box::new(backend), pool)
    };
    let mean_read_ns = |store: &PageStore, ids: &[u32]| {
        let mut probe = ReadProbe::default();
        let start = Instant::now();
        for &id in ids {
            black_box(store.read(id, &mut probe).expect("page read"));
        }
        (start.elapsed().as_nanos() as f64 / ids.len() as f64, probe)
    };

    let store = open(COLD_POOL_PAGES);
    let pages = store.num_pages();
    let ids = gen::page_ids(ctx.seed, 50, calls, pages);
    let (miss_ns, _) = mean_read_ns(&store, &ids);
    report.set("storage.store.read_miss_ns", miss_ns);
    drop(store);

    let store = open(pages);
    let every: Vec<u32> = (0..pages as u32).collect();
    mean_read_ns(&store, &every);
    let (hit_ns, probe) = mean_read_ns(&store, &ids);
    report.check(probe.disk_reads == 0, || {
        format!("{} misses in the all-resident read probe", probe.disk_reads)
    });
    report.set("storage.store.read_hit_ns", hit_ns);

    // Decode pages already in hand; more of them than fit in L2, so
    // the decode reads memory as a traversal would.
    let in_hand: Vec<_> = every
        .iter()
        .filter_map(|&id| store.peek(id))
        .filter(|page| PprNode::decode(page).is_ok())
        .take(4096)
        .collect();
    let start = Instant::now();
    for page in in_hand.iter().cycle().take(calls) {
        black_box(PprNode::decode(page).expect("decoded once already"));
    }
    report.set(
        "pprtree.node.decode_ns",
        start.elapsed().as_nanos() as f64 / calls as f64,
    );
}

/// After the timed phase: seeded queries against a brute-force scan of
/// the flat record list, then the tree's own invariant checker.
fn verify(ctx: &Ctx, built: &Built, report: &mut Report) {
    let records: Vec<ObjectRecord> = gen::big_dataset(ctx.seed, built.objects)
        .iter()
        .map(|o| gen::object_record(&o))
        .collect();
    for (i, q) in gen::query_mix(ctx.seed, 12, 200).iter().enumerate() {
        let mut want: Vec<u64> = records
            .iter()
            .filter(|r| r.stbox.matches(&q.area, &q.range))
            .map(|r| r.id)
            .collect();
        want.sort_unstable();
        want.dedup();
        let got = built.index.query(&q.area, &q.range);
        report.check(got.as_ref().is_ok_and(|ids| *ids == want), || {
            format!("verification query {i} disagrees with the brute-force scan")
        });
    }
    let tree = built.index.as_ppr().expect("ppr backend");
    let start = Instant::now();
    let violations = sti_pprtree::check::validate(tree).map_or_else(|v| v.len(), |_| 0);
    report.set("pprtree.check.validate_s", start.elapsed().as_secs_f64());
    report.set("pprtree.check.violations", violations as f64);
    report.check(violations == 0, || {
        format!("{violations} invariant violation(s) in the bulk-loaded tree")
    });
}
