//! The metric registry: every name the benchmark may print, with its
//! unit, direction, layer, and the end-to-end metric it is expected to
//! move. `BENCHMARK.json` and the README glossary repeat these names;
//! the smoke test fails when the three disagree.

use std::collections::BTreeMap;

/// Which way is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// For a per-layer metric: the end-to-end metric it should move and
    /// on which workload. For an end-to-end metric: its definition.
    pub note: &'static str,
}

const fn lo(name: &'static str, unit: &'static str, note: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        note,
    }
}

const fn hi(name: &'static str, unit: &'static str, note: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        note,
    }
}

/// What a user of the system sees. Every workload reports every one of
/// these from an untraced run, so each is defined in terms of the
/// workload's own timed operation: a query (`query_cold`, `query_hot`),
/// `enqueue_durable` of one instant's observations (`ingest_durable`),
/// an HTTP request timed from its due instant (`serve_http`). Latencies
/// are per-step minima across the identical passes of a run
/// (`stats::stepwise_min`).
pub const END_TO_END: &[MetricDef] = &[
    lo(
        "setup_s",
        "s",
        "best of at least three full set-ups: datagen + build + open + warm-up, up to the first timed operation",
    ),
    lo(
        "op_p50_us",
        "us",
        "median latency of the timed operation: a query, one instant's enqueue_durable calls, an HTTP request",
    ),
    lo(
        "op_tail_us",
        "us",
        "tail latency of the timed operation: p99 for queries and for ingest instants, p90 for HTTP requests",
    ),
    hi(
        "ops_per_s",
        "1/s",
        "queries/s, accepted ingest ops/s (live queries excluded), or HTTP requests completed/s at the offered 300/s",
    ),
    lo(
        "index_bytes_per_object",
        "B",
        "index pages x 4096 / objects indexed",
    ),
    lo(
        "rss_mb",
        "MiB",
        "VmRSS at the end of the timed phase",
    ),
];

/// What single layers report. Layer = the module prefix of the name.
pub const PER_LAYER: &[MetricDef] = &[
    // --- storage -----------------------------------------------------
    hi("storage.buffer.hit_ratio", "ratio", "op_p50_us, ops_per_s on query_cold; must be 1.0 on query_hot"),
    lo("storage.buffer.hits_per_query", "count", "op_p50_us on query_hot (x read_hit_ns bounds roadmap item 2b)"),
    lo("storage.store.reads_per_query", "count", "the paper's metric; op_p50_us on query_cold, 0 on query_hot, Table II average on serve_http"),
    lo("storage.store.read_miss_ns", "ns", "x reads_per_query bounds what item 2a can save on query_cold op_p50_us"),
    lo("storage.store.read_hit_ns", "ns", "x hits_per_query bounds item 2b on query_hot op_p50_us"),
    lo("storage.wal.append_ns", "ns", "op_p50_us, ops_per_s on ingest_durable"),
    lo("storage.wal.sync_p50_us", "us", "ops_per_s on ingest_durable (one sync per commit)"),
    lo("storage.wal.fsyncs", "count", "ops_per_s on ingest_durable"),
    lo("storage.wal.appends", "count", "ops_per_s on ingest_durable"),
    lo("storage.wal.segments_created", "count", "op_tail_us on ingest_durable (the instant that rolls a segment)"),
    lo("storage.wal.bytes_per_op", "B", "write amplification of the log; ops_per_s on ingest_durable"),
    lo("storage.persist.save_s", "s", "setup_s on serve_http"),
    lo("storage.persist.open_s", "s", "setup_s on serve_http; core.recover.recover_s"),
    lo("storage.persist.file_bytes", "B", "setup_s on serve_http"),
    lo("storage.io.retries", "count", "must be 0"),
    lo("storage.io.checksum_failures", "count", "must be 0"),
    // --- pprtree -----------------------------------------------------
    lo("pprtree.query.nodes_per_query", "count", "op_p50_us on query_hot"),
    lo("pprtree.query.entries_per_query", "count", "op_p50_us on query_hot"),
    lo("pprtree.query.entries_per_result", "ratio", "rows examined per row returned; op_p50_us on query_hot"),
    lo("pprtree.query.dedup_candidates_per_query", "count", "op_tail_us on query_* (interval scans)"),
    lo("pprtree.query.ns_per_node", "ns", "op_p50_us on query_hot"),
    lo("pprtree.node.decode_ns", "ns", "share of ns_per_node item 2c can remove on query_hot"),
    lo("pprtree.bulk.build_s", "s", "setup_s on query_*"),
    lo("pprtree.bulk.pages_written", "count", "index_bytes_per_object on query_*"),
    lo("pprtree.bulk.leaf_pages", "count", "index_bytes_per_object on query_*"),
    hi("pprtree.bulk.fill_factor", "ratio", "index_bytes_per_object on query_*"),
    lo("pprtree.bulk.spilled_runs", "count", "setup_s on query_*"),
    lo("pprtree.bulk.peak_resident_pages", "count", "setup_s, rss_mb on query_*"),
    lo("pprtree.insert.build_s", "s", "setup_s on serve_http"),
    lo("pprtree.insert.pages", "count", "index_bytes_per_object on serve_http"),
    lo("pprtree.check.validate_s", "s", "none (verification, outside every timed phase)"),
    lo("pprtree.check.violations", "count", "must be 0"),
    // --- core --------------------------------------------------------
    lo("core.plan.curves_s", "s", "setup_s on serve_http"),
    lo("core.plan.distribute_s", "s", "setup_s on serve_http"),
    lo("core.plan.records_per_object", "ratio", "setup_s, storage.store.reads_per_query on serve_http"),
    lo("core.index.snapshot_p50_us", "us", "op_p50_us on query_*"),
    lo("core.index.interval_p50_us", "us", "op_tail_us on query_*"),
    hi("core.executor.par2_speedup", "ratio", "2-core lock-convoy number; predicts op_tail_us on serve_http once misses overlap"),
    lo("core.online.observe_ns", "ns", "op_p50_us, ops_per_s on ingest_durable"),
    lo("core.pipeline.enqueue_ns", "ns", "op_p50_us per observation; ops_per_s on ingest_durable"),
    lo("core.pipeline.batch_events", "count", "ops_per_s on ingest_durable"),
    lo("core.pipeline.lag_events", "count", "ops_per_s on ingest_durable (item 3 drives it to 0)"),
    lo("core.pipeline.lag_share", "ratio", "lag / (lag + batch); ops_per_s on ingest_durable"),
    hi("core.pipeline.commits_published", "count", "ops_per_s on ingest_durable"),
    lo("core.pipeline.rollbacks", "count", "must be 0"),
    lo("core.pipeline.rejected", "count", "must be 0"),
    lo("core.pipeline.seal_s", "s", "ops_per_s on ingest_durable"),
    hi("core.pipeline.volatile_ops_per_s", "1/s", "ops_per_s on ingest_durable without the WAL: the durable share"),
    lo("core.pipeline.commit_event_p50_us", "us", "commit() time per finalized event, event-weighted median: the tree-apply cost item 3 must halve; ops_per_s on ingest_durable"),
    lo("core.pipeline.commit_event_p75_us", "us", "the same at p75, where near-empty batches that are all fsync begin; ops_per_s on ingest_durable"),
    lo("core.pipeline.commit_p50_ms", "ms", "median publishing commit() call: WAL sync + apply + publish; ops_per_s on ingest_durable"),
    lo("core.pipeline.commit_p95_ms", "ms", "p95 publishing commit() call; set by the largest batches the watermark releases"),
    lo("core.pipeline.checkpoint_p50_ms", "ms", "ops_per_s, core.pipeline.commit_p95_ms (the commit after a checkpoint) on ingest_durable"),
    lo("core.pipeline.checkpoint_max_ms", "ms", "ops_per_s on ingest_durable"),
    lo("core.pipeline.checkpoints", "count", "ops_per_s on ingest_durable"),
    lo("core.pipeline.live_query_p50_us", "us", "reader-side cost during ingest; must not move when item 3 lands"),
    lo("core.recover.recover_s", "s", "restart time on the ingest_durable crash snapshot"),
    lo("core.recover.wal_records_replayed", "count", "core.recover.recover_s"),
    lo("core.recover.checkpoint_generation", "count", "core.recover.recover_s"),
    lo("core.recover.checkpoints_skipped", "count", "core.recover.recover_s; must be 0"),
    // --- server ------------------------------------------------------
    lo("server.http_p99_us", "us", "too noisy on a shared host to gate; reported beside op_tail_us on serve_http"),
    lo("server.http_max_us", "us", "op_tail_us on serve_http"),
    lo("server.gen_late_p99_us", "us", "how late the generator itself ran; read beside op_tail_us on serve_http"),
    lo("server.inproc_p50_us", "us", "op_p50_us on serve_http"),
    lo("server.http_overhead_us", "us", "op_p50_us - inproc_p50_us: accept + parse + queue + serialize + write"),
    lo("server.hist_p50_us", "us", "the server's own bucketed histogram, beside the exact op_p50_us"),
    lo("server.admission_rejected", "count", "must be 0 at 300 req/s"),
    lo("server.status_503", "count", "must be 0 at 300 req/s"),
    lo("server.disconnects", "count", "must be 0"),
    hi("server.closed_loop_rps", "1/s", "saturation probe; connection-per-request dominated, never gated"),
    // --- rstar -------------------------------------------------------
    lo("rstar.build_s", "s", "none (baseline structure)"),
    lo("rstar.reads_per_query", "count", "the paper's comparison on serve_http"),
    hi("rstar.ppr_io_ratio", "ratio", "R* reads / PPR reads on the same split records; the paper's claim is > 1"),
    // --- datagen -----------------------------------------------------
    lo("datagen.generate_s", "s", "setup_s on every workload"),
    // --- the benchmark itself ------------------------------------------
    lo("bench.trace_overhead_pct", "%", "traced vs untraced passes of the same run, on ops_per_s (op_p50_us on serve_http)"),
    hi("bench.trace_spans", "count", "spans written to out/trace_<workload>.json"),
];

/// One run's measurements, by metric name, plus a note on how each
/// timing was reduced (samples per pass, passes, their median).
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    notes: BTreeMap<&'static str, String>,
    /// Operations attempted: timed operations plus verification checks.
    pub attempted: u64,
    /// Wrong answers, non-200s, rejected ops, rollbacks, violations.
    pub failed: u64,
    /// Human-readable failure descriptions (first few).
    pub failures: Vec<String>,
}

fn def(name: &str) -> &'static MetricDef {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        // An undeclared metric is a bug in the benchmark.
        .unwrap_or_else(|| panic!("metric {name} is not in the registry"))
}

impl Report {
    /// Record a value under a declared name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(def(name).name, value);
    }

    /// Record a value with the number of samples it was taken from.
    pub fn set_with_samples(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.notes.insert(name, format!("n={samples}"));
    }

    /// Record a value with a note on how it was reduced.
    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.set(name, value);
        self.notes.insert(name, note);
    }

    /// Record a quantity measured once per repeat (a set-up round, an
    /// open-loop window) as the best repeat: the lowest for a
    /// lower-is-better metric, the highest otherwise. Interference on a
    /// shared host only ever slows a repeat down; see
    /// [`crate::stats::stepwise_min`]. The median is noted beside it to
    /// show how noisy the run was.
    pub fn set_best(&mut self, name: &'static str, repeats: &[f64]) {
        let best = match def(name).better {
            Better::Lower => repeats.iter().copied().fold(f64::INFINITY, f64::min),
            Better::Higher => repeats.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        };
        self.set_noted(
            name,
            if repeats.is_empty() { 0.0 } else { best },
            format!(
                "best of {} repeats, median {:.4}",
                repeats.len(),
                crate::stats::median(repeats)
            ),
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&self, name: &str) -> Option<&str> {
        self.notes.get(name).map(String::as_str)
    }

    /// Count one checked operation; `ok == false` is a failed op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Count `n` timed operations that succeeded.
    pub fn ok_ops(&mut self, n: u64) {
        self.attempted += n;
    }
}
