//! What every workload shares: the run's arguments, the repeated
//! set-up, and the pass loop that alternates untraced and traced passes.

use crate::host::{CpuSet, Scratch};
use crate::metrics::Report;
use crate::stats::stepwise_min;
use crate::trace::Tracer;
use std::time::Instant;

/// One invocation's arguments plus its scratch directory.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub scratch: Scratch,
    /// The one CPU the run is pinned to and the set it was allowed
    /// before (`host::pin_to_one_cpu`); `None` when it is not pinned.
    pub cpus: Option<(usize, CpuSet)>,
}

impl Ctx {
    /// Pick the full-size or the smoke-test value.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// Set up at least three times (once under `--quick`), keep the last
/// result, and return every round's duration: one set-up is a single
/// sample of a multi-second build, and `setup_s` is gated like every
/// other metric. A set-up that takes milliseconds is repeated until a
/// second has gone by: its best round is only steady over many.
pub fn repeat_setup<T>(ctx: &Ctx, mut setup: impl FnMut(&Ctx) -> T) -> (T, Vec<f64>) {
    let (min_rounds, max_rounds) = (ctx.size(3, 1), ctx.size(30, 1));
    let mut secs = Vec::with_capacity(max_rounds);
    let mut last = None;
    while secs.len() < min_rounds || (secs.len() < max_rounds && secs.iter().sum::<f64>() < 1.0) {
        // Drop the previous round's index (and its files) first, so
        // rounds do not pile up in memory or on disk.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup(ctx));
        secs.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one round"), secs)
}

/// The passes of one timed phase.
pub struct Passes<P> {
    /// Passes run with tracing off: every reported timing comes from
    /// these.
    pub untraced: Vec<P>,
    /// Passes run with tracing on (`--trace 1` only).
    pub traced: Vec<P>,
    /// The spans of the last traced pass.
    pub tracer: Tracer,
}

/// Repeat `pass` until `ctx.seconds` have gone by. Under `--trace 1`
/// every second pass records spans, so one process yields both sides of
/// `bench.trace_overhead_pct`. `--quick` runs the minimum: one pass, or
/// one of each.
pub fn run_passes<P>(
    ctx: &Ctx,
    span_capacity: usize,
    mut pass: impl FnMut(&mut Tracer) -> P,
) -> Passes<P> {
    let origin = Instant::now();
    let min = if ctx.trace { 2 } else { 1 };
    let mut out = Passes {
        untraced: Vec::new(),
        traced: Vec::new(),
        tracer: Tracer::off(),
    };
    let mut i = 0;
    while i < min || (!ctx.quick && origin.elapsed().as_secs_f64() < ctx.seconds) {
        if ctx.trace && i % 2 == 1 {
            let mut tracer = Tracer::on(origin, span_capacity);
            out.traced.push(pass(&mut tracer));
            out.tracer = tracer;
        } else {
            out.untraced.push(pass(&mut Tracer::off()));
        }
        i += 1;
    }
    out
}

/// Percentage by which the traced time is longer than the untraced one.
pub fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced == 0.0 {
        return 0.0;
    }
    100.0 * (traced - untraced) / untraced
}

/// One timed series (a latency per step) reduced across passes to its
/// per-step minima, with the note that goes beside every metric read
/// from it. Passes of different length were not identical work: that is
/// a failed check, and the first pass stands in.
pub fn steps<P>(
    passes: &[P],
    series: impl Fn(&P) -> &[u64],
    what: &str,
    report: &mut Report,
) -> (Vec<u64>, String) {
    let min = stepwise_min(passes.iter().map(&series));
    report.check(min.is_some(), || {
        format!("{what}: the passes of one run differ in length")
    });
    let min = min.unwrap_or_else(|| passes.first().map_or_else(Vec::new, |p| series(p).to_vec()));
    let note = format!("n={}, per-step min over {} passes", min.len(), passes.len());
    (min, note)
}
