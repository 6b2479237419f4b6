//! Exact order statistics over raw nanosecond samples. Nothing here
//! buckets: `sti_obs::LatencyHistogram` rounds to a 2^(1/4) grid (a 19 %
//! step), which reads as drift between two identical runs.

/// The `q`-quantile (nearest-rank) of `samples`, which need not be
/// sorted. Returns 0 for an empty slice.
pub fn quantile_ns(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// The `q`-quantile of `(value, weight)` pairs: the smallest value at
/// which the running weight reaches `q` of the total.
pub fn weighted_quantile(pairs: &[(u64, u64)], q: f64) -> u64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_unstable();
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    let mut running = 0u64;
    for &(value, weight) in &sorted {
        running += weight;
        if running as f64 >= q * total as f64 {
            return value;
        }
    }
    sorted.last().map_or(0, |&(value, _)| value)
}

/// Every pass of a timed phase replays the same steps, so step `i` of
/// pass `k` is the same work for every `k`; what differs is how much the
/// shared host interfered, and interference only ever adds time. A
/// step's cost is therefore its minimum across passes. Percentiles and
/// throughput are computed over these per-step minima: they read the
/// program's own cost, and they are the only reading that repeats from
/// run to run on a host whose speed moves by tens of percent for seconds
/// at a time.
///
/// Returns `None` when the passes are not the same length, which means
/// they were not the same work.
pub fn stepwise_min<'a>(passes: impl IntoIterator<Item = &'a [u64]>) -> Option<Vec<u64>> {
    let mut passes = passes.into_iter();
    let mut min = passes.next()?.to_vec();
    for pass in passes {
        if pass.len() != min.len() {
            return None;
        }
        for (m, &v) in min.iter_mut().zip(pass) {
            *m = (*m).min(v);
        }
    }
    Some(min)
}

/// Median of per-pass values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
