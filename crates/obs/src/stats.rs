//! Per-operation I/O and traversal counters.

use crate::json::JsonValue;
use core::fmt;
use core::ops::{Add, AddAssign};

/// The I/O and traversal cost of one query (or any other bounded
/// operation), expressed as *deltas* over the backing store's global
/// counters plus traversal-side tallies the store cannot see.
///
/// Trees produce one of these per `query_*` call by snapshotting the
/// `PageStore` counters on entry and subtracting on exit, so the sum of
/// the `QueryStats` for a sequence of operations equals the global
/// counter delta over the same window exactly — no lost or
/// double-counted I/O (this conservation property is pinned by a
/// proptest in the workspace root).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct QueryStats {
    /// Pages read from "disk" (buffer misses). This is the paper's
    /// figure-of-merit for query cost.
    pub disk_reads: u64,
    /// Page reads absorbed by the LRU buffer.
    pub buffer_hits: u64,
    /// Pages written. Queries are read-only, so this is zero for them,
    /// but the same struct describes mixed operations.
    pub disk_writes: u64,
    /// Tree nodes whose entries were examined. A query counts each page
    /// at most once: an interval query that reaches a page from several
    /// parents visits it once, with the hull of their ranges.
    pub nodes_visited: u64,
    /// Node entries tested against the query predicate.
    pub entries_scanned: u64,
    /// Distinct candidate object ids that entered the dedup set
    /// (interval queries can see one object in several leaves/roots).
    pub dedup_candidates: u64,
    /// Result ids appended to the caller's output vector.
    pub results: u64,
    /// Storage operations re-attempted after a transient fault (delta of
    /// the store's `FaultStats` over this operation).
    pub io_retries: u64,
    /// Faults the storage backend injected during this operation (zero
    /// outside fault-injection runs).
    pub io_faults_injected: u64,
    /// Page verifications that failed a checksum during this operation.
    pub checksum_failures: u64,
}

impl QueryStats {
    /// A zeroed stats block.
    pub const fn new() -> Self {
        QueryStats {
            disk_reads: 0,
            buffer_hits: 0,
            disk_writes: 0,
            nodes_visited: 0,
            entries_scanned: 0,
            dedup_candidates: 0,
            results: 0,
            io_retries: 0,
            io_faults_injected: 0,
            checksum_failures: 0,
        }
    }

    /// Fold another operation's counters into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.disk_reads += other.disk_reads;
        self.buffer_hits += other.buffer_hits;
        self.disk_writes += other.disk_writes;
        self.nodes_visited += other.nodes_visited;
        self.entries_scanned += other.entries_scanned;
        self.dedup_candidates += other.dedup_candidates;
        self.results += other.results;
        self.io_retries += other.io_retries;
        self.io_faults_injected += other.io_faults_injected;
        self.checksum_failures += other.checksum_failures;
    }

    /// Structured form, field order fixed for stable serialized output.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("disk_reads", JsonValue::UInt(self.disk_reads)),
            ("buffer_hits", JsonValue::UInt(self.buffer_hits)),
            ("disk_writes", JsonValue::UInt(self.disk_writes)),
            ("nodes_visited", JsonValue::UInt(self.nodes_visited)),
            ("entries_scanned", JsonValue::UInt(self.entries_scanned)),
            ("dedup_candidates", JsonValue::UInt(self.dedup_candidates)),
            ("results", JsonValue::UInt(self.results)),
            ("io_retries", JsonValue::UInt(self.io_retries)),
            (
                "io_faults_injected",
                JsonValue::UInt(self.io_faults_injected),
            ),
            ("checksum_failures", JsonValue::UInt(self.checksum_failures)),
        ])
    }

    /// Contribute these counters to a metric set under `prefix`, e.g.
    /// `prefix = "stidx_query"` yields `stidx_query_disk_reads` etc.
    pub fn record_metrics(&self, set: &mut crate::MetricSet, prefix: &str) {
        let pairs: [(&str, u64); 10] = [
            ("disk_reads", self.disk_reads),
            ("buffer_hits", self.buffer_hits),
            ("disk_writes", self.disk_writes),
            ("nodes_visited", self.nodes_visited),
            ("entries_scanned", self.entries_scanned),
            ("dedup_candidates", self.dedup_candidates),
            ("results", self.results),
            ("io_retries", self.io_retries),
            ("io_faults_injected", self.io_faults_injected),
            ("checksum_failures", self.checksum_failures),
        ];
        for (field, value) in pairs {
            set.counter(
                &format!("{prefix}_{field}"),
                "per-operation delta reported by sti-obs",
                value as f64,
            );
        }
    }
}

impl AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: QueryStats) {
        self.merge(&rhs);
    }
}

impl Add for QueryStats {
    type Output = QueryStats;
    fn add(mut self, rhs: QueryStats) -> QueryStats {
        self.merge(&rhs);
        self
    }
}

impl core::iter::Sum for QueryStats {
    fn sum<I: Iterator<Item = QueryStats>>(iter: I) -> QueryStats {
        let mut acc = QueryStats::new();
        for s in iter {
            acc.merge(&s);
        }
        acc
    }
}

impl fmt::Display for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads {} (hits {}), writes {}, nodes {}, entries {}, \
             candidates {}, results {}, retries {}, faults {}, \
             checksum failures {}",
            self.disk_reads,
            self.buffer_hits,
            self.disk_writes,
            self.nodes_visited,
            self.entries_scanned,
            self.dedup_candidates,
            self.results,
            self.io_retries,
            self.io_faults_injected,
            self.checksum_failures
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_sum_agree() {
        let a = QueryStats {
            disk_reads: 3,
            buffer_hits: 2,
            disk_writes: 1,
            nodes_visited: 5,
            entries_scanned: 40,
            dedup_candidates: 7,
            results: 6,
            io_retries: 1,
            io_faults_injected: 2,
            checksum_failures: 1,
        };
        let b = QueryStats {
            disk_reads: 10,
            ..QueryStats::new()
        };
        let summed: QueryStats = [a, b].into_iter().sum();
        assert_eq!(summed, a + b);
        assert_eq!(summed.disk_reads, 13);
    }

    #[test]
    fn json_field_order_is_stable() {
        let s = QueryStats::new().to_json().render();
        let reads = s.find("disk_reads").unwrap();
        let hits = s.find("buffer_hits").unwrap();
        let results = s.find("results").unwrap();
        let retries = s.find("io_retries").unwrap();
        let failures = s.find("checksum_failures").unwrap();
        assert!(reads < hits && hits < results, "{s}");
        assert!(results < retries && retries < failures, "{s}");
    }

    #[test]
    fn fault_counters_merge_and_serialize() {
        let mut a = QueryStats::new();
        a.io_retries = 2;
        a.io_faults_injected = 3;
        a.checksum_failures = 1;
        let mut b = QueryStats::new();
        b.io_retries = 1;
        b.merge(&a);
        assert_eq!(b.io_retries, 3);
        assert_eq!(b.io_faults_injected, 3);
        assert_eq!(b.checksum_failures, 1);
        let rendered = a.to_json().render();
        assert!(rendered.contains("\"io_retries\":2"), "{rendered}");
        assert!(rendered.contains("\"io_faults_injected\":3"), "{rendered}");
        assert!(rendered.contains("\"checksum_failures\":1"), "{rendered}");
    }
}
