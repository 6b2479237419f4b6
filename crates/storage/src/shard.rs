//! Per-call read attribution and scratch reuse for the shared (`&self`)
//! read path. (The buffer pool itself is [`crate::buffer`]; its
//! counter tests live in this module's `tests`.)

use crate::lock::LeafMutex;

/// Per-call I/O attribution for the shared read path.
///
/// Under `&mut self` queries, per-query deltas could be computed by
/// snapshotting the store's global counters before and after — exclusive
/// access made the window race-free. Under concurrent `&self` readers
/// that subtraction would attribute other threads' I/O to this query, so
/// the store instead writes each read's cost directly into the probe the
/// caller passes down. Conservation (Σ probes == global counter delta)
/// then holds *by construction*: every counter increment lands in
/// exactly one probe and the matching global cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadProbe {
    /// Page fetches that missed the buffer pool.
    pub disk_reads: u64,
    /// Page fetches absorbed by the buffer pool.
    pub buffer_hits: u64,
    /// Attempts re-issued after a transient fault.
    pub io_retries: u64,
    /// Faults the backend injected inside this call's fetch windows.
    pub io_faults_injected: u64,
    /// Checksum verifications that failed inside this call.
    pub checksum_failures: u64,
}

impl ReadProbe {
    /// A zeroed probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold another probe's counts into this one.
    pub fn merge(&mut self, other: &ReadProbe) {
        self.disk_reads += other.disk_reads;
        self.buffer_hits += other.buffer_hits;
        self.io_retries += other.io_retries;
        self.io_faults_injected += other.io_faults_injected;
        self.checksum_failures += other.checksum_failures;
    }
}

/// A small free-list of reusable scratch values for `&self` query paths.
///
/// Trees used to own one scratch allocation and `mem::take` it per
/// query, which requires `&mut self`. The pool keeps that allocation
/// reuse for sequential callers (take → use → put returns the same
/// value) while letting concurrent callers each take their own; a burst
/// of N threads simply materializes up to N scratch values, retained up
/// to [`ScratchPool::MAX_POOLED`] for reuse.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    pool: LeafMutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// Retained values beyond this are dropped on `put`.
    pub const MAX_POOLED: usize = 64;

    /// An empty pool.
    pub fn new() -> Self {
        Self {
            pool: LeafMutex::new(Vec::new()),
        }
    }

    /// Pop a pooled value, or default-construct a fresh one.
    pub fn take(&self) -> T {
        self.pool.lock().pop().unwrap_or_default()
    }

    /// Return a value (its internal buffers' capacity) to the pool.
    pub fn put(&self, value: T) {
        let mut pool = self.pool.lock();
        if pool.len() < Self::MAX_POOLED {
            pool.push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{BufferCounters, BufferPool};
    use crate::PageId;

    /// Replay `trace` through the pool, returning the hit/miss outcome
    /// of each access.
    fn replay(buf: &BufferPool, trace: &[PageId]) -> Vec<bool> {
        trace.iter().map(|&p| buf.access(p)).collect()
    }

    #[test]
    fn zero_capacity_never_hits_and_counts_every_miss() {
        let buf = BufferPool::new(0);
        assert!(!replay(&buf, &[1, 1, 2, 1]).iter().any(|&h| h));
        assert_eq!(
            buf.counters(),
            BufferCounters { hits: 0, misses: 4 },
            "capacity 0 still accounts disk traffic"
        );
        assert!(buf.get(1).is_none());
        assert!(!buf.resident(1));
    }

    #[test]
    fn capacity_one_holds_exactly_the_last_page() {
        let buf = BufferPool::new(1);
        assert_eq!(replay(&buf, &[5, 5, 6, 5]), [false, true, false, false]);
        assert_eq!(buf.counters(), BufferCounters { hits: 1, misses: 3 });
    }

    #[test]
    fn single_shard_matches_raw_lru_hit_for_hit() {
        // The pool must be bit-identical to one global residency-only
        // LRU on any access trace.
        let mut xs = crate::buffer::tests::XorShift(0x1234_5678);
        // xorshift so the trace mixes hot and cold pages.
        let trace: Vec<PageId> = (0..400).map(|_| (xs.next() % 23) as PageId).collect();
        for capacity in [0usize, 1, 2, 7, 10, 32, 64] {
            let pool = BufferPool::new(capacity);
            let mut raw = crate::buffer::tests::VecLru::new(capacity);
            for &p in &trace {
                assert_eq!(
                    pool.access(p),
                    raw.access(p),
                    "capacity {capacity}, page {p}: the pool diverged from the model"
                );
            }
            assert_eq!(
                pool.counters().hits + pool.counters().misses,
                trace.len() as u64
            );
        }
    }

    #[test]
    fn touch_if_resident_counts_hits_only() {
        let buf = BufferPool::new(2);
        assert!(buf.get(9).is_none(), "miss leaves counters untouched");
        assert_eq!(buf.counters(), BufferCounters::default());
        buf.access(9); // miss, installs
        assert!(buf.get(9).is_some());
        assert_eq!(buf.counters(), BufferCounters { hits: 1, misses: 1 });
    }

    #[test]
    fn install_and_invalidate_move_no_counters() {
        let buf = BufferPool::new(2);
        buf.install(3, buf.blank(), false);
        assert!(buf.resident(3));
        buf.invalidate(3);
        assert!(!buf.resident(3));
        assert_eq!(buf.counters(), BufferCounters::default());
    }

    #[test]
    fn clear_preserves_counters_and_empties_residency() {
        let buf = BufferPool::new(8);
        for p in 0..8 {
            buf.access(p);
        }
        let before = buf.counters();
        buf.clear();
        assert_eq!(buf.counters(), before);
        assert!((0..8).all(|p| !buf.resident(p)));
    }

    #[test]
    fn reconfiguration_preserves_counters() {
        let mut buf = BufferPool::new(4);
        for p in [1, 1, 2, 3] {
            buf.access(p);
        }
        let counted = buf.counters();
        buf.set_capacity(10);
        assert_eq!(buf.counters(), counted, "a new capacity keeps counters");
        assert!(!buf.resident(1), "reconfiguring clears residency");
        for p in 0..10 {
            buf.access(p);
        }
        assert!((0..10).all(|p| buf.resident(p)), "ten pages fit");
    }

    #[test]
    fn probe_merge_accumulates_every_field() {
        let mut a = ReadProbe {
            disk_reads: 1,
            buffer_hits: 2,
            io_retries: 3,
            io_faults_injected: 4,
            checksum_failures: 5,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            ReadProbe {
                disk_reads: 2,
                buffer_hits: 4,
                io_retries: 6,
                io_faults_injected: 8,
                checksum_failures: 10,
            }
        );
    }

    #[test]
    fn scratch_pool_reuses_returned_values() {
        let pool: ScratchPool<Vec<u32>> = ScratchPool::new();
        let mut v = pool.take();
        assert!(v.is_empty());
        v.reserve(100);
        let had = v.capacity();
        v.push(7);
        v.clear();
        pool.put(v);
        let again = pool.take();
        assert!(again.is_empty());
        assert!(again.capacity() >= had, "allocation was recycled");
    }
}
