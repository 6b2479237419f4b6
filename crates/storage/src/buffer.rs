//! A small LRU buffer pool.

use std::collections::HashMap;

/// Residency key for the buffer pool.
///
/// Wider than [`crate::BufferKey`] on purpose: a pool shared by several
/// store versions (see `PageStore::share_buffer`) tags each store's
/// pages into a disjoint key range (`(tag << 32) | page`), so page 7 of
/// the latest tree and page 7 of the published tree are distinct
/// residents. A store that owns its pool privately uses the page id
/// verbatim.
pub type BufferKey = u64;

/// Largest capacity served by the plain-`Vec` scan implementation.
///
/// The paper's buffer is 10 pages, where a linear scan over a dense
/// `Vec` beats any pointer structure. `ablation_buffer` sweeps far past
/// that, and at hundreds of pages the O(capacity) scan per touch turns
/// quadratic-ish over a query batch — so larger capacities switch to an
/// index-arena linked list with a position map (O(1) per touch). The
/// two implementations are behaviorally identical; a test pins their
/// hit/miss/eviction sequences against each other across capacities.
const SCAN_MAX_CAPACITY: usize = 32;

/// Tracks which pages are resident in the buffer pool, with
/// least-recently-used eviction.
///
/// The buffer only tracks *residency* — page bytes live in the
/// [`crate::PageStore`]; the store consults the buffer to decide whether a
/// read hits the (free) buffer or costs a disk access.
#[derive(Debug, Clone)]
pub(crate) struct LruBuffer {
    capacity: usize,
    inner: Inner,
}

#[derive(Debug, Clone)]
enum Inner {
    /// Resident pages, most recently used first. O(capacity) per touch,
    /// fastest at the paper's tiny buffer sizes.
    Scan(Vec<BufferKey>),
    /// Doubly linked recency list over a slot arena plus a page→slot
    /// map. O(1) per touch, used above [`SCAN_MAX_CAPACITY`].
    Mapped(MappedLru),
}

impl LruBuffer {
    /// Create a buffer holding at most `capacity` pages. A capacity of 0
    /// disables buffering (every read is a disk access).
    pub fn new(capacity: usize) -> Self {
        let inner = if capacity <= SCAN_MAX_CAPACITY {
            Inner::Scan(Vec::with_capacity(capacity))
        } else {
            Inner::Mapped(MappedLru::new(capacity))
        };
        Self { capacity, inner }
    }

    /// Number of currently resident pages (tests).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Scan(v) => v.len(),
            Inner::Mapped(m) => m.map.len(),
        }
    }

    /// True when no pages are resident (tests).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `page` is resident (does not touch recency).
    pub fn contains(&self, page: BufferKey) -> bool {
        match &self.inner {
            Inner::Scan(v) => v.contains(&page),
            Inner::Mapped(m) => m.map.contains_key(&page),
        }
    }

    /// Record an access to `page`. Returns `true` on a buffer hit, `false`
    /// on a miss; on a miss the page becomes resident, evicting the least
    /// recently used page if the buffer is full.
    pub fn access(&mut self, page: BufferKey) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let capacity = self.capacity;
        match &mut self.inner {
            Inner::Scan(resident) => {
                if let Some(idx) = resident.iter().position(|&p| p == page) {
                    // Move to front.
                    let p = resident.remove(idx);
                    resident.insert(0, p);
                    true
                } else {
                    if resident.len() == capacity {
                        resident.pop();
                    }
                    resident.insert(0, page);
                    false
                }
            }
            Inner::Mapped(m) => m.access(page, capacity),
        }
    }

    /// Make `page` resident at the most-recent position without reporting
    /// hit/miss. This is the write path's entry point: residency after a
    /// write is a caching policy (write-through), not a read outcome, so
    /// there is no hit/miss to account for — see `PageStore::write`.
    pub fn install(&mut self, page: BufferKey) {
        self.access(page);
    }

    /// Drop a page from the buffer (e.g., when its content is rewritten
    /// from scratch and the caller wants the next read to count).
    pub fn invalidate(&mut self, page: BufferKey) {
        match &mut self.inner {
            Inner::Scan(v) => v.retain(|&p| p != page),
            Inner::Mapped(m) => m.invalidate(page),
        }
    }

    /// Empty the buffer. The paper resets the buffer before every query.
    pub fn clear(&mut self) {
        match &mut self.inner {
            Inner::Scan(v) => v.clear(),
            Inner::Mapped(m) => m.clear(),
        }
    }

    /// Resident pages, most recently used first (tests).
    #[cfg(test)]
    pub fn resident_mru(&self) -> Vec<BufferKey> {
        match &self.inner {
            Inner::Scan(v) => v.clone(),
            Inner::Mapped(m) => m.resident_mru(),
        }
    }

    /// Force the scan implementation regardless of capacity (tests).
    #[cfg(test)]
    fn new_scan(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Inner::Scan(Vec::with_capacity(capacity)),
        }
    }

    /// Force the mapped implementation regardless of capacity (tests).
    #[cfg(test)]
    fn new_mapped(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Inner::Mapped(MappedLru::new(capacity)),
        }
    }
}

/// One arena slot of the linked recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: BufferKey,
    prev: Option<usize>,
    next: Option<usize>,
}

/// O(1) LRU: `map` finds a page's slot, the slot links maintain recency
/// order (`head` = most recent, `tail` = eviction victim), and `free`
/// recycles slots so the arena never exceeds the capacity.
#[derive(Debug, Clone)]
struct MappedLru {
    slots: Vec<Slot>,
    map: HashMap<BufferKey, usize>,
    free: Vec<usize>,
    head: Option<usize>,
    tail: Option<usize>,
}

impl MappedLru {
    fn new(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            free: Vec::new(),
            head: None,
            tail: None,
        }
    }

    fn access(&mut self, page: BufferKey, capacity: usize) -> bool {
        if let Some(&slot) = self.map.get(&page) {
            if self.head != Some(slot) {
                self.unlink(slot);
                self.link_front(slot);
            }
            true
        } else {
            if self.map.len() == capacity {
                self.evict_tail();
            }
            let slot = if let Some(reused) = self.free.pop() {
                self.slots[reused].page = page;
                reused
            } else {
                self.slots.push(Slot {
                    page,
                    prev: None,
                    next: None,
                });
                self.slots.len() - 1
            };
            self.link_front(slot);
            self.map.insert(page, slot);
            false
        }
    }

    fn invalidate(&mut self, page: BufferKey) {
        if let Some(slot) = self.map.remove(&page) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.map.clear();
        self.free.clear();
        self.head = None;
        self.tail = None;
    }

    #[cfg(test)]
    fn resident_mru(&self) -> Vec<BufferKey> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while let Some(i) = cursor {
            out.push(self.slots[i].page);
            cursor = self.slots[i].next;
        }
        out
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            Some(p) => self.slots[p].next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slots[n].prev = prev,
            None => self.tail = prev,
        }
    }

    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = None;
        self.slots[slot].next = self.head;
        match self.head {
            Some(h) => self.slots[h].prev = Some(slot),
            None => self.tail = Some(slot),
        }
        self.head = Some(slot);
    }

    fn evict_tail(&mut self) {
        if let Some(victim) = self.tail {
            self.unlink(victim);
            self.map.remove(&self.slots[victim].page);
            self.free.push(victim);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut b = LruBuffer::new(2);
        assert!(!b.access(1));
        assert!(b.access(1));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.access(1);
        b.access(2);
        b.access(1); // 1 is now most recent
        b.access(3); // evicts 2
        assert!(b.contains(1));
        assert!(!b.contains(2));
        assert!(b.contains(3));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut b = LruBuffer::new(0);
        assert!(!b.access(5));
        assert!(!b.access(5));
        assert!(b.is_empty());
    }

    #[test]
    fn clear_and_invalidate() {
        let mut b = LruBuffer::new(4);
        b.access(1);
        b.access(2);
        b.invalidate(1);
        assert!(!b.contains(1));
        assert!(b.contains(2));
        b.clear();
        assert!(b.is_empty());
        assert!(!b.access(2));
    }

    #[test]
    fn repeated_access_is_single_slot() {
        let mut b = LruBuffer::new(3);
        for _ in 0..10 {
            b.access(7);
        }
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn lru_order_under_mixed_workload() {
        let mut b = LruBuffer::new(3);
        for p in [1, 2, 3, 4, 2, 5] {
            b.access(p);
        }
        // After: 4 inserted (evicts 1), 2 refreshed, 5 inserted (evicts 3).
        assert!(b.contains(5) && b.contains(2) && b.contains(4));
        assert!(!b.contains(1) && !b.contains(3));
    }

    #[test]
    fn large_capacity_selects_mapped_impl() {
        let b = LruBuffer::new(256);
        assert!(matches!(b.inner, Inner::Mapped(_)));
        let b = LruBuffer::new(10);
        assert!(matches!(b.inner, Inner::Scan(_)));
    }

    #[test]
    fn mapped_basic_semantics() {
        let mut b = LruBuffer::new_mapped(2);
        assert!(!b.access(1));
        assert!(b.access(1));
        b.access(2);
        b.access(1); // refresh
        assert!(!b.access(3)); // evicts 2
        assert!(!b.contains(2));
        assert_eq!(b.resident_mru(), vec![3, 1]);
        b.invalidate(3);
        assert_eq!(b.resident_mru(), vec![1]);
        b.clear();
        assert!(b.is_empty());
    }

    /// A deterministic xorshift generator — no dependency needed for a
    /// reproducible trace.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The satellite requirement: hit/miss/eviction sequences of the
    /// mapped implementation are byte-identical to the Vec scan across
    /// capacities 0, 1, 10, and 256.
    #[test]
    fn scan_and_mapped_are_byte_identical() {
        for capacity in [0usize, 1, 10, 256] {
            let mut scan = LruBuffer::new_scan(capacity);
            let mut mapped = LruBuffer::new_mapped(capacity);
            let mut rng = XorShift(0x5117_u64 + capacity as u64);
            // Page universe ~3× capacity keeps hits, misses, and
            // evictions all frequent.
            let universe = (3 * capacity.max(1)) as u64;
            for step in 0..4_000 {
                let roll = rng.next() % 100;
                let page = BufferKey::try_from(rng.next() % universe).unwrap();
                if roll < 80 {
                    assert_eq!(
                        scan.access(page),
                        mapped.access(page),
                        "access({page}) diverged at step {step}, capacity {capacity}"
                    );
                } else if roll < 90 {
                    scan.invalidate(page);
                    mapped.invalidate(page);
                } else if roll < 93 {
                    scan.clear();
                    mapped.clear();
                } else {
                    scan.install(page);
                    mapped.install(page);
                }
                assert_eq!(
                    scan.resident_mru(),
                    mapped.resident_mru(),
                    "residency order diverged at step {step}, capacity {capacity}"
                );
            }
        }
    }
}
