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

/// Tracks which pages are resident in the buffer pool, with
/// least-recently-used eviction.
///
/// The buffer only tracks *residency* — page bytes live in the
/// [`crate::PageStore`]; the store consults the buffer to decide whether a
/// read hits the (free) buffer or costs a disk access.
///
/// O(1) per touch at any capacity: `map` finds a page's slot, the slot
/// links maintain recency order (`head` = most recent, `tail` = eviction
/// victim), and `free` recycles slots so the arena never exceeds the
/// capacity.
#[derive(Debug, Clone)]
pub(crate) struct LruBuffer {
    capacity: usize,
    slots: Vec<Slot>,
    map: HashMap<BufferKey, usize>,
    free: Vec<usize>,
    head: Option<usize>,
    tail: Option<usize>,
}

/// One arena slot of the linked recency list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: BufferKey,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruBuffer {
    /// Create a buffer holding at most `capacity` pages. A capacity of 0
    /// disables buffering (every read is a disk access).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            slots: Vec::with_capacity(capacity),
            map: HashMap::with_capacity(capacity),
            free: Vec::new(),
            head: None,
            tail: None,
        }
    }

    /// Number of currently resident pages (tests).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pages are resident (tests).
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if `page` is resident (does not touch recency).
    pub fn contains(&self, page: BufferKey) -> bool {
        self.map.contains_key(&page)
    }

    /// Record an access to `page`. Returns `true` on a buffer hit, `false`
    /// on a miss; on a miss the page becomes resident, evicting the least
    /// recently used page if the buffer is full.
    pub fn access(&mut self, page: BufferKey) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&slot) = self.map.get(&page) {
            if self.head != Some(slot) {
                self.unlink(slot);
                self.link_front(slot);
            }
            return true;
        }
        if self.map.len() == self.capacity {
            self.evict_tail();
        }
        let slot = if let Some(reused) = self.free.pop() {
            self.slot(reused).page = page;
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
        if let Some(slot) = self.map.remove(&page) {
            self.unlink(slot);
            self.free.push(slot);
        }
    }

    /// Empty the buffer. The paper resets the buffer before every query.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.map.clear();
        self.free.clear();
        self.head = None;
        self.tail = None;
    }

    /// Resident pages, most recently used first (tests).
    #[cfg(test)]
    pub fn resident_mru(&self) -> Vec<BufferKey> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while let Some(i) = cursor {
            out.push(self.slots[i].page);
            cursor = self.slots[i].next;
        }
        out
    }

    /// The slot at arena index `i`.
    fn slot(&mut self, i: usize) -> &mut Slot {
        // stilint::allow(panic_path, "indices come only from `map`, `free`, `head`/`tail` and the slots' own links, which all hold indices of pushed slots")
        &mut self.slots[i]
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = *self.slot(slot);
        match prev {
            Some(p) => self.slot(p).next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.slot(n).prev = prev,
            None => self.tail = prev,
        }
    }

    fn link_front(&mut self, slot: usize) {
        let head = self.head;
        let linked = self.slot(slot);
        linked.prev = None;
        linked.next = head;
        match head {
            Some(h) => self.slot(h).prev = Some(slot),
            None => self.tail = Some(slot),
        }
        self.head = Some(slot);
    }

    fn evict_tail(&mut self) {
        if let Some(victim) = self.tail {
            self.unlink(victim);
            let page = self.slot(victim).page;
            self.map.remove(&page);
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
    fn mapped_basic_semantics() {
        let mut b = LruBuffer::new(2);
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

    /// The reference model: resident pages in a `Vec`, most recently
    /// used first, O(capacity) per touch.
    struct VecLru {
        capacity: usize,
        resident: Vec<BufferKey>,
    }

    impl VecLru {
        fn access(&mut self, page: BufferKey) -> bool {
            if self.capacity == 0 {
                return false;
            }
            let hit = self.resident.contains(&page);
            self.resident.retain(|&p| p != page);
            self.resident.truncate(self.capacity - 1);
            self.resident.insert(0, page);
            hit
        }
    }

    /// Hit/miss/eviction sequences of the arena list are identical to
    /// the Vec model across capacities 0, 1, 10, and 256.
    #[test]
    fn scan_and_mapped_are_byte_identical() {
        for capacity in [0usize, 1, 10, 256] {
            let mut scan = VecLru {
                capacity,
                resident: Vec::new(),
            };
            let mut mapped = LruBuffer::new(capacity);
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
                    scan.resident.retain(|&p| p != page);
                    mapped.invalidate(page);
                } else if roll < 93 {
                    scan.resident.clear();
                    mapped.clear();
                } else {
                    scan.access(page);
                    mapped.install(page);
                }
                assert_eq!(
                    scan.resident,
                    mapped.resident_mru(),
                    "residency order diverged at step {step}, capacity {capacity}"
                );
            }
        }
    }
}
