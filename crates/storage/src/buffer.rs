//! The buffer pool: one LRU list that owns its page frames.
//!
//! [`BufferPool`] is a single global LRU behind one mutex, the
//! configuration the paper measures. Every resident key owns the bytes
//! of its page (a *frame*, a [`Page`] materialised when the key is first
//! installed), so the pool capacity is what bounds a store's memory. A
//! hit hands the caller a *pin* — a clone of the frame, which shares its
//! bytes by reference count, taken under the pool lock — and the caller
//! reads the bytes outside every lock; a pinned frame that is evicted or
//! rewritten meanwhile is simply replaced in its slot, never mutated, so
//! pins need no bookkeeping and eviction never looks at them.
//!
//! One lock is enough because nothing slow runs under it: readers
//! serialize only for the O(1) LRU bookkeeping, and a miss fetches its
//! page outside the lock (see `PageStore::read`), so concurrent misses
//! still overlap.
//!
//! Hit/miss counters live *inside* the pool, under the same lock as the
//! residency they describe, so the global [`crate::IoStats`] is a pure
//! function of pool state — there is no second copy that a test hook or
//! reset path could desync (see DESIGN.md §6, "Concurrency model").

use crate::lock::LeafMutex;
use crate::{Page, PageId};
use std::collections::HashMap;

/// The pool's hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferCounters {
    /// Accesses absorbed by the LRU.
    pub hits: u64,
    /// Accesses that missed and were installed (disk reads).
    pub misses: u64,
}

/// The pool's state: an LRU list over an arena of frame-owning slots.
///
/// O(1) per touch at any capacity: `map` finds a key's slot, the slot
/// links maintain recency order (`head` = most recent, `tail` = eviction
/// victim), and `free` recycles slots so the arena never exceeds the
/// capacity.
#[derive(Debug, Clone, Default)]
struct Lru {
    capacity: usize,
    slots: Vec<Slot>,
    map: HashMap<PageId, usize>,
    free: Vec<usize>,
    head: Option<usize>,
    tail: Option<usize>,
    /// The last evicted frame nobody else holds: the next install fills
    /// it instead of allocating.
    spare: Option<Page>,
    hits: u64,
    misses: u64,
}

/// One arena slot of the linked recency list.
#[derive(Debug, Clone)]
struct Slot {
    key: PageId,
    /// `None` only while the slot sits on the free list.
    frame: Option<Page>,
    prev: Option<usize>,
    next: Option<usize>,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// The slot at arena index `i`.
    fn slot(&mut self, i: usize) -> &mut Slot {
        // Indices come only from `map`, `free`, `head`/`tail` and the
        // slots' own links, which all hold indices of pushed slots.
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

    /// Move a resident slot to the most-recent position.
    fn promote(&mut self, slot: usize) {
        if self.head != Some(slot) {
            self.unlink(slot);
            self.link_front(slot);
        }
    }

    /// Keep a frame that left its slot as the spare, unless a pin still
    /// holds it.
    fn recycle(&mut self, mut frame: Option<Page>) {
        if frame.as_mut().is_some_and(Page::is_unshared) {
            self.spare = frame;
        }
    }

    /// Unlink `slot`, forget its key and recycle both it and its frame.
    fn release(&mut self, slot: usize) {
        self.unlink(slot);
        let Slot { key, frame, .. } = self.slot(slot);
        let (key, frame) = (*key, frame.take());
        self.map.remove(&key);
        self.free.push(slot);
        self.recycle(frame);
    }

    /// Forget every key and drop every frame; counters stay.
    fn clear(&mut self) {
        self.slots.clear();
        self.map.clear();
        self.free.clear();
        self.head = None;
        self.tail = None;
        self.spare = None;
    }

    /// Make `frame` the bytes of `key` at the most-recent position,
    /// evicting the least recently used key if the pool is full.
    /// Returns whether `key` was already resident.
    fn install(&mut self, key: PageId, frame: Page) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            self.promote(slot);
            let old = self.slot(slot).frame.replace(frame);
            self.recycle(old);
            return true;
        }
        if self.capacity == 0 {
            return false;
        }
        if self.map.len() == self.capacity {
            if let Some(victim) = self.tail {
                self.release(victim);
            }
        }
        let fresh = Slot {
            key,
            frame: Some(frame),
            prev: None,
            next: None,
        };
        let slot = match self.free.pop() {
            Some(reused) => {
                *self.slot(reused) = fresh;
                reused
            }
            None => {
                self.slots.push(fresh);
                self.slots.len() - 1
            }
        };
        self.link_front(slot);
        self.map.insert(key, slot);
        false
    }
}

/// A frame-owning LRU buffer pool shared by concurrent readers: one
/// global LRU behind one lock, as the paper measures.
///
/// Frames are materialised on install, never `capacity` of them up
/// front: a pool sized to hold a whole tree costs what was actually
/// read.
#[derive(Debug)]
pub struct BufferPool {
    lru: LeafMutex<Lru>,
}

impl BufferPool {
    /// An empty pool of `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: LeafMutex::new(Lru::new(capacity)),
        }
    }

    /// Pin `page`'s frame if it is resident: counts a buffer hit and
    /// refreshes recency. Returns `None` *without counting anything* on
    /// a miss, so the caller can fall through to the fetch path (which
    /// accounts the miss when it installs the fetched frame).
    pub fn get(&self, page: PageId) -> Option<Page> {
        let mut lru = self.lru.lock();
        let slot = *lru.map.get(&page)?;
        lru.promote(slot);
        lru.hits += 1;
        lru.slot(slot).frame.clone()
    }

    /// A frame nobody else holds, for the caller to fill and install:
    /// the pool's last evicted frame if it kept one, a fresh allocation
    /// otherwise. Its content is unspecified.
    pub fn blank(&self) -> Page {
        let spare = self.lru.lock().spare.take();
        spare.unwrap_or_else(Page::zeroed)
    }

    /// Make `frame` the resident bytes of `page` at the most-recent
    /// position, evicting the least recently used page. A frame `page`
    /// already had is replaced, never written through, so pins taken
    /// earlier keep reading what they pinned.
    ///
    /// `fetched` says whether this is the outcome of a read: then it is
    /// counted — a miss, or a hit when another reader installed `page`
    /// while this one was fetching — and the return value says which. A
    /// write-through install (`fetched == false`) is a caching side
    /// effect and moves no counter (see `PageStore::write`).
    ///
    /// Crate-private: `PageStore` checks a frame against its owner's
    /// validator before it calls this, and nothing else may put bytes
    /// in a store's pool.
    pub(crate) fn install(&self, page: PageId, frame: Page, fetched: bool) -> bool {
        let mut lru = self.lru.lock();
        let hit = lru.install(page, frame);
        if fetched && hit {
            lru.hits += 1;
        } else if fetched {
            lru.misses += 1;
        }
        hit
    }

    /// Drop `page` and its frame if resident (no counter movement).
    pub fn invalidate(&self, page: PageId) {
        let mut lru = self.lru.lock();
        if let Some(&slot) = lru.map.get(&page) {
            lru.release(slot);
        }
    }

    /// `page`'s frame if it is resident, with no counter or recency
    /// movement.
    pub fn peek(&self, page: PageId) -> Option<Page> {
        let mut lru = self.lru.lock();
        let slot = *lru.map.get(&page)?;
        lru.slot(slot).frame.clone()
    }

    /// Whether `page` is currently resident (no counter movement).
    pub fn resident(&self, page: PageId) -> bool {
        self.peek(page).is_some()
    }

    /// How many pages are resident, counted in one look under the pool
    /// lock (no counter movement).
    pub fn resident_pages(&self) -> usize {
        self.lru.lock().map.len()
    }

    /// Empty the pool, frames included. Counters are preserved:
    /// clearing the pool is a cache event, not an accounting reset.
    pub fn clear(&self) {
        self.lru.lock().clear();
    }

    /// The pool's hit/miss counters.
    pub fn counters(&self) -> BufferCounters {
        let lru = self.lru.lock();
        BufferCounters {
            hits: lru.hits,
            misses: lru.misses,
        }
    }

    /// Zero the hit/miss counters (residency untouched).
    pub fn reset_counters(&self) {
        let mut lru = self.lru.lock();
        (lru.hits, lru.misses) = (0, 0);
    }

    /// Replace the capacity, clearing residency but preserving the
    /// counters, so conservation sums keep holding across it.
    pub fn set_capacity(&mut self, capacity: usize) {
        let lru = self.lru.get_mut();
        lru.clear();
        lru.capacity = capacity;
    }

    /// Frames the pool holds right now, the spare included (tests).
    #[cfg(test)]
    pub(crate) fn frames(&self) -> usize {
        let lru = self.lru.lock();
        let resident = lru.slots.iter().filter(|slot| slot.frame.is_some());
        resident.count() + usize::from(lru.spare.is_some())
    }

    /// A read of `page` with no bytes behind it: a hit, or a miss that
    /// installs an empty frame. Returns whether it hit (tests).
    #[cfg(test)]
    pub(crate) fn access(&self, page: PageId) -> bool {
        self.get(page).is_some() || self.install(page, self.blank(), true)
    }
}

impl Clone for BufferPool {
    /// A copy of the residency list; the frames themselves are shared
    /// until either side replaces one. The spare is not carried over: a
    /// spare is a frame nobody else holds, which a shared one is not.
    fn clone(&self) -> Self {
        let mut copy = self.lru.lock().clone();
        copy.spare = None;
        Self {
            lru: LeafMutex::new(copy),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Resident keys, most recently used first.
    fn resident_mru(b: &BufferPool) -> Vec<PageId> {
        let lru = b.lru.lock();
        let mut out = Vec::new();
        let mut cursor = lru.head;
        while let Some(i) = cursor {
            out.push(lru.slots[i].key);
            cursor = lru.slots[i].next;
        }
        assert_eq!(out.len(), lru.map.len(), "list and map agree");
        out
    }

    #[test]
    fn hit_after_miss() {
        let b = BufferPool::new(2);
        assert!(!b.access(1));
        assert!(b.access(1));
        assert_eq!(resident_mru(&b).len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let b = BufferPool::new(2);
        b.access(1);
        b.access(2);
        b.access(1); // 1 is now most recent
        b.access(3); // evicts 2
        assert!(b.resident(1));
        assert!(!b.resident(2));
        assert!(b.resident(3));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let b = BufferPool::new(0);
        assert!(!b.access(5));
        assert!(!b.access(5));
        assert!(resident_mru(&b).is_empty());
        assert_eq!(b.frames(), 0, "nothing resident, nothing held");
    }

    #[test]
    fn clear_and_invalidate() {
        let b = BufferPool::new(4);
        b.access(1);
        b.access(2);
        b.invalidate(1);
        assert!(!b.resident(1));
        assert!(b.resident(2));
        b.clear();
        assert!(resident_mru(&b).is_empty());
        assert_eq!(b.frames(), 0, "clearing drops the frames too");
        assert!(!b.access(2));
    }

    #[test]
    fn repeated_access_is_single_slot() {
        let b = BufferPool::new(3);
        for _ in 0..10 {
            b.access(7);
        }
        assert_eq!(resident_mru(&b).len(), 1);
        assert_eq!(b.frames(), 1, "frames follow installs, not capacity");
    }

    #[test]
    fn lru_order_under_mixed_workload() {
        let b = BufferPool::new(3);
        for p in [1, 2, 3, 4, 2, 5] {
            b.access(p);
        }
        // After: 4 inserted (evicts 1), 2 refreshed, 5 inserted (evicts 3).
        assert!(b.resident(5) && b.resident(2) && b.resident(4));
        assert!(!b.resident(1) && !b.resident(3));
    }

    #[test]
    fn mapped_basic_semantics() {
        let b = BufferPool::new(2);
        assert!(!b.access(1));
        assert!(b.access(1));
        b.access(2);
        b.access(1); // refresh
        assert!(!b.access(3)); // evicts 2
        assert!(!b.resident(2));
        assert_eq!(resident_mru(&b), vec![3, 1]);
        b.invalidate(3);
        assert_eq!(resident_mru(&b), vec![1]);
        b.clear();
        assert!(resident_mru(&b).is_empty());
    }

    /// A pin outlives eviction and rewrite of its key with the bytes it
    /// pinned, and an unpinned victim's allocation is the next frame.
    #[test]
    fn pins_are_stable_and_unpinned_victims_are_recycled() {
        let fill = |b: &BufferPool, key: PageId, byte: u8| {
            let mut frame = b.blank();
            frame.bytes_mut().fill(byte);
            b.install(key, frame, false);
        };
        let b = BufferPool::new(1);
        fill(&b, 1, 0xaa);
        let pin = b.get(1).unwrap();
        fill(&b, 1, 0xbb); // rewrite under the pin
        fill(&b, 2, 0xcc); // evict under the pin
        assert!(pin.bytes().iter().all(|&x| x == 0xaa));
        assert_eq!(b.get(2).unwrap().bytes()[0], 0xcc);
        assert_eq!(b.frames(), 2, "the 0xbb frame was unpinned: kept as spare");
        let before = b.frames();
        fill(&b, 3, 0xdd); // evicts 2 into the spare it just consumed
        assert_eq!(b.frames(), before, "steady state allocates nothing");
    }

    /// A deterministic xorshift generator — no dependency needed for a
    /// reproducible trace.
    pub(crate) struct XorShift(pub u64);
    impl XorShift {
        pub fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The reference model: resident pages in a `Vec`, most recently
    /// used first, O(capacity) per touch, no bytes.
    pub(crate) struct VecLru {
        pub capacity: usize,
        pub resident: Vec<PageId>,
    }

    impl VecLru {
        pub fn new(capacity: usize) -> Self {
            Self {
                capacity,
                resident: Vec::new(),
            }
        }

        pub fn access(&mut self, page: PageId) -> bool {
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

    /// Hit/miss/eviction sequences of the frame-owning arena list are
    /// identical to the residency-only Vec model across capacities 0,
    /// 1, 10, and 256.
    #[test]
    fn scan_and_mapped_are_byte_identical() {
        for capacity in [0usize, 1, 10, 256] {
            let mut scan = VecLru::new(capacity);
            let mapped = BufferPool::new(capacity);
            let mut rng = XorShift(0x5117_u64 + capacity as u64);
            // Page universe ~3× capacity keeps hits, misses, and
            // evictions all frequent.
            let universe = (3 * capacity.max(1)) as u64;
            for step in 0..4_000 {
                let roll = rng.next() % 100;
                let page = (rng.next() % universe) as PageId;
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
                    mapped.install(page, mapped.blank(), false);
                }
                assert_eq!(
                    scan.resident,
                    resident_mru(&mapped),
                    "residency order diverged at step {step}, capacity {capacity}"
                );
                assert!(mapped.frames() <= capacity + 1, "at most one spare");
            }
        }
    }
}
