//! The buffer pool: lock-striped LRU shards that own their page frames.
//!
//! [`ShardedBuffer`] is N independent shards, each behind its own
//! mutex, with pages routed to shards by a multiplicative hash of the
//! page id. Every resident key owns the bytes of its page (a *frame*,
//! a [`Page`] materialised when the key is first installed), so the
//! pool capacity is what bounds a store's memory. A hit hands the caller
//! a *pin* — a clone of the frame, which shares its bytes by reference
//! count, taken under the shard lock — and the caller reads the bytes
//! outside every lock; a pinned frame that is evicted or rewritten
//! meanwhile is simply replaced in its slot, never mutated, so pins
//! need no bookkeeping and eviction never looks at them.
//!
//! Concurrent readers touching different shards never contend; readers
//! on the same shard serialize only for the O(1) LRU bookkeeping. LRU is
//! the only eviction policy: it is what the paper measures, and with one
//! shard (the default) the pool is a single global LRU, which keeps the
//! paper's sequential figures byte-identical.
//!
//! Hit/miss counters live *inside* the shards and are summed on demand,
//! so the global [`crate::IoStats`] is a pure function of per-shard
//! state — there is no second copy that a test hook or reset path could
//! desync (see DESIGN.md §6, "Concurrency model").

use crate::lock::{LeafGuard, LeafMutex};
use crate::{Page, PageId};
use std::collections::HashMap;

/// Merged hit/miss counters across every shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferCounters {
    /// Accesses absorbed by some shard's LRU.
    pub hits: u64,
    /// Accesses that missed and were installed (disk reads).
    pub misses: u64,
}

/// One lock stripe: an LRU list over an arena of frame-owning slots.
///
/// O(1) per touch at any capacity: `map` finds a key's slot, the slot
/// links maintain recency order (`head` = most recent, `tail` = eviction
/// victim), and `free` recycles slots so the arena never exceeds the
/// capacity.
#[derive(Debug, Clone, Default)]
struct Shard {
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

impl Shard {
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
    /// evicting the least recently used key if the shard is full.
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

/// A lock-striped, frame-owning LRU buffer pool shared by concurrent
/// readers.
///
/// The total capacity is split as evenly as possible across shards
/// (the first `capacity % shards` shards get one extra page). Per-shard
/// LRU is *not* global LRU: a hot page in one shard cannot evict a cold
/// page in another. That skew is bounded by the shard count and is the
/// price of lock striping; the paper's measured configuration uses one
/// shard, where per-shard LRU *is* global LRU.
///
/// Frames are materialised on install, never `capacity` of them up
/// front: a pool sized to hold a whole tree costs what was actually
/// read.
#[derive(Debug)]
pub struct ShardedBuffer {
    shards: Vec<LeafMutex<Shard>>,
    capacity: usize,
}

impl ShardedBuffer {
    /// A single-shard pool: one global LRU.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// A pool of `shards` independent stripes sharing `capacity` pages.
    /// A shard count of zero is treated as one.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1);
        let shards = (0..n)
            .map(|i| LeafMutex::new(Shard::new(Self::shard_capacity(capacity, n, i))))
            .collect();
        Self { shards, capacity }
    }

    /// Pages granted to shard `i` out of `n` sharing `capacity`.
    pub(crate) fn shard_capacity(capacity: usize, n: usize, i: usize) -> usize {
        capacity / n + usize::from(i < capacity % n)
    }

    /// Total pool capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a page id routes to (stable for a given shard count).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the remainder is below `shards.len()`, itself a usize"
    )]
    pub fn shard_of(&self, page: PageId) -> usize {
        // Fibonacci multiplicative hash: consecutive page ids (the common
        // allocation pattern) spread across shards instead of clustering.
        let h = u64::from(page).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (h % self.shards.len() as u64) as usize
    }

    fn shard(&self, page: PageId) -> LeafGuard<'_, Shard> {
        // `shard_of` reduces modulo `shards.len()`, and `with_shards`
        // builds at least one shard.
        self.shards[self.shard_of(page)].lock()
    }

    fn each_shard(&self, mut f: impl FnMut(&mut Shard)) {
        for shard in &self.shards {
            f(&mut shard.lock());
        }
    }

    /// Pin `page`'s frame if it is resident: counts a buffer hit and
    /// refreshes recency. Returns `None` *without counting anything* on
    /// a miss, so the caller can fall through to the fetch path (which
    /// accounts the miss when it installs the fetched frame).
    pub fn get(&self, page: PageId) -> Option<Page> {
        let mut shard = self.shard(page);
        let slot = *shard.map.get(&page)?;
        shard.promote(slot);
        shard.hits += 1;
        shard.slot(slot).frame.clone()
    }

    /// A frame nobody else holds, for the caller to fill and install as
    /// `page`'s bytes: `page`'s shard's last evicted frame
    /// if it kept one, a fresh allocation otherwise. Its content is
    /// unspecified.
    pub fn blank(&self, page: PageId) -> Page {
        let spare = self.shard(page).spare.take();
        spare.unwrap_or_else(Page::zeroed)
    }

    /// Make `frame` the resident bytes of `page` at the most-recent
    /// position, evicting within the shard. A frame `page` already had
    /// is replaced, never written through, so pins taken earlier keep
    /// reading what they pinned.
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
        let mut shard = self.shard(page);
        let hit = shard.install(page, frame);
        if fetched && hit {
            shard.hits += 1;
        } else if fetched {
            shard.misses += 1;
        }
        hit
    }

    /// Drop `page` and its frame from its shard if resident (no counter
    /// movement).
    pub fn invalidate(&self, page: PageId) {
        let mut shard = self.shard(page);
        if let Some(&slot) = shard.map.get(&page) {
            shard.release(slot);
        }
    }

    /// `page`'s frame if it is resident, with no counter or recency
    /// movement.
    pub fn peek(&self, page: PageId) -> Option<Page> {
        let mut shard = self.shard(page);
        let slot = *shard.map.get(&page)?;
        shard.slot(slot).frame.clone()
    }

    /// Whether `page` is currently resident (no counter movement).
    pub fn resident(&self, page: PageId) -> bool {
        self.peek(page).is_some()
    }

    /// Empty every shard, frames included. Counters are preserved:
    /// clearing the pool is a cache event, not an accounting reset.
    pub fn clear(&self) {
        self.each_shard(Shard::clear);
    }

    /// Sum of every shard's hit/miss counters.
    pub fn counters(&self) -> BufferCounters {
        let mut out = BufferCounters::default();
        self.each_shard(|s| {
            out.hits += s.hits;
            out.misses += s.misses;
        });
        out
    }

    /// Zero every shard's hit/miss counters (residency untouched).
    pub fn reset_counters(&self) {
        self.each_shard(|s| (s.hits, s.misses) = (0, 0));
    }

    /// Replace the capacity and shard count, clearing residency but
    /// preserving the merged counters (folded into the first shard so
    /// conservation sums keep holding across reconfiguration).
    pub fn reconfigure(&mut self, capacity: usize, shards: usize) {
        let carried = self.counters();
        *self = Self::with_shards(capacity, shards);
        if let Some(first) = self.shards.first_mut() {
            let s = first.get_mut();
            (s.hits, s.misses) = (carried.hits, carried.misses);
        }
    }

    /// Frames the pool holds right now, spares included (tests).
    #[cfg(test)]
    pub(crate) fn frames(&self) -> usize {
        let mut n = 0;
        self.each_shard(|s| {
            n += s.slots.iter().filter(|slot| slot.frame.is_some()).count();
            n += usize::from(s.spare.is_some());
        });
        n
    }

    /// A read of `page` with no bytes behind it: a hit, or a miss that
    /// installs an empty frame. Returns whether it hit (tests).
    #[cfg(test)]
    pub(crate) fn access(&self, page: PageId) -> bool {
        self.get(page).is_some() || self.install(page, self.blank(page), true)
    }
}

impl Clone for ShardedBuffer {
    /// A copy of the residency lists; the frames themselves are shared
    /// until either side replaces one. Spares are not carried over: a
    /// spare is a frame nobody else holds, which a shared one is not.
    fn clone(&self) -> Self {
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let mut copy = s.lock().clone();
                copy.spare = None;
                LeafMutex::new(copy)
            })
            .collect();
        Self {
            shards,
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Resident keys of a single-shard pool, most recently used first.
    fn resident_mru(b: &ShardedBuffer) -> Vec<PageId> {
        let mut out = Vec::new();
        b.each_shard(|s| {
            let mut cursor = s.head;
            while let Some(i) = cursor {
                out.push(s.slots[i].key);
                cursor = s.slots[i].next;
            }
            assert_eq!(out.len(), s.map.len(), "list and map agree");
        });
        out
    }

    #[test]
    fn hit_after_miss() {
        let b = ShardedBuffer::new(2);
        assert!(!b.access(1));
        assert!(b.access(1));
        assert_eq!(resident_mru(&b).len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let b = ShardedBuffer::new(2);
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
        let b = ShardedBuffer::new(0);
        assert!(!b.access(5));
        assert!(!b.access(5));
        assert!(resident_mru(&b).is_empty());
        assert_eq!(b.frames(), 0, "nothing resident, nothing held");
    }

    #[test]
    fn clear_and_invalidate() {
        let b = ShardedBuffer::new(4);
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
        let b = ShardedBuffer::new(3);
        for _ in 0..10 {
            b.access(7);
        }
        assert_eq!(resident_mru(&b).len(), 1);
        assert_eq!(b.frames(), 1, "frames follow installs, not capacity");
    }

    #[test]
    fn lru_order_under_mixed_workload() {
        let b = ShardedBuffer::new(3);
        for p in [1, 2, 3, 4, 2, 5] {
            b.access(p);
        }
        // After: 4 inserted (evicts 1), 2 refreshed, 5 inserted (evicts 3).
        assert!(b.resident(5) && b.resident(2) && b.resident(4));
        assert!(!b.resident(1) && !b.resident(3));
    }

    #[test]
    fn mapped_basic_semantics() {
        let b = ShardedBuffer::new(2);
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
        let fill = |b: &ShardedBuffer, key: PageId, byte: u8| {
            let mut frame = b.blank(key);
            frame.bytes_mut().fill(byte);
            b.install(key, frame, false);
        };
        let b = ShardedBuffer::new(1);
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
            let mut scan = VecLru {
                capacity,
                resident: Vec::new(),
            };
            let mapped = ShardedBuffer::new(capacity);
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
                    mapped.install(page, mapped.blank(page), false);
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
