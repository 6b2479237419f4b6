//! Deterministic fault injection for the storage layer.
//!
//! A [`FaultyBackend`] wraps any [`PageBackend`] and injects failures
//! scheduled by a [`FaultPlan`]: error-on-Nth-operation (permanent or
//! transient), torn (partial) writes, and bit flips. Plans are plain
//! data — seeded generation, and a journal of what actually fired — so
//! every failure is a reproducible test case:
//!
//! ```
//! use sti_storage::fault::{FaultPlan, FaultyBackend};
//! use sti_storage::PageStore;
//!
//! let plan = FaultPlan::seeded(42, 100, 3);
//! let mut store = PageStore::with_backend(Box::new(FaultyBackend::new_mem(plan)), 10);
//! // ... run a workload; the same seed replays the same faults.
//! # let _ = store.allocate();
//! ```
//!
//! Fault semantics (the failure model in DESIGN.md §6):
//!
//! * `Fail { transient: true }` — the operation errors once; a retry of
//!   the same operation succeeds (unless another fault is scheduled).
//! * `Fail { transient: false }` — the operation errors; retrying is
//!   useless and the [`crate::PageStore`] retry loop will not.
//! * `TornWrite` — only a prefix of the payload reaches the page before
//!   the operation errors (permanently): the on-"disk" bytes are now a
//!   mix of old zero-padding and new prefix, exactly what a crash mid
//!   sector-write leaves behind.
//! * `BitFlip` on a **write** — the operation "succeeds" but a bit of
//!   the stored page is flipped: silent at-rest corruption, caught by
//!   the store's write-back verification.
//! * `BitFlip` on a **read** — the transfer is corrupted but the medium
//!   is not: the flipped bit lands in the caller's destination buffer
//!   only, so a re-read (retry) sees the clean page and a failed read
//!   leaves no damage behind.

use crate::backend::PageBackend;
use crate::error::{IoOp, StorageError};
use crate::lock::{LeafGuard, LeafMutex};
use crate::{PageId, PAGE_SIZE};
use std::sync::Arc;

/// What a scheduled fault does to its operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Error the operation outright.
    Fail {
        /// Whether an immediate retry succeeds.
        transient: bool,
    },
    /// Write only the first `keep_bytes` of the payload, then error.
    TornWrite {
        /// Payload prefix length that reaches the page.
        keep_bytes: u32,
    },
    /// Flip one bit of the page involved; the operation "succeeds".
    BitFlip {
        /// Byte offset within the page (taken modulo [`PAGE_SIZE`]).
        byte: u16,
        /// Bit index 0..8.
        bit: u8,
    },
}

/// One fault scheduled at a backend operation index (0-based; every
/// `read_into`/`write`/`allocate`/`sync` the backend executes counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Operation index the fault fires at.
    pub at_op: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, replayable schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Build a plan from explicit faults (sorted by operation index;
    /// at most one fault per index — later duplicates are dropped).
    pub fn new(mut faults: Vec<ScheduledFault>) -> Self {
        faults.sort_by_key(|f| f.at_op);
        faults.dedup_by_key(|f| f.at_op);
        Self { faults }
    }

    /// Generate `count` pseudo-random faults over the first
    /// `horizon_ops` operations from `seed`. Same seed, same plan.
    pub fn seeded(seed: u64, horizon_ops: u64, count: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let at_op = if horizon_ops == 0 {
                0
            } else {
                rng.next() % horizon_ops
            };
            let kind = match rng.next() % 4 {
                0 => FaultKind::Fail { transient: true },
                1 => FaultKind::Fail { transient: false },
                2 => FaultKind::TornWrite {
                    keep_bytes: u32::try_from(rng.next() % (PAGE_SIZE as u64)).unwrap_or(0),
                },
                _ => FaultKind::BitFlip {
                    byte: u16::try_from(rng.next() % (PAGE_SIZE as u64)).unwrap_or(0),
                    bit: u8::try_from(rng.next() % 8).unwrap_or(0),
                },
            };
            faults.push(ScheduledFault { at_op, kind });
        }
        Self::new(faults)
    }

    /// The scheduled faults, sorted by operation index.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }
}

/// One fault that actually fired, as recorded in the backend's journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Operation index it fired at.
    pub at_op: u64,
    /// The operation it hit.
    pub op: IoOp,
    /// The page involved, when the operation targets one.
    pub page: Option<PageId>,
    /// What was injected.
    pub kind: FaultKind,
}

/// A [`PageBackend`] wrapper injecting the faults a [`FaultPlan`]
/// schedules, with a journal of everything that fired.
///
/// A clone is the same simulated device seen through another handle
/// (the copy-on-write fork of a tree version): it shares the plan, the
/// operation clock and the journal with its original, so a fault fires
/// once whichever handle reaches its operation, and a retried batch
/// meets the faults still ahead of the clock, not a replay of the ones
/// that failed it. Only the wrapped pages diverge, as the inner
/// backend's clone does.
#[derive(Debug, Clone)]
pub struct FaultyBackend {
    inner: Box<dyn PageBackend>,
    plan: Arc<FaultPlan>,
    /// Behind a mutex because `read_into` is shared.
    clock: Arc<LeafMutex<FaultClock>>,
}

#[derive(Debug, Default)]
struct FaultClock {
    /// Cursor into `plan.faults`.
    next_fault: usize,
    /// Operations executed so far.
    op: u64,
    journal: Vec<FaultEvent>,
}

impl FaultyBackend {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: Box<dyn PageBackend>, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan: Arc::new(plan),
            clock: Arc::default(),
        }
    }

    /// Wrap a fresh [`crate::backend::MemBackend`].
    pub fn new_mem(plan: FaultPlan) -> Self {
        Self::new(Box::new(crate::backend::MemBackend::new()), plan)
    }

    fn clock(&self) -> LeafGuard<'_, FaultClock> {
        self.clock.lock()
    }

    /// Operations executed so far (the fault clock).
    pub fn ops_executed(&self) -> u64 {
        self.clock().op
    }

    /// Everything that fired, in order.
    pub fn journal(&self) -> Vec<FaultEvent> {
        self.clock().journal.clone()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &dyn PageBackend {
        self.inner.as_ref()
    }

    /// Count one operation; if a fault is scheduled on it, journal and
    /// return what it does to *this* kind of operation: torn writes
    /// and bit flips mean nothing to an operation without a payload (a
    /// read can only be flipped), so there they degrade to a permanent
    /// failure.
    fn tick(&self, op: IoOp, page: Option<PageId>) -> Option<FaultKind> {
        let mut clock = self.clock();
        let at_op = clock.op;
        clock.op += 1;
        // Skip faults scheduled for op indexes that never executed
        // (e.g. the workload ended early); keep the cursor moving.
        while self
            .plan
            .faults
            .get(clock.next_fault)
            .is_some_and(|f| f.at_op < at_op)
        {
            clock.next_fault += 1;
        }
        let scheduled = self.plan.faults.get(clock.next_fault)?;
        if scheduled.at_op != at_op {
            return None;
        }
        clock.next_fault += 1;
        let kind = match (op, scheduled.kind) {
            (IoOp::Write, kind)
            | (IoOp::Read, kind @ FaultKind::BitFlip { .. })
            | (_, kind @ FaultKind::Fail { .. }) => kind,
            _ => FaultKind::Fail { transient: false },
        };
        clock.journal.push(FaultEvent {
            at_op,
            op,
            page,
            kind,
        });
        Some(kind)
    }
}

fn injected(op: IoOp, page: Option<PageId>, transient: bool) -> StorageError {
    StorageError::Injected {
        op,
        page,
        transient,
    }
}

fn flip(bytes: &mut [u8; PAGE_SIZE], byte: u16, bit: u8) {
    if let Some(b) = bytes.get_mut(byte as usize % PAGE_SIZE) {
        *b ^= 1 << (bit % 8);
    }
}

impl PageBackend for FaultyBackend {
    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn read_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        match self.tick(IoOp::Read, Some(id)) {
            None => self.inner.read_into(id, buf),
            Some(FaultKind::BitFlip { byte, bit }) => {
                self.inner.read_into(id, buf)?;
                flip(buf, byte, bit);
                Ok(())
            }
            Some(FaultKind::Fail { transient }) => Err(injected(IoOp::Read, Some(id), transient)),
            Some(FaultKind::TornWrite { .. }) => Err(injected(IoOp::Read, Some(id), false)),
        }
    }

    fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        match self.tick(IoOp::Write, Some(id)) {
            None => self.inner.write(id, payload),
            Some(FaultKind::Fail { transient }) => Err(injected(IoOp::Write, Some(id), transient)),
            Some(FaultKind::TornWrite { keep_bytes }) => {
                let keep = (keep_bytes as usize).min(payload.len());
                self.inner
                    .write(id, payload.get(..keep).unwrap_or(payload))?;
                Err(injected(IoOp::Write, Some(id), false))
            }
            Some(FaultKind::BitFlip { byte, bit }) => {
                // At-rest corruption: the damaged page is what lands.
                let mut stored = [0u8; PAGE_SIZE];
                for (d, s) in stored.iter_mut().zip(payload) {
                    *d = *s;
                }
                flip(&mut stored, byte, bit);
                self.inner.write(id, &stored)
            }
        }
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        match self.tick(IoOp::Allocate, None) {
            None => self.inner.allocate(),
            Some(FaultKind::Fail { transient }) => Err(injected(IoOp::Allocate, None, transient)),
            Some(_) => Err(injected(IoOp::Allocate, None, false)),
        }
    }

    fn truncate(&mut self, len: usize) {
        // Rollback path: never counted, never faulted.
        self.inner.truncate(len);
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        match self.tick(IoOp::Sync, None) {
            None => self.inner.sync(),
            Some(FaultKind::Fail { transient }) => Err(injected(IoOp::Sync, None, transient)),
            Some(_) => Err(injected(IoOp::Sync, None, false)),
        }
    }

    fn peek_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.inner.peek_into(id, buf)
    }

    fn restore(&mut self, id: PageId, bytes: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.inner.restore(id, bytes)
    }

    fn faults_injected(&self) -> u64 {
        self.clock().journal.len() as u64
    }

    fn pages_copied(&self) -> u64 {
        self.inner.pages_copied()
    }

    fn clone_box(&self) -> Box<dyn PageBackend> {
        Box::new(self.clone())
    }
}

/// SplitMix64: the tiny, well-distributed generator behind the seeded
/// plans (and many standard libraries' seeding paths).
#[derive(Debug, Clone)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with(plan: FaultPlan) -> FaultyBackend {
        let mut b = FaultyBackend::new_mem(plan);
        // Pre-allocate a page without consuming fault-plan ops: plans in
        // these tests are written against post-setup operation indexes.
        b.inner.allocate().unwrap();
        b
    }

    fn read(b: &FaultyBackend, id: PageId) -> Result<[u8; PAGE_SIZE], StorageError> {
        let mut buf = [0u8; PAGE_SIZE];
        b.read_into(id, &mut buf).map(|()| buf)
    }

    /// The bytes at rest, off the fault clock.
    fn at_rest(b: &FaultyBackend, id: PageId) -> [u8; PAGE_SIZE] {
        let mut buf = [0u8; PAGE_SIZE];
        b.peek_into(id, &mut buf).unwrap();
        buf
    }

    #[test]
    fn plans_are_deterministic() {
        let a = FaultPlan::seeded(7, 1000, 8);
        let b = FaultPlan::seeded(7, 1000, 8);
        assert_eq!(a, b);
        assert_ne!(a, FaultPlan::seeded(8, 1000, 8));
    }

    #[test]
    fn fail_on_nth_op_fires_exactly_once() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 1,
            kind: FaultKind::Fail { transient: true },
        }]);
        let b = mem_with(plan);
        read(&b, 0).unwrap(); // op 0
        let err = read(&b, 0).unwrap_err(); // op 1: injected
        assert!(err.is_transient());
        read(&b, 0).unwrap(); // op 2: retry succeeds
        assert_eq!(b.faults_injected(), 1);
        assert_eq!(b.journal().len(), 1);
        assert_eq!(b.journal()[0].at_op, 1);
    }

    #[test]
    fn torn_write_keeps_a_prefix_and_errors() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 0,
            kind: FaultKind::TornWrite { keep_bytes: 2 },
        }]);
        let mut b = mem_with(plan);
        let err = b.write(0, &[9, 9, 9, 9]).unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(&at_rest(&b, 0)[..4], &[9, 9, 0, 0]);
    }

    #[test]
    fn write_bit_flip_is_silent_at_rest() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 0,
            kind: FaultKind::BitFlip { byte: 0, bit: 0 },
        }]);
        let mut b = mem_with(plan);
        b.write(0, &[0b10]).unwrap(); // "succeeds"
        assert_eq!(at_rest(&b, 0)[0], 0b11, "bit 0 flipped");
        // No healing: the corruption is on the medium.
        assert_eq!(read(&b, 0).unwrap()[0], 0b11);
    }

    #[test]
    fn read_bit_flip_damages_the_transfer_not_the_medium() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 0,
            kind: FaultKind::BitFlip { byte: 0, bit: 1 },
        }]);
        let b = mem_with(plan);
        assert_eq!(read(&b, 0).unwrap()[0], 0b10, "transfer corrupted");
        assert_eq!(at_rest(&b, 0)[0], 0, "medium was never damaged");
        assert_eq!(read(&b, 0).unwrap()[0], 0, "a re-read is clean");
        assert_eq!(b.ops_executed(), 2, "peeks are off the fault clock");
    }

    #[test]
    fn a_clone_is_the_same_device_with_its_own_pages() {
        let plan = FaultPlan::new(vec![ScheduledFault {
            at_op: 1,
            kind: FaultKind::Fail { transient: false },
        }]);
        let mut b = mem_with(plan);
        b.write(0, &[5]).unwrap(); // op 0
        let mut fork = b.clone();
        assert!(fork.write(0, &[6]).is_err(), "op 1 fires on the fork");
        b.write(0, &[7]).unwrap(); // op 2: already fired, not replayed
        fork.write(0, &[8]).unwrap(); // op 3
        assert_eq!((b.ops_executed(), fork.ops_executed()), (4, 4));
        assert_eq!(b.journal(), fork.journal());
        assert_eq!(b.faults_injected(), 1);
        assert_eq!((at_rest(&b, 0)[0], at_rest(&fork, 0)[0]), (7, 8));
    }

    #[test]
    fn faults_on_allocate_and_sync_are_typed() {
        let plan = FaultPlan::new(vec![
            ScheduledFault {
                at_op: 0,
                kind: FaultKind::Fail { transient: false },
            },
            ScheduledFault {
                at_op: 1,
                kind: FaultKind::Fail { transient: true },
            },
        ]);
        let mut b = FaultyBackend::new_mem(plan);
        assert!(matches!(
            b.allocate(),
            Err(StorageError::Injected {
                op: IoOp::Allocate,
                transient: false,
                ..
            })
        ));
        assert!(matches!(
            b.sync(),
            Err(StorageError::Injected {
                op: IoOp::Sync,
                transient: true,
                ..
            })
        ));
        assert_eq!(b.ops_executed(), 2);
    }
}
