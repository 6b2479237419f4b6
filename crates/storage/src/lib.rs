//! Simulated disk storage.
//!
//! Both index structures in this workspace are *disk-based*: nodes are
//! serialized to fixed-size pages and every page touched during a query is
//! a potential disk access. The paper's evaluation metric is the average
//! number of disk accesses per query with a 10-page LRU buffer that is
//! reset before every query; this crate provides exactly that substrate:
//!
//! * [`Page`] / [`PageId`] — fixed-size byte pages, shared by reference
//!   count and copied on first write,
//! * [`PageStore`] — a "disk" of pages over a pluggable [`backend`] with
//!   an LRU buffer pool in front ([`buffer`]: the pool owns the only
//!   page bytes kept in memory), [`IoStats`] counting logical
//!   reads/writes, per-page checksums, a bounded immediate retry of
//!   transient faults ([`FaultStats`]), and page-level undo transactions,
//! * [`backend`] — the [`PageBackend`] device trait with in-memory and
//!   file-backed implementations,
//! * [`fault`] — the deterministic [`FaultyBackend`] fault injector,
//!   driven by replayable [`FaultPlan`]s,
//! * [`lock`] — [`LeafMutex`], the one `Mutex` type library code uses,
//!   whose guards debug builds check are leaves of the lock order,
//! * [`persist`] — crash-safe save/load (checksummed regions, monotonic
//!   epochs, atomic temp-then-rename) failing closed with a typed
//!   [`OpenError`],
//! * [`codec`] — bounds-checked little-endian encode/decode helpers used
//!   by the tree node serializers,
//! * [`wal`] — a checksummed, segmented write-ahead log (per-record
//!   xxh64 framing, torn-tail truncation, typed [`WalError`]) backing
//!   the durable ingest pipeline.
//!
//! Every fallible operation returns a typed [`StorageError`]; the I/O
//! path through this crate and the trees above it is panic-free (see
//! DESIGN.md §6, "Failure model & recovery").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]

pub mod backend;
pub mod buffer;
pub mod checksum;
pub mod codec;
pub mod error;
pub mod fault;
pub mod lock;
pub mod page;
pub mod persist;
pub mod shard;
pub mod store;
pub mod wal;

pub use backend::{FileBackend, MemBackend, PageBackend};
pub use buffer::{BufferCounters, BufferPool};
pub use checksum::xxh64;
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use error::{CorruptReason, IoOp, StorageError};
pub use fault::{FaultKind, FaultPlan, FaultyBackend, ScheduledFault};
pub use lock::LeafMutex;
pub use page::{Page, PageId, PAGE_SIZE};
pub use persist::{OpenError, Region};
pub use shard::{ReadProbe, ScratchPool};
pub use store::{FaultStats, IoStats, PageStore, PageValidator};
pub use wal::{FsyncPolicy, TornTail, Wal, WalConfig, WalError, WalOpen, WalRecord, WalStats};
