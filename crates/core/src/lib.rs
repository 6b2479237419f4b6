//! The paper's primary contribution: algorithms that decide *where* to
//! artificially split spatiotemporal objects and *how* to distribute a
//! split budget across a collection, so that the total volume (empty
//! space) of the indexed MBRs — and with it the query cost — is minimized.
//!
//! Pipeline:
//!
//! 1. rasterize trajectories ([`sti_trajectory`]),
//! 2. build per-object [`VolumeCurve`]s with a [`single`] splitter
//!    (`DPSplit` optimal / `MergeSplit` greedy),
//! 3. distribute the budget with a [`multi`] algorithm
//!    (`Optimal` / `Greedy` / `LAGreedy`),
//! 4. materialize [`plan::ObjectRecord`]s and hand them to an index — the
//!    [`SpatioTemporalIndex`] facade wires steps 2–4 to the partially
//!    persistent R-Tree or the 3D R\*-Tree baseline.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub mod curve;
pub mod executor;
pub mod index;
pub mod multi;
pub mod online;
pub mod parallel;
pub mod pipeline;
pub mod plan;
pub mod recover;
pub mod single;
pub mod tuning;
mod util;
pub mod version;

pub use curve::VolumeCurve;
pub use executor::{QueryExecutor, QueryOutcome, QueryRequest};
pub use index::{BuildStats, IndexBackend, IndexConfig, SpatioTemporalIndex};
pub use multi::{DistributionAlgorithm, SplitAllocation};
pub use online::{FinishError, ObserveError, OnlineError, OnlineSplitConfig, OnlineSplitter};
pub use parallel::{map_chunked, Parallelism};
pub use pipeline::{CommitReport, IngestOp, IngestPipeline, IngestReader, RejectedOp};
pub use plan::{
    piecewise_records, record_events, total_volume, unsplit_records, ObjectRecord, PlanStats,
    RecordEvent, SplitBudget, SplitPlan,
};
pub use recover::{
    decode_op, encode_op, CheckpointReport, CrashPoint, DurabilityError, RecoverError,
    RecoveryReport,
};
pub use single::{SingleObjectSplitter, SingleSplitAlgorithm};
/// The workspace's one library `Mutex` type, re-exported so crates above
/// this one (the HTTP server) need no direct storage dependency.
pub use sti_storage::LeafMutex;
pub use tuning::{QueryProfile, TuningResult};
pub use version::{
    transition, BatchEvent, BatchState, InvalidTransition, PublishedIndex, VersionStamp,
};
