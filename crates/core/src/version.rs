//! Versioned snapshot publication for the live-ingestion pipeline.
//!
//! The single-writer/multi-reader design in [`crate::pipeline`] never
//! lets a reader observe a half-applied batch: the committer applies
//! updates to a *private* fork and publishes the result as an immutable
//! [`PublishedIndex`] behind an atomic pointer swap. This module holds
//! the pieces that define what "published" means:
//!
//! * [`VersionStamp`] — the monotonic identity of one published
//!   snapshot (commit number + query watermark),
//! * [`BatchState`] / [`BatchEvent`] / [`transition`] — the explicit
//!   state machine a batch of queued operations moves through
//!   (queued → batched → committing → committed → published, with
//!   rolled-back as the only failure exit), kept as a *pure* function
//!   so the property tests can model-check every path the pipeline
//!   takes,
//! * [`PublishedIndex`] — a frozen tree + stamp pair readers share via
//!   `Arc` with zero coordination against the writer.

use sti_geom::Time;
use sti_pprtree::PprTree;

/// Identity of one published snapshot.
///
/// `version` increments by exactly one per successful commit (a
/// rolled-back batch consumes no version number), so readers can detect
/// staleness by comparing stamps. `watermark` is the first instant that
/// is *not* yet final: every query strictly before it reads fully
/// committed history and will return the same answer forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionStamp {
    /// Monotonic commit number (0 = the empty initial version).
    pub version: u64,
    /// Queries strictly before this instant are final.
    pub watermark: Time,
}

impl VersionStamp {
    /// The stamp of the empty, never-committed index.
    pub const INITIAL: VersionStamp = VersionStamp {
        version: 0,
        watermark: 0,
    };
}

impl std::fmt::Display for VersionStamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{} (watermark {})", self.version, self.watermark)
    }
}

/// Where a batch of ingest operations currently is in its lifecycle.
///
/// ```text
///              drain            begin           applied
///   Queued ──────────▶ Batched ───────▶ Committing ─────▶ Committed
///                                            │                │
///                                            │ fail           │ publish
///                                            ▼                ▼
///                                       RolledBack        Published
/// ```
///
/// Only [`transition`] may move a batch between states; the pipeline
/// threads every step through it so an illegal hop (e.g. publishing a
/// batch that never committed) is a typed error, not a silent bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchState {
    /// Operations sit in the ingest queue; nothing is drained yet.
    Queued,
    /// The committer drained the queue and validated the operations
    /// (malformed ones were rejected with typed errors).
    Batched,
    /// The batch is being applied to the committer's private fork of the
    /// published tree.
    Committing,
    /// Every event applied; the private fork holds the new
    /// version but readers cannot see it yet.
    Committed,
    /// The new version was atomically swapped into the published slot;
    /// readers acquire it from now on.
    Published,
    /// The batch failed mid-commit and its fork was dropped; the
    /// published version never changed. Terminal for this batch — its operations
    /// go back to the pending set and re-enter as a *new* batch.
    RolledBack,
}

impl std::fmt::Display for BatchState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BatchState::Queued => "queued",
            BatchState::Batched => "batched",
            BatchState::Committing => "committing",
            BatchState::Committed => "committed",
            BatchState::Published => "published",
            BatchState::RolledBack => "rolled-back",
        };
        f.write_str(s)
    }
}

/// What happened to a batch, driving [`transition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchEvent {
    /// The committer drained the queue into a validated batch.
    Drain,
    /// The committer forked the published tree.
    Begin,
    /// Every event in the batch applied to the fork.
    Applied,
    /// A storage fault aborted the batch; its fork was dropped.
    Fail,
    /// The committed version was swapped into the published slot.
    Publish,
}

impl std::fmt::Display for BatchEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BatchEvent::Drain => "drain",
            BatchEvent::Begin => "begin",
            BatchEvent::Applied => "applied",
            BatchEvent::Fail => "fail",
            BatchEvent::Publish => "publish",
        };
        f.write_str(s)
    }
}

/// A [`BatchEvent`] that is illegal in the batch's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTransition {
    /// The state the batch was in.
    pub state: BatchState,
    /// The event that is not legal there.
    pub event: BatchEvent,
}

impl std::fmt::Display for InvalidTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch event '{}' illegal in state '{}'",
            self.event, self.state
        )
    }
}

impl std::error::Error for InvalidTransition {}

/// The pure batch state machine: the single source of truth for which
/// lifecycle hops exist. The pipeline calls this for its real batches;
/// the property tests replay recorded event traces through it to prove
/// the implementation never takes an edge this function does not have.
pub fn transition(state: BatchState, event: BatchEvent) -> Result<BatchState, InvalidTransition> {
    use BatchEvent as E;
    use BatchState as S;
    match (state, event) {
        (S::Queued, E::Drain) => Ok(S::Batched),
        (S::Batched, E::Begin) => Ok(S::Committing),
        // Failure exists only while pages are being touched: the batch
        // runs on a private fork, so there is nothing fallible before
        // `Begin` and nothing left to fail after `Applied`.
        (S::Committing, E::Fail) => Ok(S::RolledBack),
        (S::Committing, E::Applied) => Ok(S::Committed),
        (S::Committed, E::Publish) => Ok(S::Published),
        (state, event) => Err(InvalidTransition { state, event }),
    }
}

/// One immutable published version of the index: a frozen PPR-Tree plus
/// the [`VersionStamp`] identifying it.
///
/// Readers obtain an `Arc<PublishedIndex>` from the pipeline and query
/// it with plain `&self` — the tree inside will never change again, so
/// there is nothing to coordinate with. The next version is a
/// copy-on-write fork of this one; pages only this version still holds
/// are freed when its last `Arc` is dropped (see [`crate::pipeline`]).
pub struct PublishedIndex {
    tree: PprTree,
    stamp: VersionStamp,
}

impl std::fmt::Debug for PublishedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublishedIndex")
            .field("stamp", &self.stamp)
            .field("records", &self.tree.total_records())
            .finish_non_exhaustive()
    }
}

impl PublishedIndex {
    /// Freeze `tree` as the published version identified by `stamp`.
    pub(crate) fn new(tree: PprTree, stamp: VersionStamp) -> Self {
        Self { tree, stamp }
    }

    /// The frozen tree. Queries take `&self`; updates are impossible
    /// because no `&mut` can be formed through the shared `Arc`.
    pub fn tree(&self) -> &PprTree {
        &self.tree
    }

    /// This version's identity.
    pub fn stamp(&self) -> VersionStamp {
        self.stamp
    }

    /// Tear the version back into its tree (callable only once no other
    /// `Arc` clone exists).
    pub(crate) fn into_tree(self) -> PprTree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_STATES: [BatchState; 6] = [
        BatchState::Queued,
        BatchState::Batched,
        BatchState::Committing,
        BatchState::Committed,
        BatchState::Published,
        BatchState::RolledBack,
    ];
    const ALL_EVENTS: [BatchEvent; 5] = [
        BatchEvent::Drain,
        BatchEvent::Begin,
        BatchEvent::Applied,
        BatchEvent::Fail,
        BatchEvent::Publish,
    ];

    #[test]
    fn happy_path_reaches_published() {
        let mut s = BatchState::Queued;
        for e in [
            BatchEvent::Drain,
            BatchEvent::Begin,
            BatchEvent::Applied,
            BatchEvent::Publish,
        ] {
            s = transition(s, e).unwrap();
        }
        assert_eq!(s, BatchState::Published);
    }

    #[test]
    fn failure_is_only_reachable_while_applying() {
        assert_eq!(
            transition(BatchState::Committing, BatchEvent::Fail).unwrap(),
            BatchState::RolledBack
        );
        for s in [
            BatchState::Queued,
            BatchState::Batched,
            BatchState::Committed,
            BatchState::Published,
            BatchState::RolledBack,
        ] {
            assert!(
                transition(s, BatchEvent::Fail).is_err(),
                "{s} must not fail"
            );
        }
    }

    /// Exactly 5 of the 30 (state, event) pairs are legal; terminal
    /// states accept nothing.
    #[test]
    fn transition_table_is_exactly_the_documented_edges() {
        let mut legal = Vec::new();
        for s in ALL_STATES {
            for e in ALL_EVENTS {
                if let Ok(next) = transition(s, e) {
                    legal.push((s, e, next));
                } else {
                    let err = transition(s, e).unwrap_err();
                    assert_eq!((err.state, err.event), (s, e));
                }
            }
        }
        assert_eq!(legal.len(), 5);
        for s in [BatchState::Published, BatchState::RolledBack] {
            assert!(legal.iter().all(|&(from, ..)| from != s), "{s} is terminal");
        }
    }

    #[test]
    fn stamps_order_by_version_then_watermark() {
        let a = VersionStamp {
            version: 1,
            watermark: 50,
        };
        let b = VersionStamp {
            version: 2,
            watermark: 10,
        };
        assert!(a < b);
        assert_eq!(VersionStamp::INITIAL.version, 0);
    }
}
