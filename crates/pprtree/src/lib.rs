//! A partially persistent R-Tree (PPR-Tree).
//!
//! Conceptually the PPR-Tree records the evolution of an "ephemeral" 2D
//! R-Tree under a stream of timestamped insertions and deletions, so a
//! historical query about time `t` behaves as if a dedicated R-Tree for
//! time `t` existed — while the physical storage stays *linear* in the
//! number of changes (the multi-version approach of Kumar, Tsotras &
//! Faloutsos, which the paper adopts in §II-B).
//!
//! Mechanics implemented here:
//!
//! * every leaf/directory entry carries `insertion-time` / `deletion-time`
//!   lifetime fields;
//! * updates only touch the *current* state; full (dead) nodes are
//!   **version-split**: their alive entries are copied to a fresh node and
//!   the old node is closed in its parent;
//! * **strong version overflow** (`alive > P_svo · B`) key-splits the copy
//!   spatially (R\*-style 2D split); **strong version underflow**
//!   (`alive < P_svu · B`) merges the copy with a version-split sibling;
//! * the **weak version condition** (`alive ≥ D = P_version · B` for
//!   every non-root node) is restored after deletions by the same
//!   version-split machinery, keeping the records alive at any instant
//!   clustered in few pages;
//! * a root log maps each time instant to the root (and height) of its
//!   ephemeral tree.
//!
//! Nodes live in a paged [`sti_storage::PageStore`], so query I/O with the
//! paper's 10-page LRU buffer is measured faithfully. Paper parameters:
//! `B = 50`, `P_version = 0.22`, `P_svo = 0.8`, `P_svu = 0.4`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]

pub mod bulk;
pub mod check;
pub mod node;
pub mod split;
pub mod tree;

pub use bulk::{BulkError, BulkLoader, BulkPiece, BulkStats};
pub use check::{CheckReport, Violation, ViolationKind};
pub use node::{NodeView, PprEntry, PprNode, PprParams};
pub use tree::{DeleteError, PprTree, RootSpan};
