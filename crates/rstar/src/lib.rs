//! A disk-based 3-dimensional R\*-Tree (Beckmann, Kriegel, Schneider,
//! Seeger — SIGMOD 1990).
//!
//! This is the paper's *straightforward baseline*: treat time as a third
//! spatial dimension, box every spatiotemporal record into (x, y, t), and
//! index the boxes. The implementation is complete R\*: ChooseSubtree with
//! minimum overlap enlargement at the leaf level, forced reinsertion of
//! the farthest 30% on first overflow per level, and the margin-driven
//! topological split.
//!
//! Nodes are serialized to fixed-size pages of a
//! [`sti_storage::PageStore`], so query I/O (with the paper's 10-page LRU
//! buffer) is measured exactly as in the evaluation. The paper's setup
//! uses a page capacity of 50 entries.
//!
//! The tree is built in-process, over any [`sti_storage::PageBackend`],
//! and has no saved-file format: only the PPR-Tree is written to disk.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub mod bulk;
pub mod node;
pub mod split;
pub mod tree;

pub use node::{Entry, Node, NodeView, RStarParams};
pub use tree::RStarTree;
