//! Analytical query-cost models (paper §IV).
//!
//! The split-distribution algorithms minimize total volume, but "the real
//! objective … is not to minimize the total volume itself, but to reduce
//! the cost of answering a query" (§IV). This crate provides the two
//! model families the paper proposes for picking the number of splits
//! without building every candidate index:
//!
//! * [`pagel`] — the Pagel et al. cost formula: for uniformly placed
//!   window queries, the expected number of boxes touched is
//!   `Σ_boxes Π_d (s_d + q_d)` — query performance depends on total
//!   volume, total surface, and box count.
//! * [`rtree_model`] — a Theodoridis–Sellis style R-Tree performance
//!   model: estimates node extents per level from data density and
//!   fanout, then applies the Pagel sum per level.
//! * [`BoxStats`] — compact per-record-set statistics feeding the models.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod multiversion;
pub mod pagel;
pub mod rtree_model;
pub mod stats;

pub use multiversion::MultiVersionCostModel;
pub use pagel::{pagel_cost_2d, pagel_cost_3d};
pub use rtree_model::RTreeCostModel;
pub use stats::BoxStats;
