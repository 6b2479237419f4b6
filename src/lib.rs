//! # spatiotemporal-index
//!
//! A complete implementation of *Efficient Indexing of Spatiotemporal
//! Objects* (Hadjieleftheriou, Kollios, Gunopulos, Tsotras — EDBT 2002):
//! MBR splitting algorithms for historical spatiotemporal data, a
//! partially persistent R-Tree, a 3D R\*-Tree baseline, the paper's
//! synthetic workloads, and analytical cost models for tuning the number
//! of splits.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names. Start with [`core::SpatioTemporalIndex`] and
//! [`core::SplitPlan`], the `examples/` directory, or the `stidx` CLI
//! (`src/bin/stidx.rs`).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub use sti_core as core;
pub use sti_costmodel as costmodel;
pub use sti_datagen as datagen;
pub use sti_geom as geom;
pub use sti_obs as obs;
pub use sti_pprtree as pprtree;
pub use sti_rstar as rstar;
pub use sti_server as server;
pub use sti_storage as storage;
pub use sti_trajectory as trajectory;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use sti_core::{
        BuildStats, DistributionAlgorithm, Parallelism, SingleSplitAlgorithm, SpatioTemporalIndex,
        SplitBudget, SplitPlan,
    };
    pub use sti_datagen::{QuerySetSpec, RailwayDatasetSpec, RandomDatasetSpec};
    pub use sti_geom::{Point2, Rect2, Rect3, StBox, Time, TimeInterval};
    pub use sti_obs::{MetricSet, QueryStats, Span};
    pub use sti_trajectory::{RasterizedObject, Trajectory};
}
