//! Workload generators reproducing the paper's experimental datasets
//! (§V, Tables I and II).
//!
//! * [`RandomDatasetSpec`] — the *uniform* datasets: moving rectangles
//!   with piecewise polynomial motion (degree 1–2), random lifetimes in
//!   1..=100 instants over a 1000-instant evolution, extents 0.1%–1% of
//!   the unit square per side.
//! * [`RailwayDatasetSpec`] — the *skewed* datasets: trains (moving
//!   points) on a railway map of 22 cities and 51 tracks approximating
//!   California and New York, speeds 60–75 mph, up to 10 stops and 36
//!   hours of travel.
//! * [`QuerySetSpec`] — the four snapshot and two range query sets of
//!   Table II (1000 queries each).
//! * [`DatasetStats`] — the per-dataset statistics reported in Table I.
//!
//! All generators are deterministic given their seed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub mod io;
pub mod map;
pub mod orbits;
pub mod queries;
pub mod railway;
pub mod random;
pub mod regions;
pub mod stats;

pub use io::{load_dataset, save_dataset, DatasetReader, DatasetWriter};
pub use map::{City, RailwayMap, Track};
pub use orbits::OrbitDatasetSpec;
pub use queries::{Query, QuerySetSpec};
pub use railway::RailwayDatasetSpec;
pub use random::RandomDatasetSpec;
pub use regions::RegionDatasetSpec;
pub use stats::DatasetStats;

/// The paper's evolution length: time runs over instants `0..1000`.
pub const TIME_EXTENT: u32 = 1000;
