//! `sti-obs`: a dependency-free observability layer for the
//! spatiotemporal index workspace.
//!
//! The paper's evaluation (§V) is denominated in page accesses per query
//! under a small LRU buffer, so the unit of observability here is the
//! *operation*, not the process: trees return a [`QueryStats`] delta from
//! each query, builds report per-phase [`Span`]s, and [`MetricSet`]
//! renders any of it as Prometheus text exposition format or JSON.
//!
//! Everything in this crate returns `String`s or values; nothing here
//! touches stdout, files, or the process environment. Binaries decide
//! where the bytes go.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

mod hist;
mod json;
mod metrics;
mod span;
mod stats;

pub use hist::{HistogramSnapshot, LatencyHistogram};
pub use json::JsonValue;
pub use metrics::{Metric, MetricKind, MetricSet};
pub use span::Span;
pub use stats::QueryStats;
