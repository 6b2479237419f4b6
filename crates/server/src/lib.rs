//! `sti-server`: a dependency-free HTTP/1.1 layer over the
//! spatiotemporal index.
//!
//! The paper's evaluation stops at page I/Os per query; the north star
//! is a system *serving* those queries, where the metric of record
//! becomes end-to-end latency under concurrency. This crate carries the
//! index across the socket boundary:
//!
//! - [`server::Server`] — loads one shared [`sti_core::SpatioTemporalIndex`]
//!   snapshot and serves `GET /query`, `/healthz`, and `/metrics` on a
//!   fixed worker pool behind a *bounded* admission queue: overload is
//!   shed with `503` + `Retry-After` in O(1), never absorbed into
//!   unbounded memory. Built by the `sti-server` binary.
//! - [`http`] — the bounded request reader / response writer
//!   (hand-rolled over [`std::net`]; the workspace takes no external
//!   dependencies).
//! - [`cli`] — the strict flag parser shared by `stidx`, `sti-server`,
//!   and `sti-load`, which rejects unknown and duplicated flags instead
//!   of silently ignoring typos.
//!
//! The paired `sti-load` binary drives a server open-loop (fixed
//! arrival rate, latency measured from each request's *scheduled* start
//! so coordinated omission cannot flatter the tail) and reports
//! p50/p95/p99 through the `sti-bench/1` JSON shape, extending the
//! repo's perf-gate pattern from I/O counts to serving latency.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub mod cli;
pub mod http;
pub mod server;

pub use server::{Server, ServerConfig, ServerMetrics, MAX_QUEUE_DEPTH, MAX_WORKERS};
