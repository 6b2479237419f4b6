//! Spatiotemporal object model.
//!
//! The paper (§II-A) represents an object `O` as a set of tuples
//! `([t_a, t_b), F_x(t), F_y(t))` where the `F`s are *polynomial* functions
//! describing the movement (and, optionally, the extent change) over each
//! sub-interval of the object's lifetime. This crate implements:
//!
//! * [`Polynomial`] — dense univariate polynomials with Horner evaluation,
//! * [`MotionSegment`] — one tuple: a time interval plus polynomials for
//!   the center position `(x(t), y(t))` and the extents `(w(t), h(t))`,
//! * [`Trajectory`] — a full object: consecutive motion segments covering
//!   its lifetime,
//! * [`RasterizedObject`] — the discrete-time view the splitting
//!   algorithms consume: one spatial rectangle per time instant
//!   ("a sequence of *n* spatial objects, one at each time instant", §III-A).
//!
//! Time is discrete, so the MBR of a movement over any interval is the
//! union of the per-instant rectangles — no root finding is needed.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub mod motion;
pub mod polynomial;
pub mod raster;

pub use motion::{MotionSegment, Trajectory};
pub use polynomial::Polynomial;
pub use raster::RasterizedObject;
