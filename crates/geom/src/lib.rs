//! Geometry primitives for spatiotemporal indexing.
//!
//! This crate provides the small set of geometric types the rest of the
//! workspace is built on:
//!
//! * [`Point2`] — a point in the 2-dimensional unit space,
//! * [`Rect2`] — an axis-aligned 2D rectangle (spatial MBR),
//! * [`Rect3`] — an axis-aligned box in (x, y, t) space, used by the 3D
//!   R\*-Tree baseline,
//! * [`TimeInterval`] — a half-open discrete time interval `[start, end)`,
//!   the "lifetime" attached to every spatiotemporal record,
//! * [`StBox`] — a spatial rectangle paired with a lifetime, the space-time
//!   box produced by the splitting algorithms and stored in the
//!   partially persistent R-Tree.
//!
//! All coordinates are `f64` and are normally normalized to the unit square
//! `[0, 1]²`; time is a discrete `u32` tick counter (the paper assumes
//! "time is discrete, described by a succession of increasing integers").
//!
//! Volume conventions follow the paper: the *volume* of a space-time box is
//! its spatial area multiplied by the number of time instants it spans, so
//! splitting a moving object into tighter boxes strictly reduces total
//! volume ("empty space").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod interval;
pub mod point;
pub mod rect2;
pub mod rect3;
pub mod stbox;

pub use interval::TimeInterval;
pub use point::Point2;
pub use rect2::Rect2;
pub use rect3::Rect3;
pub use stbox::StBox;

/// Discrete time instant. The spatiotemporal evolution runs over
/// `0..=Time::MAX` ticks; the paper's experiments use `0..1000`.
pub type Time = u32;

/// Compare two `f64` values for approximate equality with an absolute
/// tolerance suitable for unit-square coordinates.
///
/// Used by tests and by geometric degeneracy checks; never use exact
/// equality on computed areas/volumes.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(!approx_eq(0.1, 0.2));
        assert!(approx_eq(1e12 + 0.5, 1e12));
    }
}
