//! 2D points.

/// A point in the 2-dimensional space.
///
/// Coordinates are usually normalized to the unit square, but nothing in
/// this type enforces that; the dataset generators are responsible for
/// normalization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point2 {
    pub x: f64,
    pub y: f64,
}

impl Point2 {
    /// Create a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2::new(0.0, 0.0);
}
