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

    /// Euclidean distance to another point.
    #[inline]
    pub fn distance(&self, other: &Point2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert!(approx_eq(a.distance(&b), 5.0));
        assert!(approx_eq(b.distance(&a), 5.0));
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point2::new(0.25, 0.75);
        assert_eq!(p.distance(&p), 0.0);
    }
}
