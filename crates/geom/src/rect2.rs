//! Axis-aligned 2D rectangles (spatial MBRs).

use crate::Point2;

/// An axis-aligned rectangle in 2D space: the spatial minimum bounding
/// region (MBR) of an object at one time instant, or of a set of objects.
///
/// Invariant: `lo.x <= hi.x && lo.y <= hi.y`. Degenerate (zero-extent)
/// rectangles are legal — a moving *point* has a degenerate MBR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect2 {
    pub lo: Point2,
    pub hi: Point2,
}

impl Rect2 {
    /// Create a rectangle from corner points. Panics when reversed.
    #[inline]
    pub fn new(lo: Point2, hi: Point2) -> Self {
        assert!(
            lo.x <= hi.x && lo.y <= hi.y,
            "reversed rectangle: {lo:?}..{hi:?}"
        );
        Self { lo, hi }
    }

    /// Create from raw bounds `(x_lo, y_lo, x_hi, y_hi)`.
    #[inline]
    pub fn from_bounds(x_lo: f64, y_lo: f64, x_hi: f64, y_hi: f64) -> Self {
        Self::new(Point2::new(x_lo, y_lo), Point2::new(x_hi, y_hi))
    }

    /// Degenerate rectangle containing exactly one point.
    #[inline]
    pub fn point(p: Point2) -> Self {
        Self { lo: p, hi: p }
    }

    /// Rectangle centered at `c` with full extents `(w, h)`.
    #[inline]
    pub fn centered(c: Point2, w: f64, h: f64) -> Self {
        Self::new(
            Point2::new(c.x - w / 2.0, c.y - h / 2.0),
            Point2::new(c.x + w / 2.0, c.y + h / 2.0),
        )
    }

    /// The unit square `[0,1]²`.
    pub const UNIT: Rect2 = Rect2 {
        lo: Point2::ORIGIN,
        hi: Point2::new(1.0, 1.0),
    };

    /// An "empty" rectangle that acts as the identity of [`Rect2::union`]:
    /// `EMPTY.union(r) == r`. Its `area` is 0 and it intersects nothing.
    pub const EMPTY: Rect2 = Rect2 {
        lo: Point2::new(f64::INFINITY, f64::INFINITY),
        hi: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
    };

    /// True for the union-identity rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo.x > self.hi.x || self.lo.y > self.hi.y
    }

    /// Extent along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Extent along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area. Zero for degenerate and empty rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half-perimeter (the "margin" criterion used by the R\*-Tree split).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point2 {
        Point2::new((self.lo.x + self.hi.x) / 2.0, (self.lo.y + self.hi.y) / 2.0)
    }

    /// True if `p` lies inside (boundary inclusive).
    #[inline]
    pub fn contains_point(&self, p: &Point2) -> bool {
        self.lo.x <= p.x && p.x <= self.hi.x && self.lo.y <= p.y && p.y <= self.hi.y
    }

    /// True if `other` lies fully inside `self` (boundary inclusive).
    #[inline]
    pub fn contains_rect(&self, other: &Rect2) -> bool {
        if other.is_empty() {
            return true;
        }
        self.lo.x <= other.lo.x
            && self.lo.y <= other.lo.y
            && other.hi.x <= self.hi.x
            && other.hi.y <= self.hi.y
    }

    /// True if the rectangles share at least a boundary point.
    ///
    /// Topological *intersect* as used by the paper's queries ("find all
    /// objects that appear in area S"): closed-rectangle intersection.
    #[inline]
    pub fn intersects(&self, other: &Rect2) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// Smallest rectangle covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect2) -> Rect2 {
        Rect2 {
            lo: Point2::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point2::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Grow `self` in place to cover `other`. Equivalent to
    /// `*self = self.union(other)` but avoids the copy in hot loops.
    #[inline]
    pub fn expand(&mut self, other: &Rect2) {
        self.lo.x = self.lo.x.min(other.lo.x);
        self.lo.y = self.lo.y.min(other.lo.y);
        self.hi.x = self.hi.x.max(other.hi.x);
        self.hi.y = self.hi.y.max(other.hi.y);
    }

    /// Intersection, or `None` when the rectangles are disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect2) -> Option<Rect2> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect2 {
            lo: Point2::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point2::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        })
    }

    /// Area of the overlap region (0 when disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Rect2) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// Increase in area caused by growing `self` to cover `other`.
    #[inline]
    pub fn enlargement(&self, other: &Rect2) -> f64 {
        self.union(other).area() - self.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    fn r(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect2 {
        Rect2::from_bounds(x0, y0, x1, y1)
    }

    #[test]
    fn area_margin_center() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        assert!(approx_eq(a.area(), 6.0));
        assert!(approx_eq(a.margin(), 5.0));
        assert_eq!(a.center(), Point2::new(1.0, 1.5));
    }

    #[test]
    fn degenerate_rect_is_legal() {
        let p = Rect2::point(Point2::new(0.5, 0.5));
        assert_eq!(p.area(), 0.0);
        assert!(!p.is_empty());
        assert!(p.intersects(&p));
    }

    #[test]
    #[should_panic(expected = "reversed rectangle")]
    fn new_rejects_reversed() {
        let _ = r(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn empty_is_union_identity() {
        let a = r(0.1, 0.2, 0.3, 0.4);
        assert_eq!(Rect2::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect2::EMPTY), a);
        assert_eq!(Rect2::EMPTY.area(), 0.0);
        assert!(!Rect2::EMPTY.intersects(&a));
        assert!(!a.intersects(&Rect2::EMPTY));
    }

    #[test]
    fn intersects_boundary_touch() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0); // shares an edge
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
        let c = r(1.1, 0.0, 2.0, 1.0);
        assert!(!a.intersects(&c));
    }

    #[test]
    fn containment() {
        let outer = r(0.0, 0.0, 1.0, 1.0);
        assert!(outer.contains_rect(&r(0.2, 0.2, 0.8, 0.8)));
        assert!(outer.contains_rect(&outer));
        assert!(!outer.contains_rect(&r(0.5, 0.5, 1.5, 0.9)));
        assert!(outer.contains_rect(&Rect2::EMPTY));
        assert!(outer.contains_point(&Point2::new(1.0, 1.0)));
        assert!(!outer.contains_point(&Point2::new(1.0001, 1.0)));
    }

    #[test]
    fn intersection_and_enlargement() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert!(approx_eq(a.overlap_area(&b), 1.0));
        assert!(approx_eq(a.enlargement(&b), 9.0 - 4.0));
        assert!(approx_eq(a.enlargement(&r(0.5, 0.5, 1.0, 1.0)), 0.0));
    }

    #[test]
    fn expand_matches_union() {
        let mut a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(0.5, -1.0, 2.0, 0.5);
        let u = a.union(&b);
        a.expand(&b);
        assert_eq!(a, u);
    }

    fn arb_rect() -> impl Strategy<Value = Rect2> {
        (0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64, 0.0..1.0f64)
            .prop_map(|(a, b, c, d)| Rect2::from_bounds(a.min(c), b.min(d), a.max(c), b.max(d)))
    }

    proptest! {
        #[test]
        fn union_contains_both(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }

        #[test]
        fn union_is_commutative_and_idempotent(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.union(&b), b.union(&a));
            prop_assert_eq!(a.union(&a), a);
        }

        #[test]
        fn union_area_superadditive_when_disjoint(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            prop_assert!(u.area() + 1e-12 >= a.area().max(b.area()));
        }

        #[test]
        fn intersection_symmetric_and_contained(a in arb_rect(), b in arb_rect()) {
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains_rect(&i));
                prop_assert!(b.contains_rect(&i));
            }
        }

        #[test]
        fn overlap_area_bounded(a in arb_rect(), b in arb_rect()) {
            let o = a.overlap_area(&b);
            prop_assert!(o >= 0.0);
            prop_assert!(o <= a.area() + 1e-12);
            prop_assert!(o <= b.area() + 1e-12);
        }

        #[test]
        fn intersects_iff_intersection_some_or_touching(a in arb_rect(), b in arb_rect()) {
            // intersects() is closed; intersection() returns Some for closed
            // intersection too, so the two must agree exactly.
            prop_assert_eq!(a.intersects(&b), a.intersection(&b).is_some());
        }
    }
}
