//! Axis-aligned boxes in (x, y, t) space.

use crate::Rect2;

/// An axis-aligned box in 3-dimensional (x, y, t) space.
///
/// This is the record format of the 3D R\*-Tree baseline: the time axis is
/// treated as just another spatial dimension. Following the paper (§V), the
/// time extent of a dataset is scaled down to the unit range before
/// insertion so that time does not dominate the split criteria. A
/// record's half-open lifetime `[start, end)` becomes the closed slab
/// `[start, end − 1] / time_scale`, the same slab [`Rect3::from_query`]
/// builds for a query range.
///
/// Invariant: `lo[d] <= hi[d]` on every axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect3 {
    /// Lower corner `(x, y, t)`.
    pub lo: [f64; 3],
    /// Upper corner `(x, y, t)`.
    pub hi: [f64; 3],
}

impl Rect3 {
    /// Create a box from corners. Panics when reversed on any axis.
    #[inline]
    pub fn new(lo: [f64; 3], hi: [f64; 3]) -> Self {
        assert!(
            lo[0] <= hi[0] && lo[1] <= hi[1] && lo[2] <= hi[2],
            "reversed box: {lo:?}..{hi:?}"
        );
        Self { lo, hi }
    }

    /// Identity of [`Rect3::union`]; volume 0, intersects nothing.
    pub const EMPTY: Rect3 = Rect3 {
        lo: [f64::INFINITY; 3],
        hi: [f64::NEG_INFINITY; 3],
    };

    /// True for the union-identity box.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lo[0] > self.hi[0] || self.lo[1] > self.hi[1] || self.lo[2] > self.hi[2]
    }

    /// The 3D query box for a topological query: spatial window plus the
    /// *closed* time slab `[start, end − 1] / time_scale`. Records stored
    /// via the matching record conversion intersect this box exactly when
    /// their half-open lifetime overlaps `range` (instants are integers).
    ///
    /// # Panics
    /// On an empty query range.
    #[inline]
    pub fn from_query(area: &Rect2, range: &crate::TimeInterval, time_scale: f64) -> Self {
        assert!(!range.is_empty(), "empty query range");
        Rect3::new(
            [area.lo.x, area.lo.y, f64::from(range.start) / time_scale],
            [area.hi.x, area.hi.y, f64::from(range.end - 1) / time_scale],
        )
    }

    /// Extent along axis `d` (0 = x, 1 = y, 2 = t).
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.hi[d] - self.lo[d]
    }

    /// Volume (product of the three extents); 0 when empty.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.extent(0) * self.extent(1) * self.extent(2)
        }
    }

    /// Surface-derived "margin": sum of the three extents. The R\*-Tree
    /// split uses this as its perimeter criterion generalized to 3D.
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.extent(0) + self.extent(1) + self.extent(2)
        }
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> [f64; 3] {
        [
            (self.lo[0] + self.hi[0]) / 2.0,
            (self.lo[1] + self.hi[1]) / 2.0,
            (self.lo[2] + self.hi[2]) / 2.0,
        ]
    }

    /// Closed-box intersection test.
    #[inline]
    pub fn intersects(&self, other: &Rect3) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        for d in 0..3 {
            if self.lo[d] > other.hi[d] || other.lo[d] > self.hi[d] {
                return false;
            }
        }
        true
    }

    /// True if `other` lies fully inside `self`.
    #[inline]
    pub fn contains(&self, other: &Rect3) -> bool {
        if other.is_empty() {
            return true;
        }
        for d in 0..3 {
            if self.lo[d] > other.lo[d] || self.hi[d] < other.hi[d] {
                return false;
            }
        }
        true
    }

    /// Smallest box covering both operands.
    #[inline]
    pub fn union(&self, other: &Rect3) -> Rect3 {
        Rect3 {
            lo: [
                self.lo[0].min(other.lo[0]),
                self.lo[1].min(other.lo[1]),
                self.lo[2].min(other.lo[2]),
            ],
            hi: [
                self.hi[0].max(other.hi[0]),
                self.hi[1].max(other.hi[1]),
                self.hi[2].max(other.hi[2]),
            ],
        }
    }

    /// Grow `self` in place to cover `other`.
    #[inline]
    pub fn expand(&mut self, other: &Rect3) {
        for d in 0..3 {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// Volume of the overlap region (0 when disjoint).
    #[inline]
    pub fn overlap_volume(&self, other: &Rect3) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let mut v = 1.0;
        for d in 0..3 {
            let lo = self.lo[d].max(other.lo[d]);
            let hi = self.hi[d].min(other.hi[d]);
            if lo >= hi {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// Increase in volume caused by growing `self` to cover `other`.
    #[inline]
    pub fn enlargement(&self, other: &Rect3) -> f64 {
        self.union(other).volume() - self.volume()
    }

    /// The spatial (x, y) footprint.
    #[inline]
    pub fn footprint(&self) -> Rect2 {
        Rect2::from_bounds(self.lo[0], self.lo[1], self.hi[0], self.hi[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    fn b(lo: [f64; 3], hi: [f64; 3]) -> Rect3 {
        Rect3::new(lo, hi)
    }

    #[test]
    fn volume_margin() {
        let a = b([0.0, 0.0, 0.0], [2.0, 3.0, 4.0]);
        assert!(approx_eq(a.volume(), 24.0));
        assert!(approx_eq(a.margin(), 9.0));
        assert_eq!(a.center(), [1.0, 1.5, 2.0]);
    }

    #[test]
    #[should_panic(expected = "reversed box")]
    fn new_rejects_reversed() {
        let _ = b([0.0, 0.0, 1.0], [1.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_behaves_as_identity() {
        let a = b([0.0; 3], [1.0; 3]);
        assert_eq!(Rect3::EMPTY.union(&a), a);
        assert_eq!(Rect3::EMPTY.volume(), 0.0);
        assert!(!Rect3::EMPTY.intersects(&a));
        assert!(a.contains(&Rect3::EMPTY));
    }

    #[test]
    fn overlap_volume_cases() {
        let a = b([0.0; 3], [2.0; 3]);
        let c = b([1.0; 3], [3.0; 3]);
        assert!(approx_eq(a.overlap_volume(&c), 1.0));
        assert_eq!(a.overlap_volume(&b([2.0; 3], [3.0; 3])), 0.0); // touching
        assert!(a.intersects(&b([2.0; 3], [3.0; 3]))); // but closed-intersecting
    }

    fn arb_box() -> impl Strategy<Value = Rect3> {
        prop::array::uniform3(0.0..1.0f64).prop_flat_map(|lo| {
            prop::array::uniform3(0.0..1.0f64)
                .prop_map(move |d| Rect3::new(lo, [lo[0] + d[0], lo[1] + d[1], lo[2] + d[2]]))
        })
    }

    proptest! {
        #[test]
        fn union_contains_both(a in arb_box(), c in arb_box()) {
            let u = a.union(&c);
            prop_assert!(u.contains(&a));
            prop_assert!(u.contains(&c));
        }

        #[test]
        fn enlargement_nonnegative(a in arb_box(), c in arb_box()) {
            prop_assert!(a.enlargement(&c) >= -1e-12);
        }

        #[test]
        fn overlap_symmetric_and_bounded(a in arb_box(), c in arb_box()) {
            let o = a.overlap_volume(&c);
            prop_assert!(approx_eq(o, c.overlap_volume(&a)));
            prop_assert!(o <= a.volume() + 1e-12);
            prop_assert!(o <= c.volume() + 1e-12);
        }

        #[test]
        fn expand_matches_union(a in arb_box(), c in arb_box()) {
            let mut m = a;
            m.expand(&c);
            prop_assert_eq!(m, a.union(&c));
        }
    }
}
