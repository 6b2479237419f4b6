//! Piecewise polynomial motion: segments and full trajectories.

use crate::{Polynomial, RasterizedObject};
use sti_geom::{Point2, Rect2, Time, TimeInterval};

/// One tuple of the paper's object representation: over the half-open
/// interval `interval`, the object's *center* moves along
/// `(x(τ), y(τ))` and its extents are `(w(τ), h(τ))`, where `τ = t −
/// interval.start` is segment-local time (keeping the polynomial
/// coefficients well-conditioned for long evolutions).
///
/// Moving *points* simply use zero extent polynomials; shape change over
/// time (fig. 6 of the paper) uses non-constant `w`/`h`.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionSegment {
    /// Absolute lifetime of this segment, `[start, end)`.
    pub interval: TimeInterval,
    /// Center x as a function of local time.
    pub x: Polynomial,
    /// Center y as a function of local time.
    pub y: Polynomial,
    /// Full extent along x as a function of local time (≥ 0 expected).
    pub w: Polynomial,
    /// Full extent along y as a function of local time (≥ 0 expected).
    pub h: Polynomial,
}

impl MotionSegment {
    /// A segment with constant extents — the common "moving rectangle".
    pub fn with_constant_extent(
        interval: TimeInterval,
        x: Polynomial,
        y: Polynomial,
        w: f64,
        h: f64,
    ) -> Self {
        Self {
            interval,
            x,
            y,
            w: Polynomial::constant(w),
            h: Polynomial::constant(h),
        }
    }

    /// A segment describing a moving point (zero extent).
    pub fn moving_point(interval: TimeInterval, x: Polynomial, y: Polynomial) -> Self {
        Self::with_constant_extent(interval, x, y, 0.0, 0.0)
    }

    /// Straight-line segment from `a` to `b` over `interval`, constant
    /// extent `(w, h)`. Used heavily by the railway generator.
    pub fn linear_between(interval: TimeInterval, a: Point2, b: Point2, w: f64, h: f64) -> Self {
        let dur = interval.len() as f64;
        let (vx, vy) = if dur > 0.0 {
            ((b.x - a.x) / dur, (b.y - a.y) / dur)
        } else {
            (0.0, 0.0)
        };
        Self::with_constant_extent(
            interval,
            Polynomial::linear(a.x, vx),
            Polynomial::linear(a.y, vy),
            w,
            h,
        )
    }

    /// Object MBR at absolute instant `t`, or `None` outside the segment.
    ///
    /// Negative extents (a generator bug) are clamped to zero rather than
    /// producing reversed rectangles.
    pub fn rect_at(&self, t: Time) -> Option<Rect2> {
        if !self.interval.contains(t) {
            return None;
        }
        let tau = f64::from(t - self.interval.start);
        let cx = self.x.eval(tau);
        let cy = self.y.eval(tau);
        let w = self.w.eval(tau).max(0.0);
        let h = self.h.eval(tau).max(0.0);
        Some(Rect2::centered(Point2::new(cx, cy), w, h))
    }
}

/// A complete spatiotemporal object: consecutive motion segments covering
/// its lifetime without gaps.
///
/// Invariants checked by [`Trajectory::new`]:
/// * at least one non-empty segment,
/// * segments are consecutive: `segments[i].interval.end ==
///   segments[i+1].interval.start`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Stable object identifier; survives splitting so query results can be
    /// de-duplicated back to objects.
    pub id: u64,
    segments: Vec<MotionSegment>,
}

impl Trajectory {
    /// Build a trajectory, validating the segment chain.
    ///
    /// # Panics
    /// On empty input, an empty segment, or non-consecutive segments.
    pub fn new(id: u64, segments: Vec<MotionSegment>) -> Self {
        assert!(!segments.is_empty(), "trajectory {id} has no segments");
        for (i, s) in segments.iter().enumerate() {
            assert!(
                !s.interval.is_empty(),
                "trajectory {id}: segment {i} is empty"
            );
            if i > 0 {
                assert_eq!(
                    segments[i - 1].interval.end,
                    s.interval.start,
                    "trajectory {id}: gap/overlap between segments {} and {i}",
                    i - 1
                );
            }
        }
        Self { id, segments }
    }

    /// The motion segments, in time order.
    pub fn segments(&self) -> &[MotionSegment] {
        &self.segments
    }

    /// Lifetime `[t_s, t_e)` of the whole object.
    pub fn lifetime(&self) -> TimeInterval {
        #[expect(
            clippy::expect_used,
            reason = "the constructor rejects trajectories with no segments"
        )]
        let first = self.segments.first().expect("nonempty");
        #[expect(
            clippy::expect_used,
            reason = "the constructor rejects trajectories with no segments"
        )]
        let last = self.segments.last().expect("nonempty");
        TimeInterval::new(first.interval.start, last.interval.end)
    }

    /// Number of instants the object is alive.
    pub fn duration(&self) -> u64 {
        self.lifetime().len()
    }

    /// Object MBR at absolute instant `t`, or `None` outside the lifetime.
    pub fn rect_at(&self, t: Time) -> Option<Rect2> {
        // Binary search for the segment whose interval contains t.
        let idx = self.segments.partition_point(|s| s.interval.end <= t);
        self.segments.get(idx).and_then(|s| s.rect_at(t))
    }

    /// Absolute instants where the movement "changes characteristics" —
    /// interior segment boundaries. The piecewise splitting baseline cuts
    /// exactly here.
    pub fn change_points(&self) -> Vec<Time> {
        self.segments
            .iter()
            .skip(1)
            .map(|s| s.interval.start)
            .collect()
    }

    /// Sample one rectangle per alive instant — the discrete-time view the
    /// splitting algorithms operate on.
    pub fn rasterize(&self) -> RasterizedObject {
        let life = self.lifetime();
        let mut rects = Vec::with_capacity(life.len() as usize);
        for s in &self.segments {
            for t in s.interval.start..s.interval.end {
                #[expect(
                    clippy::expect_used,
                    reason = "the loop ranges over exactly the instants rect_at accepts for this segment"
                )]
                rects.push(s.rect_at(t).expect("t inside segment"));
            }
        }
        let boundaries = self
            .change_points()
            .into_iter()
            .map(|t| (t - life.start) as usize)
            .collect();
        RasterizedObject::with_boundaries(self.id, life.start, rects, boundaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(t0: Time, t1: Time, x0: f64, vx: f64) -> MotionSegment {
        MotionSegment::with_constant_extent(
            TimeInterval::new(t0, t1),
            Polynomial::linear(x0, vx),
            Polynomial::constant(0.5),
            0.1,
            0.2,
        )
    }

    #[test]
    fn segment_rect_uses_local_time() {
        let s = seg(10, 20, 0.0, 0.1);
        let r = s.rect_at(15).unwrap();
        // center x = 0.0 + 0.1 * (15 - 10) = 0.5
        assert!((r.center().x - 0.5).abs() < 1e-12);
        assert!((r.width() - 0.1).abs() < 1e-12);
        assert!((r.height() - 0.2).abs() < 1e-12);
        assert!(s.rect_at(9).is_none());
        assert!(s.rect_at(20).is_none());
    }

    #[test]
    fn negative_extent_clamped() {
        let s = MotionSegment {
            interval: TimeInterval::new(0, 5),
            x: Polynomial::constant(0.5),
            y: Polynomial::constant(0.5),
            w: Polynomial::linear(0.1, -0.1), // negative from τ=2
            h: Polynomial::constant(0.1),
        };
        let r = s.rect_at(4).unwrap();
        assert_eq!(r.width(), 0.0);
    }

    #[test]
    fn linear_between_hits_endpoints() {
        let s = MotionSegment::linear_between(
            TimeInterval::new(0, 10),
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.5),
            0.0,
            0.0,
        );
        let start = s.rect_at(0).unwrap().center();
        assert!((start.x).abs() < 1e-12 && (start.y).abs() < 1e-12);
        // t=10 is outside [0,10); check t=9 is 9/10 of the way.
        let near_end = s.rect_at(9).unwrap().center();
        assert!((near_end.x - 0.9).abs() < 1e-12);
        assert!((near_end.y - 0.45).abs() < 1e-12);
    }

    #[test]
    fn trajectory_lifetime_and_lookup() {
        let tr = Trajectory::new(7, vec![seg(10, 20, 0.0, 0.1), seg(20, 25, 1.0, 0.0)]);
        assert_eq!(tr.lifetime(), TimeInterval::new(10, 25));
        assert_eq!(tr.duration(), 15);
        assert_eq!(tr.change_points(), vec![20]);
        // lookup falls in second segment
        let r = tr.rect_at(22).unwrap();
        assert!((r.center().x - 1.0).abs() < 1e-12);
        assert!(tr.rect_at(25).is_none());
        assert!(tr.rect_at(9).is_none());
    }

    #[test]
    #[should_panic(expected = "gap/overlap")]
    fn trajectory_rejects_gaps() {
        let _ = Trajectory::new(1, vec![seg(0, 5, 0.0, 0.0), seg(6, 8, 0.0, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "no segments")]
    fn trajectory_rejects_empty() {
        let _ = Trajectory::new(1, vec![]);
    }

    #[test]
    fn rasterize_counts_and_boundaries() {
        let tr = Trajectory::new(3, vec![seg(10, 20, 0.0, 0.1), seg(20, 25, 1.0, 0.0)]);
        let ras = tr.rasterize();
        assert_eq!(ras.len(), 15);
        assert_eq!(ras.start(), 10);
        assert_eq!(ras.boundaries(), &[10]); // instant 20 is index 10
                                             // rect at index 5 equals trajectory rect at t=15
        assert_eq!(ras.rect(5), tr.rect_at(15).unwrap());
    }
}
