//! Half-open discrete time intervals.

use crate::Time;

/// A half-open interval `[start, end)` over discrete time.
///
/// Every spatiotemporal record carries a *lifetime* interval created by the
/// time instants when the record was inserted and (artificially or really)
/// deleted. `end == Time::MAX` conventionally means "still alive" inside
/// the partially persistent structures; finished datasets always use finite
/// ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TimeInterval {
    /// Inclusive start instant.
    pub start: Time,
    /// Exclusive end instant. Must satisfy `end >= start`.
    pub end: Time,
}

impl TimeInterval {
    /// Sentinel end meaning "not yet deleted".
    pub const OPEN_END: Time = Time::MAX;

    /// Create `[start, end)`. Panics if `end < start`.
    #[inline]
    pub fn new(start: Time, end: Time) -> Self {
        assert!(end >= start, "interval end {end} precedes start {start}");
        Self { start, end }
    }

    /// An interval that starts at `start` and has no recorded end.
    #[inline]
    pub fn open(start: Time) -> Self {
        Self {
            start,
            end: Self::OPEN_END,
        }
    }

    /// The single instant `t` as the interval `[t, t+1)`. At
    /// `t == Time::MAX` it is the empty `[MAX, MAX)`: lifetimes are
    /// half-open and `MAX` also spells "not deleted yet", so nothing is
    /// alive at that instant.
    #[inline]
    pub fn instant(t: Time) -> Self {
        Self {
            start: t,
            end: t.saturating_add(1),
        }
    }

    /// Number of time instants covered. An empty interval has length 0.
    #[inline]
    pub fn len(&self) -> u64 {
        u64::from(self.end) - u64::from(self.start)
    }

    /// True if the interval covers no instants.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if the interval has no recorded end (record still alive).
    #[inline]
    pub fn is_open(&self) -> bool {
        self.end == Self::OPEN_END
    }

    /// True if instant `t` lies in `[start, end)`.
    #[inline]
    pub fn contains(&self, t: Time) -> bool {
        self.start <= t && t < self.end
    }

    /// True if the two half-open intervals share at least one instant.
    /// An empty interval overlaps nothing.
    #[inline]
    pub fn overlaps(&self, other: &TimeInterval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// Intersection of the two intervals, or `None` when disjoint.
    #[inline]
    pub fn intersect(&self, other: &TimeInterval) -> Option<TimeInterval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(TimeInterval { start, end })
    }

    /// Smallest interval covering both operands (the gap between them is
    /// included).
    #[inline]
    pub fn cover(&self, other: &TimeInterval) -> TimeInterval {
        TimeInterval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }
}

impl std::fmt::Display for TimeInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_open() {
            write!(f, "[{}, *)", self.start)
        } else {
            write!(f, "[{}, {})", self.start, self.end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_instant_is_empty_and_overlaps_nothing() {
        let last = TimeInterval::instant(Time::MAX);
        assert_eq!(last, TimeInterval::new(Time::MAX, Time::MAX));
        assert!(last.is_empty());
        assert_eq!(last.len(), 0);
        for other in [
            last,
            TimeInterval::open(0),
            TimeInterval::open(Time::MAX - 1),
            TimeInterval::new(0, Time::MAX),
        ] {
            assert!(!last.overlaps(&other), "{last} overlaps {other}");
            assert_eq!(last.intersect(&other), None);
        }
        assert_eq!(
            TimeInterval::instant(Time::MAX - 1),
            TimeInterval::new(Time::MAX - 1, Time::MAX)
        );
    }

    #[test]
    fn len_and_empty() {
        assert_eq!(TimeInterval::new(3, 3).len(), 0);
        assert!(TimeInterval::new(3, 3).is_empty());
        assert_eq!(TimeInterval::new(3, 7).len(), 4);
        assert_eq!(TimeInterval::instant(5).len(), 1);
    }

    #[test]
    #[should_panic(expected = "precedes start")]
    fn new_rejects_reversed() {
        let _ = TimeInterval::new(5, 4);
    }

    #[test]
    fn contains_is_half_open() {
        let iv = TimeInterval::new(2, 5);
        assert!(!iv.contains(1));
        assert!(iv.contains(2));
        assert!(iv.contains(4));
        assert!(!iv.contains(5));
    }

    #[test]
    fn open_interval_contains_far_future() {
        let iv = TimeInterval::open(10);
        assert!(iv.is_open());
        assert!(iv.contains(10));
        assert!(iv.contains(1_000_000));
        assert!(!iv.contains(9));
    }

    #[test]
    fn overlap_cases() {
        let a = TimeInterval::new(0, 5);
        assert!(a.overlaps(&TimeInterval::new(4, 9)));
        assert!(!a.overlaps(&TimeInterval::new(5, 9))); // touching, half-open
        assert!(a.overlaps(&TimeInterval::new(0, 1)));
        assert!(!a.overlaps(&TimeInterval::new(7, 9)));
        // empty interval overlaps nothing
        assert!(!a.overlaps(&TimeInterval::new(2, 2)));
    }

    #[test]
    fn intersect_and_cover() {
        let a = TimeInterval::new(0, 5);
        let b = TimeInterval::new(3, 9);
        assert_eq!(a.intersect(&b), Some(TimeInterval::new(3, 5)));
        assert_eq!(a.intersect(&TimeInterval::new(5, 9)), None);
        assert_eq!(a.cover(&b), TimeInterval::new(0, 9));
        assert_eq!(a.cover(&TimeInterval::new(7, 9)), TimeInterval::new(0, 9));
    }

    #[test]
    fn display() {
        assert_eq!(TimeInterval::new(1, 4).to_string(), "[1, 4)");
        assert_eq!(TimeInterval::open(2).to_string(), "[2, *)");
    }
}
