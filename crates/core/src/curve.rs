//! Volume curves: total representation volume as a function of the number
//! of splits applied to one object.

/// `vol[s]` = total volume of an object's representation when it is split
/// `s` times (into `s + 1` space-time boxes) by some single-object
/// splitter.
///
/// Every split-distribution algorithm consumes objects through this view:
/// the optimal DP needs the whole prefix of the curve, while the greedy
/// variants need marginal gains `vol[s] − vol[s+1]`.
///
/// ```
/// use sti_core::VolumeCurve;
/// let curve = VolumeCurve::new(vec![10.0, 6.0, 5.5]);
/// assert_eq!(curve.max_splits(), 2);
/// assert_eq!(curve.gain(1), 4.0);          // first split reclaims 4
/// assert_eq!(curve.volume(99), 5.5);       // clamped past the curve
/// assert!(curve.has_monotone_gains());     // 4 ≥ 0.5: Claim 1 holds
/// ```
///
/// Invariants enforced at construction:
/// * non-empty (at least the unsplit volume `vol[0]`),
/// * non-increasing: an extra split never increases an *optimal* volume,
///   and the [`MergeSplit`](crate::single::MergeSplit) hierarchy is nested
///   so its curve is non-increasing too (each merge only adds volume).
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeCurve {
    vols: Vec<f64>,
}

impl VolumeCurve {
    /// Wrap a precomputed curve.
    ///
    /// # Panics
    /// If empty, or increasing beyond float tolerance.
    pub fn new(vols: Vec<f64>) -> Self {
        assert!(!vols.is_empty(), "volume curve must contain vol[0]");
        for w in vols.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9 * (1.0 + w[0].abs()),
                "volume curve must be non-increasing: {} -> {}",
                w[0],
                w[1]
            );
        }
        Self { vols }
    }

    /// Largest split count the curve knows about.
    pub fn max_splits(&self) -> usize {
        self.vols.len() - 1
    }

    /// Total volume with `s` splits. For `s` beyond the curve the last
    /// known value is returned (no further gain is assumed).
    pub fn volume(&self, s: usize) -> f64 {
        self.vols[s.min(self.vols.len() - 1)]
    }

    /// Volume gained by the `s`-th split (`s ≥ 1`): `vol[s−1] − vol[s]`.
    /// Zero beyond the curve.
    pub fn gain(&self, s: usize) -> f64 {
        assert!(s >= 1, "gain is defined for the 1st split onward");
        (self.volume(s - 1) - self.volume(s)).max(0.0)
    }

    /// Volume gained by going from `from` splits to `to` splits
    /// (`to ≥ from`). The look-ahead greedy uses `gain_between(s, s + 2)`.
    pub fn gain_between(&self, from: usize, to: usize) -> f64 {
        assert!(to >= from);
        (self.volume(from) - self.volume(to)).max(0.0)
    }

    /// The raw curve values.
    pub fn as_slice(&self) -> &[f64] {
        &self.vols
    }

    /// Heap bytes held by the curve.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.vols.capacity() * std::mem::size_of::<f64>()
    }

    /// True when the monotonicity property of Claim 1 holds: marginal
    /// gains are non-increasing (concave curve). For *general* motion this
    /// frequently fails — exactly the situation LAGreedy exists for.
    pub fn has_monotone_gains(&self) -> bool {
        (2..self.vols.len()).all(|s| self.gain(s) <= self.gain(s - 1) + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let c = VolumeCurve::new(vec![10.0, 6.0, 5.0, 5.0]);
        assert_eq!(c.max_splits(), 3);
        assert_eq!(c.volume(0), 10.0);
        assert_eq!(c.volume(2), 5.0);
        assert_eq!(c.volume(99), 5.0); // clamped
        assert_eq!(c.gain(1), 4.0);
        assert_eq!(c.gain(3), 0.0);
        assert_eq!(c.gain(50), 0.0);
        assert_eq!(c.gain_between(0, 2), 5.0);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn rejects_increasing() {
        let _ = VolumeCurve::new(vec![5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "must contain")]
    fn rejects_empty() {
        let _ = VolumeCurve::new(vec![]);
    }

    #[test]
    fn monotone_gain_detection() {
        // gains 4, 1 — monotone
        assert!(VolumeCurve::new(vec![10.0, 6.0, 5.0]).has_monotone_gains());
        // gains 1, 4 — the fig. 4 situation: second split much better
        assert!(!VolumeCurve::new(vec![10.0, 9.0, 5.0]).has_monotone_gains());
    }

    #[test]
    fn tolerates_float_noise() {
        let c = VolumeCurve::new(vec![1.0, 1.0 + 1e-12]);
        assert_eq!(c.gain(1), 0.0); // clamped to zero, not negative
    }
}
