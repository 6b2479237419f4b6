//! The Hilbert space-filling curve over the unit square.
//!
//! Sorting rectangle centers by their Hilbert value clusters spatially
//! close records together (Kamel & Faloutsos, VLDB 1994 — reference \[9\]
//! of the paper); the PPR-Tree bulk loader orders its regions this way.
//!
//! The implementation is the classic Butz/Lawder iterative bit
//! manipulation (transpose form), exact for coordinates quantized to
//! `ORDER` bits per dimension.

/// Bits of precision per dimension.
pub const ORDER: u32 = 16;

/// Quantize a unit-space coordinate to the Hilbert grid.
#[inline]
fn quantize(v: f64) -> u32 {
    let max = (1u32 << ORDER) - 1;
    ((v.clamp(0.0, 1.0) * f64::from(max)).round()) as u32
}

/// Hilbert index of a point in the unit square. Higher `ORDER` bits per
/// axis; the result occupies `2 · ORDER` bits.
///
/// ```
/// use sti_geom::hilbert::hilbert2;
/// let near = (hilbert2(0.5, 0.5) as i64 - hilbert2(0.5005, 0.5) as i64).abs();
/// let far = (hilbert2(0.5, 0.5) as i64 - hilbert2(0.95, 0.1) as i64).abs();
/// assert!(near < far, "nearby points sit close on the curve");
/// ```
pub fn hilbert2(x: f64, y: f64) -> u64 {
    hilbert_transpose(&mut [quantize(x), quantize(y)])
}

/// Convert axis coordinates to a Hilbert index (in place: `coords`
/// becomes the transpose form first). Generic over dimension count.
fn hilbert_transpose<const D: usize>(coords: &mut [u32; D]) -> u64 {
    // Inverse undo excess work (Skilling's algorithm, AIP 2004).
    let m = 1u32 << (ORDER - 1);

    // Gray encode.
    let mut q = m;
    while q > 1 {
        let p = q - 1;
        for i in 0..D {
            if coords[i] & q != 0 {
                coords[0] ^= p; // invert
            } else {
                let t = (coords[0] ^ coords[i]) & p;
                coords[0] ^= t;
                coords[i] ^= t;
            }
        }
        q >>= 1;
    }
    for i in 1..D {
        coords[i] ^= coords[i - 1];
    }
    let mut t = 0u32;
    let mut q = m;
    while q > 1 {
        if coords[D - 1] & q != 0 {
            t ^= q - 1;
        }
        q >>= 1;
    }
    for c in coords.iter_mut() {
        *c ^= t;
    }

    // Interleave the transpose form into a single index, most significant
    // bit of axis 0 first.
    let mut index: u64 = 0;
    for bit in (0..ORDER).rev() {
        for c in coords.iter() {
            index = (index << 1) | u64::from((c >> bit) & 1);
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corners_are_distinct_and_deterministic() {
        let a = hilbert2(0.0, 0.0);
        let b = hilbert2(1.0, 0.0);
        let c = hilbert2(0.0, 1.0);
        let d = hilbert2(1.0, 1.0);
        let mut all = [a, b, c, d];
        all.sort_unstable();
        assert!(
            all.windows(2).all(|w| w[0] < w[1]),
            "corner collision: {all:?}"
        );
        assert_eq!(hilbert2(0.5, 0.5), hilbert2(0.5, 0.5));
    }

    #[test]
    fn origin_is_zero() {
        assert_eq!(hilbert2(0.0, 0.0), 0);
    }

    #[test]
    fn locality_nearby_points_have_nearby_indexes() {
        // The defining property (statistically): small moves in space
        // should usually cause small moves on the curve. Check that the
        // average index jump for eps-steps is far below that of random
        // pairs.
        let eps = 1.0 / 1024.0;
        let mut near_sum: f64 = 0.0;
        let mut far_sum: f64 = 0.0;
        let mut count = 0;
        for i in 0..32 {
            for j in 0..32 {
                let x = i as f64 / 32.0;
                let y = j as f64 / 32.0;
                let h = hilbert2(x, y) as f64;
                near_sum += (hilbert2(x + eps, y) as f64 - h).abs();
                let (rx, ry) = ((i as f64 * 7.7).fract(), (j as f64 * 3.3).fract());
                far_sum += (hilbert2(rx, ry) as f64 - h).abs();
                count += 1;
            }
        }
        let near = near_sum / f64::from(count);
        let far = far_sum / f64::from(count);
        assert!(near * 50.0 < far, "no locality: near {near} vs far {far}");
    }

    #[test]
    fn curve_is_injective_on_a_grid() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            for j in 0..64 {
                let h = hilbert2(i as f64 / 63.0, j as f64 / 63.0);
                assert!(seen.insert(h), "collision at ({i}, {j})");
            }
        }
    }

    #[test]
    fn out_of_range_inputs_are_clamped() {
        assert_eq!(hilbert2(-5.0, -5.0), hilbert2(0.0, 0.0));
        assert_eq!(hilbert2(7.0, 7.0), hilbert2(1.0, 1.0));
    }
}
