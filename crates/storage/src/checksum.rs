//! Hand-rolled XXH64 page checksums (dependency-free, like
//! `sti-obs::json`).
//!
//! The 64-bit XXHash algorithm is implemented from its public
//! specification; it is not cryptographic, but detects every single-bit
//! flip and virtually all multi-byte corruption, which is exactly the
//! failure model of [`crate::fault`]. The same function protects
//! in-memory pages (verified on buffer-miss reads and after writes) and
//! the on-disk index format (`crate::persist`, one checksum per region
//! and per page).

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[inline]
fn read_u64(b: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    #[expect(
        clippy::indexing_slicing,
        reason = "every caller checks `at + 8 <= b.len()` in the condition of the loop it reads in"
    )]
    buf.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(buf)
}

#[inline]
fn read_u32(b: &[u8], at: usize) -> u32 {
    let mut buf = [0u8; 4];
    #[expect(
        clippy::indexing_slicing,
        reason = "the one caller checks `at + 4 <= len` first"
    )]
    buf.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(buf)
}

/// XXH64 of `data` with the given seed.
pub fn xxh64_seeded(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut at = 0usize;
    let mut h: u64;
    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2);
        let mut v2 = seed.wrapping_add(PRIME_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME_1);
        while at + 32 <= len {
            v1 = round(v1, read_u64(data, at));
            v2 = round(v2, read_u64(data, at + 8));
            v3 = round(v3, read_u64(data, at + 16));
            v4 = round(v4, read_u64(data, at + 24));
            at += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME_5);
    }
    h = h.wrapping_add(len as u64);
    while at + 8 <= len {
        h ^= round(0, read_u64(data, at));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
        at += 8;
    }
    if at + 4 <= len {
        h ^= u64::from(read_u32(data, at)).wrapping_mul(PRIME_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        at += 4;
    }
    for &byte in data.iter().skip(at) {
        h ^= u64::from(byte).wrapping_mul(PRIME_5);
        h = h.rotate_left(11).wrapping_mul(PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^= h >> 32;
    h
}

/// XXH64 with seed 0, the form used for page and region checksums.
pub fn xxh64(data: &[u8]) -> u64 {
    xxh64_seeded(data, 0)
}

/// Cached checksum of an all-zero page, the content every freshly
/// allocated page starts with.
pub fn zero_page_sum() -> u64 {
    static SUM: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *SUM.get_or_init(|| xxh64(&[0u8; crate::PAGE_SIZE]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors computed with the canonical xxHash-64
    /// implementation (xxhsum 0.8, `xxhsum -H64`).
    #[test]
    fn matches_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn seed_changes_the_digest() {
        assert_ne!(xxh64_seeded(b"abc", 0), xxh64_seeded(b"abc", 1));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let mut page = vec![0u8; 256];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let clean = xxh64(&page);
        for byte in (0..page.len()).step_by(17) {
            for bit in 0..8 {
                let mut flipped = page.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(xxh64(&flipped), clean, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn covers_all_length_classes() {
        // <4, 4..8, 8..32, >=32 bytes exercise every tail branch.
        let data: Vec<u8> = (0..100u8).collect();
        let mut seen = std::collections::HashSet::new();
        for len in [0, 1, 3, 4, 7, 8, 15, 31, 32, 33, 63, 100] {
            assert!(seen.insert(xxh64(&data[..len])), "collision at len {len}");
        }
    }

    #[test]
    fn zero_page_sum_is_cached_and_correct() {
        assert_eq!(zero_page_sum(), xxh64(&[0u8; crate::PAGE_SIZE]));
        assert_eq!(zero_page_sum(), zero_page_sum());
    }
}
