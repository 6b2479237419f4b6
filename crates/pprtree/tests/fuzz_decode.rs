//! Fuzzing the PPR-Tree node decoder: arbitrary or bit-flipped page
//! bytes must produce `Err` or a structurally sane node — never a panic.
//! And the two things the query path trusts instead of decoding: the
//! install-time check accepts exactly the pages the decoder accepts,
//! and the stamp-first cursor yields exactly the decoder's entries that
//! are alive in the span.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sti_geom::{Rect2, TimeInterval};
use sti_pprtree::{NodeView, PprEntry, PprNode};
use sti_storage::{Page, PAGE_SIZE};

/// A valid node of `n` entries at `level`, encoded: short and long
/// lifetimes, open ends, and now and then one that starts and ends at
/// the same instant.
fn valid_node(seed: u64, level: u32, n: usize) -> (PprNode, Page) {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = (0..n)
        .map(|_| {
            let (x, y) = (rng.random::<f64>(), rng.random::<f64>());
            let insertion = rng.random_range(0..1000u32);
            let deletion = match rng.random_range(0..4) {
                0 => TimeInterval::OPEN_END,
                1 => insertion,
                _ => insertion + rng.random_range(1..200u32),
            };
            PprEntry {
                rect: Rect2::from_bounds(x, y, x + 0.05, y + 0.05),
                ptr: rng.random_range(0..64u64),
                insertion,
                deletion,
            }
        })
        .collect();
    let node = PprNode { level, entries };
    let mut page = Page::zeroed();
    node.encode(&mut page);
    (node, page)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..PAGE_SIZE)) {
        let mut page = Page::zeroed();
        page.fill_from(&bytes);
        let _ = PprNode::decode(&page);
    }

    #[test]
    fn bitflip_on_valid_page_never_panics(
        seed_entries in 1usize..50,
        flip_byte in 0usize..PAGE_SIZE,
        flip_bit in 0u8..8,
    ) {
        use sti_geom::{Rect2, TimeInterval};
        use sti_pprtree::PprEntry;
        let node = PprNode {
            level: 0,
            entries: (0..seed_entries)
                .map(|i| {
                    let v = i as f64 * 0.01;
                    PprEntry {
                        rect: Rect2::from_bounds(v, v, v + 0.05, v + 0.05),
                        ptr: i as u64,
                        insertion: i as u32,
                        deletion: if i % 2 == 0 { TimeInterval::OPEN_END } else { 500 },
                    }
                })
                .collect(),
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        page.bytes_mut()[flip_byte] ^= 1 << flip_bit;
        if let Ok(decoded) = PprNode::decode(&page) {
            prop_assert!(decoded.entries.len() <= 85);
            for e in &decoded.entries {
                prop_assert!(e.rect.lo.x <= e.rect.hi.x);
                prop_assert!(e.rect.lo.y <= e.rect.hi.y);
                prop_assert!(e.insertion <= e.deletion);
            }
        }
    }

    /// Noise, as it comes and under headers that fit the page: with
    /// three entries or fewer a fair share of these pages is
    /// well-formed by chance.
    #[test]
    fn the_install_check_is_the_decoder_on_arbitrary_pages(
        bytes in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        header in prop::sample::select(vec![None, Some(85u16), Some(3)]),
        level in 0u32..3,
        count in any::<u16>(),
    ) {
        let mut page = Page::zeroed();
        page.fill_from(&bytes);
        if let Some(most) = header {
            page.bytes_mut()[..4].copy_from_slice(&level.to_le_bytes());
            page.bytes_mut()[4..6].copy_from_slice(&(count % (most + 1)).to_le_bytes());
        }
        prop_assert_eq!(PprNode::well_formed(&page), PprNode::decode(&page).is_ok());
    }

    /// Every single-field patch of a valid leaf or directory node: on
    /// each 8-byte field, and 4 bytes further on, where a patch
    /// straddles two fields — the two stamps, or the deletion stamp and
    /// the next entry.
    #[test]
    fn the_install_check_is_the_decoder_on_patched_nodes(
        seed in any::<u64>(),
        level in 0u32..3,
        n in 1usize..50,
        entry in 0usize..50,
        field in 0usize..6,
        straddle in any::<bool>(),
        kind in 0usize..7,
        noise in any::<u64>(),
    ) {
        let (_, mut page) = valid_node(seed, level, n);
        prop_assert!(PprNode::well_formed(&page) && PprNode::decode(&page).is_ok());
        let at = 6 + (entry % n) * 48 + field * 8 + if straddle { 4 } else { 0 };
        let patch = [
            noise.to_le_bytes(),
            f64::NAN.to_le_bytes(),
            f64::INFINITY.to_le_bytes(),
            f64::NEG_INFINITY.to_le_bytes(),
            u64::MAX.to_le_bytes(),
            (noise % 64).to_le_bytes(), // a plausible page id
            (u64::from(u32::MAX) + 1 + noise % 3).to_le_bytes(), // just too wide for one
        ][kind];
        page.bytes_mut()[at..at + 8].copy_from_slice(&patch);
        prop_assert_eq!(PprNode::well_formed(&page), PprNode::decode(&page).is_ok());
    }

    /// The query cursor against the validating one: same entries, same
    /// order, filtered by lifetime overlap — for instants, ranges, the
    /// open end and empty spans alike.
    #[test]
    fn the_stamp_first_cursor_yields_the_decoded_entries_alive_in_the_span(
        seed in any::<u64>(),
        level in 0u32..3,
        n in 0usize..86,
        start in 0u32..1300,
        len in 0u32..400,
        open in any::<bool>(),
    ) {
        let (node, page) = valid_node(seed, level, n);
        let end = if open { TimeInterval::OPEN_END } else { start + len };
        let span = TimeInterval { start, end };
        let view = NodeView::new(&page).unwrap();
        let decoded: Vec<PprEntry> = view.entries().map(Result::unwrap).collect();
        prop_assert_eq!(&decoded, &node.entries);
        let want: Vec<PprEntry> = decoded
            .into_iter()
            .filter(|e| e.lifetime().intersect(&span).is_some())
            .collect();
        let got: Vec<PprEntry> = view.scan(span).collect();
        prop_assert_eq!(got, want);
    }
}
