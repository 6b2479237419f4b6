//! Fuzzing the node decoder: arbitrary page bytes must never panic —
//! a corrupted page yields a decode error, not UB or an abort. And the
//! two things the query path trusts instead of decoding: the
//! install-time check accepts exactly the pages the decoder accepts,
//! and the query cursor yields exactly the decoder's entries.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sti_geom::Rect3;
use sti_rstar::{Entry, Node, NodeView};
use sti_storage::{Page, PAGE_SIZE};

/// A valid node of `n` entries at `level`, encoded.
fn valid_node(seed: u64, level: u32, n: usize) -> (Node, Page) {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = (0..n)
        .map(|_| {
            let lo: [f64; 3] = std::array::from_fn(|_| rng.random::<f64>());
            Entry {
                rect: Rect3::new(lo, lo.map(|v| v + 0.05)),
                ptr: rng.random_range(0..64u64),
            }
        })
        .collect();
    let node = Node { level, entries };
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
        // Either outcome is fine; panicking is not.
        let _ = Node::decode(&page);
    }

    #[test]
    fn bitflip_on_valid_page_never_panics(
        seed_entries in 1usize..40,
        flip_byte in 0usize..PAGE_SIZE,
        flip_bit in 0u8..8,
    ) {
        let node = Node {
            level: 1,
            entries: (0..seed_entries)
                .map(|i| {
                    let v = i as f64 * 0.01;
                    Entry { rect: Rect3::new([v; 3], [v + 0.1; 3]), ptr: i as u64 }
                })
                .collect(),
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        page.bytes_mut()[flip_byte] ^= 1 << flip_bit;
        if let Ok(decoded) = Node::decode(&page) {
            // A surviving decode must still be structurally sane; a
            // decode error means the corruption was detected — also fine.
            prop_assert!(decoded.entries.len() <= 73);
            for e in &decoded.entries {
                prop_assert!(e.rect.lo[0] <= e.rect.hi[0]);
                prop_assert!(e.rect.lo[1] <= e.rect.hi[1]);
                prop_assert!(e.rect.lo[2] <= e.rect.hi[2]);
            }
        }
    }

    /// Noise, as it comes and under headers that fit the page: with two
    /// entries or fewer a fair share of these pages is well-formed by
    /// chance.
    #[test]
    fn the_install_check_is_the_decoder_on_arbitrary_pages(
        bytes in prop::collection::vec(any::<u8>(), PAGE_SIZE),
        header in prop::sample::select(vec![None, Some(73u16), Some(2)]),
        level in 0u32..3,
        count in any::<u16>(),
    ) {
        let mut page = Page::zeroed();
        page.fill_from(&bytes);
        if let Some(most) = header {
            page.bytes_mut()[..4].copy_from_slice(&level.to_le_bytes());
            page.bytes_mut()[4..6].copy_from_slice(&(count % (most + 1)).to_le_bytes());
        }
        prop_assert_eq!(Node::well_formed(&page), Node::decode(&page).is_ok());
    }

    /// Every single-field patch of a valid leaf or internal node: on
    /// each 8-byte field, and 4 bytes further on, where a patch
    /// straddles two fields — or the pointer and the next entry.
    #[test]
    fn the_install_check_is_the_decoder_on_patched_nodes(
        seed in any::<u64>(),
        level in 0u32..3,
        n in 1usize..50,
        entry in 0usize..50,
        field in 0usize..7,
        straddle in any::<bool>(),
        kind in 0usize..7,
        noise in any::<u64>(),
    ) {
        let (_, mut page) = valid_node(seed, level, n);
        prop_assert!(Node::well_formed(&page) && Node::decode(&page).is_ok());
        let at = 6 + (entry % n) * 56 + field * 8 + if straddle { 4 } else { 0 };
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
        prop_assert_eq!(Node::well_formed(&page), Node::decode(&page).is_ok());
    }

    /// The query cursor against the validating one: same entries, same
    /// order.
    #[test]
    fn the_query_cursor_yields_the_decoded_entries(
        seed in any::<u64>(),
        level in 0u32..3,
        n in 0usize..74,
    ) {
        let (node, page) = valid_node(seed, level, n);
        let view = NodeView::new(&page).unwrap();
        let decoded: Vec<Entry> = view.entries().map(Result::unwrap).collect();
        prop_assert_eq!(&decoded, &node.entries);
        prop_assert_eq!(view.scan().collect::<Vec<Entry>>(), decoded);
    }
}
