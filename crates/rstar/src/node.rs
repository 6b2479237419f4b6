//! R\*-Tree nodes and their page serialization.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use sti_geom::Rect3;
use sti_storage::{ByteReader, ByteWriter, CodecError, Page, PageId, PAGE_SIZE};

/// Tuning parameters of the R\*-Tree.
#[derive(Debug, Clone, Copy)]
pub struct RStarParams {
    /// Maximum entries per node (`M`). The paper's setup: 50.
    pub max_entries: usize,
    /// Minimum fill fraction for splits (`m = ceil(fraction · M)`);
    /// Beckmann et al. recommend 0.4.
    pub min_fill: f64,
    /// Fraction of entries force-reinserted on first overflow per level;
    /// Beckmann et al. recommend 0.3.
    pub reinsert_fraction: f64,
    /// Buffer pool capacity in pages (paper: 10).
    pub buffer_pages: usize,
}

impl Default for RStarParams {
    fn default() -> Self {
        Self {
            max_entries: 50,
            min_fill: 0.4,
            reinsert_fraction: 0.3,
            buffer_pages: 10,
        }
    }
}

impl RStarParams {
    /// Minimum entries a split group must receive.
    pub fn min_entries(&self) -> usize {
        ((self.min_fill * self.max_entries as f64).ceil() as usize).max(1)
    }

    /// Number of entries removed by forced reinsertion.
    pub fn reinsert_count(&self) -> usize {
        ((self.reinsert_fraction * self.max_entries as f64).floor() as usize).max(1)
    }

    /// The written-down ranges: at least 4 entries, a node of
    /// `max_entries` fits a page (the +1 transient overflow slot is kept
    /// in memory only), `min_fill` in `0..=0.5` and `reinsert_fraction`
    /// in `0..0.5` (NaN is in neither).
    ///
    /// # Errors
    /// The first range that does not hold, as a message.
    pub fn check(&self) -> Result<(), String> {
        if self.max_entries < 4 {
            return Err("max_entries too small".into());
        }
        if Node::encoded_size(self.max_entries) > PAGE_SIZE {
            return Err(format!(
                "{} entries do not fit a {PAGE_SIZE}-byte page",
                self.max_entries
            ));
        }
        if !(0.0..=0.5).contains(&self.min_fill) {
            return Err("min_fill out of range".into());
        }
        if !(0.0..0.5).contains(&self.reinsert_fraction) {
            return Err("reinsert_fraction out of range".into());
        }
        Ok(())
    }

    /// [`RStarParams::check`], as the constructors' contract.
    ///
    /// # Panics
    /// If a range does not hold.
    #[expect(clippy::panic, reason = "the constructors' documented contract")]
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// A node entry. In a leaf (`level == 0`) `ptr` is the record's object
/// id; in an internal node it is the child's [`PageId`] (widened to u64).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Bounding box of the record / child subtree.
    pub rect: Rect3,
    /// Object id (leaf) or child page id (internal).
    pub ptr: u64,
}

impl Entry {
    /// Convenience constructor for internal entries.
    pub fn child(rect: Rect3, page: PageId) -> Self {
        Self {
            rect,
            ptr: u64::from(page),
        }
    }

    /// Interpret `ptr` as a child page id. Decoded internal entries
    /// always hold one; anything wider maps to an id no store allocates,
    /// so following it is a typed `Unallocated` error.
    pub fn child_page(&self) -> PageId {
        PageId::try_from(self.ptr).unwrap_or(PageId::MAX)
    }

    const ENCODED: usize = 6 * 8 + 8; // rect + ptr

    /// Read one encoded entry as it stands, checking nothing.
    #[inline]
    fn load(raw: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(raw);
        let mut lo = [0.0; 3];
        let mut hi = [0.0; 3];
        for v in lo.iter_mut().chain(&mut hi) {
            *v = r.get_f64()?;
        }
        Ok(Self {
            rect: Rect3 { lo, hi },
            ptr: r.get_u64()?,
        })
    }

    /// Decode and validate one encoded entry of a node at `level`: the
    /// written-down statement of what a well-formed entry is.
    /// [`Node::well_formed`] is the same statement as one pass over a
    /// page, and a proptest holds the two equal.
    #[inline]
    fn decode(raw: &[u8], level: u32) -> Result<Self, CodecError> {
        let e = Self::load(raw)?;
        let (lo, hi) = (&e.rect.lo, &e.rect.hi);
        // Ordered, finite bounds; NaN fails the comparisons.
        let finite = lo.iter().chain(hi).all(|v| v.is_finite());
        if !(finite && lo.iter().zip(hi).all(|(l, h)| l <= h)) {
            return Err(CodecError::InvalidValue(
                "node entry rectangle is reversed or not finite",
            ));
        }
        if level > 0 && PageId::try_from(e.ptr).is_err() {
            return Err(CodecError::InvalidValue(
                "internal entry does not hold a page id",
            ));
        }
        Ok(e)
    }
}

/// A read-only cursor over a node still in its encoded page: what the
/// query paths walk instead of decoding into an owned [`Node`], so a
/// node visit allocates nothing. The header is checked here, on every
/// visit. The entries are not checked again by [`NodeView::scan`]: the
/// frame a query pins passed [`Node::well_formed`] when it entered the
/// pool and is never written through afterwards.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    level: u32,
    /// `len() * Entry::ENCODED` bytes.
    entries: &'a [u8],
}

impl<'a> NodeView<'a> {
    const HEADER: usize = 4 + 2; // level + entry count

    /// Open the node encoded in `page`.
    #[inline]
    pub fn new(page: &'a Page) -> Result<Self, CodecError> {
        let (header, body) = page.bytes().split_at(Self::HEADER);
        let mut r = ByteReader::new(header);
        let level = r.get_u32()?;
        let count = usize::from(r.get_u16()?);
        let entries = body.get(..count * Entry::ENCODED);
        let entries = entries.ok_or(CodecError::InvalidValue(
            "entry count exceeds page capacity",
        ))?;
        Ok(Self { level, entries })
    }

    /// Height above the leaves: 0 for leaf nodes.
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len() / Entry::ENCODED
    }

    /// True for a node without entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in page order, each decoded and validated; a
    /// malformed one is an `Err` item. What [`Node::decode`] collects.
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = Result<Entry, CodecError>> + 'a {
        let level = self.level;
        self.entries
            .chunks_exact(Entry::ENCODED)
            .map(move |raw| Entry::decode(raw, level))
    }

    /// The query cursor: every entry in page order, loaded as it
    /// stands. Nothing is validated here. Over a page that passed
    /// [`Node::well_formed`] this yields exactly what
    /// [`NodeView::entries`] yields; over arbitrary bytes it yields
    /// whatever they spell, without panicking.
    #[inline]
    pub fn scan(&self) -> impl Iterator<Item = Entry> + 'a {
        self.entries
            .chunks_exact(Entry::ENCODED)
            .filter_map(|raw| Entry::load(raw).ok())
    }
}

/// One R\*-Tree node: a level (0 = leaf) and up to `M` entries (one extra
/// transient entry may be present in memory during overflow handling; it
/// is never written to a page).
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Height above the leaves: 0 for leaf nodes.
    pub level: u32,
    /// The entries.
    pub entries: Vec<Entry>,
}

impl Node {
    /// An empty node at `level`.
    pub fn new(level: u32) -> Self {
        Self {
            level,
            entries: Vec::new(),
        }
    }

    /// True for leaf nodes.
    pub fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Bounding box of all entries.
    pub fn mbr(&self) -> Rect3 {
        let mut m = Rect3::EMPTY;
        for e in &self.entries {
            m.expand(&e.rect);
        }
        m
    }

    /// Bytes needed to encode a node of `n` entries.
    pub fn encoded_size(n: usize) -> usize {
        NodeView::HEADER + n * Entry::ENCODED
    }

    /// Serialize into a page buffer.
    ///
    /// # Panics
    /// If the node does not fit (the tree splits before this can happen).
    pub fn encode(&self, page: &mut Page) {
        assert!(
            Self::encoded_size(self.entries.len()) <= PAGE_SIZE,
            "node too large for page"
        );
        let buf = page.bytes_mut();
        let mut w = ByteWriter::new(buf.as_mut_slice());
        w.put_u32(self.level);
        #[expect(
            clippy::expect_used,
            reason = "the encoded_size assert above bounds entries by the page capacity, far below u16::MAX"
        )]
        w.put_u16(u16::try_from(self.entries.len()).expect("entry count fits u16"));
        for e in &self.entries {
            for bound in e.rect.lo.iter().chain(&e.rect.hi) {
                w.put_f64(*bound);
            }
            w.put_u64(e.ptr);
        }
        // Zero the tail so stale bytes from a previous, larger version of
        // this node can never be mis-decoded.
        let pos = w.position();
        #[expect(
            clippy::indexing_slicing,
            reason = "a ByteWriter's position never passes the end of the buffer it writes"
        )]
        buf[pos..].fill(0);
    }

    /// Deserialize from a page into an owned node (mutation paths and
    /// checkers; queries walk a [`NodeView`]).
    pub fn decode(page: &Page) -> Result<Self, CodecError> {
        let view = NodeView::new(page)?;
        let mut entries = Vec::with_capacity(view.len());
        for e in view.entries() {
            entries.push(e?);
        }
        Ok(Self {
            level: view.level(),
            entries,
        })
    }

    /// Whether [`Node::decode`] would accept `page`. This is the check
    /// the tree's `PageStore` runs on every frame before it enters the
    /// pool (DESIGN.md §6), so it is one pass with no early exit per
    /// entry: a bound that is not finite or a reversed pair and an
    /// internal pointer wider than a page id each clear one accumulated
    /// flag.
    pub fn well_formed(page: &Page) -> bool {
        let Ok(node) = NodeView::new(page) else {
            return false;
        };
        let internal = node.level > 0;
        let mut ok = true;
        for raw in node.entries.chunks_exact(Entry::ENCODED) {
            let Ok(e) = Entry::load(raw) else {
                return false;
            };
            // `lo <= hi` rules out NaN, and between two ordered bounds
            // one comparison each rules out the infinities.
            for (lo, hi) in e.rect.lo.iter().zip(&e.rect.hi) {
                ok &= (*lo >= f64::MIN) & (lo <= hi) & (*hi <= f64::MAX);
            }
            ok &= !internal | (e.ptr <= u64::from(PageId::MAX));
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: f64, ptr: u64) -> Entry {
        Entry {
            rect: Rect3::new([v, v, v], [v + 0.1, v + 0.2, v + 0.3]),
            ptr,
        }
    }

    #[test]
    fn params_derived_values() {
        let p = RStarParams::default();
        p.validate();
        assert_eq!(p.min_entries(), 20);
        assert_eq!(p.reinsert_count(), 15);
    }

    #[test]
    fn out_of_range_params_fail_check() {
        let base = RStarParams::default();
        for bad in [
            RStarParams {
                max_entries: 3,
                ..base
            },
            RStarParams {
                max_entries: 74,
                ..base
            },
            RStarParams {
                min_fill: 0.6,
                ..base
            },
            RStarParams {
                min_fill: f64::NAN,
                ..base
            },
            RStarParams {
                reinsert_fraction: 0.5,
                ..base
            },
            RStarParams {
                reinsert_fraction: f64::NAN,
                ..base
            },
        ] {
            assert!(bad.check().is_err(), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "min_fill out of range")]
    fn validate_panics_on_what_check_rejects() {
        RStarParams {
            min_fill: -0.1,
            ..RStarParams::default()
        }
        .validate();
    }

    #[test]
    fn fifty_entries_fit_a_page() {
        assert!(Node::encoded_size(50) <= PAGE_SIZE);
        // and the hard cap:
        assert!(Node::encoded_size(73) <= PAGE_SIZE);
        assert!(Node::encoded_size(74) > PAGE_SIZE);
    }

    #[test]
    fn encode_decode_round_trip() {
        let node = Node {
            level: 3,
            entries: (0..50).map(|i| entry(i as f64 * 0.01, 1000 + i)).collect(),
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let back = Node::decode(&page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn encode_zeroes_stale_tail() {
        let big = Node {
            level: 0,
            entries: (0..10).map(|i| entry(0.0, i)).collect(),
        };
        let small = Node {
            level: 0,
            entries: vec![entry(0.5, 9)],
        };
        let mut page = Page::zeroed();
        big.encode(&mut page);
        small.encode(&mut page);
        let back = Node::decode(&page).unwrap();
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back, small);
    }

    #[test]
    fn decode_rejects_garbage_count() {
        let mut page = Page::zeroed();
        // level 0, count 60000
        page.bytes_mut()[4] = 0x60;
        page.bytes_mut()[5] = 0xea;
        assert!(Node::decode(&page).is_err());
    }

    #[test]
    fn decode_rejects_reversed_rect() {
        let node = Node {
            level: 0,
            entries: vec![entry(0.1, 1)],
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        // Corrupt lo[0] (offset 6) to be huge.
        let bytes = 1e9f64.to_le_bytes();
        page.bytes_mut()[6..14].copy_from_slice(&bytes);
        assert!(matches!(
            Node::decode(&page),
            Err(CodecError::InvalidValue(_))
        ));
    }

    #[test]
    fn decode_rejects_nan_and_infinite_bounds() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..6 {
                let node = Node {
                    level: 0,
                    entries: vec![entry(0.1, 1)],
                };
                let mut page = Page::zeroed();
                node.encode(&mut page);
                let off = NodeView::HEADER + field * 8;
                page.bytes_mut()[off..off + 8].copy_from_slice(&bad.to_le_bytes());
                assert!(
                    matches!(Node::decode(&page), Err(CodecError::InvalidValue(_))),
                    "{bad} in rect field {field}"
                );
            }
        }
    }

    #[test]
    fn internal_pointer_must_fit_a_page_id() {
        let wide = u64::from(u32::MAX) + 1;
        let mut page = Page::zeroed();
        for level in [0, 1] {
            Node {
                level,
                entries: vec![entry(0.1, wide)],
            }
            .encode(&mut page);
            // The same bits in a leaf are an object id, and fine.
            assert_eq!(Node::decode(&page).is_ok(), level == 0);
        }
        // An in-memory entry that never went through decode stays
        // panic-free too: the id it yields is one no store allocates.
        assert_eq!(entry(0.1, wide).child_page(), PageId::MAX);
    }

    #[test]
    fn view_yields_what_decode_collects() {
        let node = Node {
            level: 2,
            entries: (0..20).map(|i| entry(i as f64 * 0.01, i)).collect(),
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let view = NodeView::new(&page).unwrap();
        assert_eq!((view.level(), view.len()), (2, 20));
        let walked: Vec<Entry> = view.entries().map(Result::unwrap).collect();
        assert_eq!(walked, node.entries);
    }

    #[test]
    fn mbr_covers_entries() {
        let node = Node {
            level: 1,
            entries: vec![entry(0.0, 1), entry(0.5, 2)],
        };
        let m = node.mbr();
        assert!(m.contains(&node.entries[0].rect));
        assert!(m.contains(&node.entries[1].rect));
        assert_eq!(Node::new(0).mbr(), Rect3::EMPTY);
    }

    #[test]
    fn child_page_round_trip() {
        let e = Entry::child(Rect3::new([0.0; 3], [1.0; 3]), 42);
        assert_eq!(e.child_page(), 42);
    }
}
