//! PPR-Tree nodes, entries, parameters, and page serialization.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use sti_geom::{Point2, Rect2, Time, TimeInterval};
use sti_storage::{ByteReader, ByteWriter, CodecError, Page, PageId, PAGE_SIZE};

/// Tuning parameters of the PPR-Tree. Defaults are the paper's §V setup.
#[derive(Debug, Clone, Copy)]
pub struct PprParams {
    /// Maximum entries per node (`B`). Paper: 50.
    pub max_entries: usize,
    /// Weak version condition: a non-root node must hold at least
    /// `D = ceil(p_version · B)` alive entries. Paper: 0.22.
    pub p_version: f64,
    /// Strong version overflow: a version-split copy holding more than
    /// `floor(p_svo · B)` alive entries is key-split. Paper: 0.8.
    pub p_svo: f64,
    /// Strong version underflow: a copy holding fewer than
    /// `ceil(p_svu · B)` alive entries is merged with a sibling.
    /// Paper: 0.4.
    pub p_svu: f64,
    /// Buffer pool capacity in pages. Paper: 10.
    pub buffer_pages: usize,
}

impl Default for PprParams {
    fn default() -> Self {
        Self {
            max_entries: 50,
            p_version: 0.22,
            p_svo: 0.8,
            p_svu: 0.4,
            buffer_pages: 10,
        }
    }
}

impl PprParams {
    /// `D`: minimum alive entries for a non-root node to be alive.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float-to-int `as` saturates, and validate() rejects a threshold outside 0..=max_entries"
    )]
    pub fn weak_min(&self) -> usize {
        ((self.p_version * self.max_entries as f64).ceil() as usize).max(1)
    }

    /// Strong version overflow threshold (alive counts above this
    /// key-split).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float-to-int `as` saturates, and validate() rejects a threshold outside 0..=max_entries"
    )]
    pub fn strong_overflow(&self) -> usize {
        (self.p_svo * self.max_entries as f64).floor() as usize
    }

    /// Strong version underflow threshold (alive counts below this merge).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "float-to-int `as` saturates, and validate() rejects a threshold outside 0..=max_entries"
    )]
    pub fn strong_underflow(&self) -> usize {
        (self.p_svu * self.max_entries as f64).ceil() as usize
    }

    /// The written-down ranges: at least 4 entries, a node of
    /// `max_entries` fits a page, each fraction in `0..=1` (NaN is not),
    /// and the thresholds ordered `D ≤ svu < svo ≤ B`. Parameters read
    /// from a file go through this and fail typed.
    ///
    /// # Errors
    /// The first range that does not hold, as a message.
    pub fn check(&self) -> Result<(), String> {
        if self.max_entries < 4 {
            return Err("max_entries too small".into());
        }
        if PprNode::encoded_size(self.max_entries) > PAGE_SIZE {
            return Err(format!(
                "{} entries do not fit a {PAGE_SIZE}-byte page",
                self.max_entries
            ));
        }
        let fractions = [self.p_version, self.p_svo, self.p_svu];
        if !fractions.iter().all(|p| (0.0..=1.0).contains(p)) {
            return Err("p_version, p_svo and p_svu must lie in 0..=1".into());
        }
        let (d, svu, svo) = (
            self.weak_min(),
            self.strong_underflow(),
            self.strong_overflow(),
        );
        if d > svu {
            return Err(format!(
                "weak_min {d} must not exceed strong_underflow {svu}"
            ));
        }
        if svu >= svo {
            return Err(format!(
                "strong_underflow {svu} must be below strong_overflow {svo}"
            ));
        }
        if svo > self.max_entries {
            return Err("strong_overflow exceeds node capacity".into());
        }
        // A key split must be able to give each half at least svu alive
        // entries: svo + 1 ≥ 2·svu.
        if svo + 1 < 2 * svu {
            return Err("overflow split cannot satisfy underflow bound".into());
        }
        Ok(())
    }

    /// [`PprParams::check`] for parameters a caller wrote.
    ///
    /// # Panics
    /// If a range does not hold.
    #[expect(
        clippy::panic,
        reason = "the constructors' documented contract; file loads use check()"
    )]
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// One PPR-Tree entry. In a leaf (`level == 0`) `ptr` is the object id;
/// in a directory node it is the child page id. The lifetime says when
/// the record/child existed in the *ephemeral* R-Tree's evolution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprEntry {
    /// Spatial MBR: the record's rectangle, or the union of everything
    /// inserted into the child during this entry's lifetime.
    pub rect: Rect2,
    /// Object id (leaf) or child page id (directory).
    pub ptr: u64,
    /// Time the entry entered this node.
    pub insertion: Time,
    /// Time the entry was (logically) deleted; `TimeInterval::OPEN_END`
    /// while alive.
    pub deletion: Time,
}

impl PprEntry {
    /// A still-alive entry starting at `t`.
    pub fn alive(rect: Rect2, ptr: u64, t: Time) -> Self {
        Self {
            rect,
            ptr,
            insertion: t,
            deletion: TimeInterval::OPEN_END,
        }
    }

    /// True while no deletion time is recorded.
    pub fn is_alive(&self) -> bool {
        self.deletion == TimeInterval::OPEN_END
    }

    /// The entry's lifetime interval.
    pub fn lifetime(&self) -> TimeInterval {
        TimeInterval {
            start: self.insertion,
            end: self.deletion,
        }
    }

    /// True if the entry existed at instant `t`.
    pub fn alive_at(&self, t: Time) -> bool {
        self.insertion <= t && t < self.deletion
    }

    /// Child page id (directory entries only). Decoded directory entries
    /// always hold one; anything wider maps to an id no store allocates,
    /// so following it is a typed `Unallocated` error.
    pub fn child_page(&self) -> PageId {
        PageId::try_from(self.ptr).unwrap_or(PageId::MAX)
    }

    const ENCODED: usize = 4 * 8 + 8 + 4 + 4; // rect + ptr + 2 times
    /// Offset of `(insertion, deletion)` within an encoded entry.
    const STAMPS: usize = Self::ENCODED - 2 * 4;

    /// Read one encoded entry as it stands, checking nothing.
    #[inline]
    fn load(raw: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(raw);
        let lo = Point2::new(r.get_f64()?, r.get_f64()?);
        let hi = Point2::new(r.get_f64()?, r.get_f64()?);
        Ok(Self {
            rect: Rect2 { lo, hi },
            ptr: r.get_u64()?,
            insertion: r.get_u32()?,
            deletion: r.get_u32()?,
        })
    }

    /// Decode and validate one encoded entry of a node at `level`: the
    /// written-down statement of what a well-formed entry is.
    /// [`PprNode::well_formed`] is the same statement as one pass over a
    /// page, and a proptest holds the two equal.
    #[inline]
    fn decode(raw: &[u8], level: u32) -> Result<Self, CodecError> {
        let e = Self::load(raw)?;
        let (lo, hi) = (e.rect.lo, e.rect.hi);
        // Ordered, finite bounds; NaN fails the comparisons.
        let finite = [lo.x, lo.y, hi.x, hi.y].iter().all(|v| v.is_finite());
        if !(finite && lo.x <= hi.x && lo.y <= hi.y) {
            return Err(CodecError::InvalidValue(
                "node entry rectangle is reversed or not finite",
            ));
        }
        if level > 0 && PageId::try_from(e.ptr).is_err() {
            return Err(CodecError::InvalidValue(
                "directory entry does not hold a page id",
            ));
        }
        if e.insertion > e.deletion {
            return Err(CodecError::InvalidValue("entry deleted before insertion"));
        }
        Ok(e)
    }
}

/// A read-only cursor over a node still in its encoded page: what the
/// query paths walk instead of decoding into an owned [`PprNode`], so a
/// node visit allocates nothing. The header is checked here, on every
/// visit. The entries are not checked again by [`NodeView::scan`]: the
/// frame a query pins passed [`PprNode::well_formed`] when it entered
/// the pool and is never written through afterwards.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    level: u32,
    /// `len() * PprEntry::ENCODED` bytes.
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
        let entries = body.get(..count * PprEntry::ENCODED);
        let entries = entries.ok_or(CodecError::InvalidValue(
            "entry count exceeds page capacity",
        ))?;
        Ok(Self { level, entries })
    }

    /// Height above the leaves (0 = leaf).
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Number of entries, alive and dead.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len() / PprEntry::ENCODED
    }

    /// True for a node without entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in page order, each decoded and validated; a
    /// malformed one is an `Err` item. What [`PprNode::decode`] collects.
    #[inline]
    pub fn entries(&self) -> impl Iterator<Item = Result<PprEntry, CodecError>> + 'a {
        let level = self.level;
        self.entries
            .chunks_exact(PprEntry::ENCODED)
            .map(move |raw| PprEntry::decode(raw, level))
    }

    /// The query cursor: the entries whose lifetime shares an instant
    /// with `span`, in page order. Only the two lifetime stamps of an
    /// entry are read, at their fixed offset, until it survives; the
    /// rectangle and pointer are loaded for survivors alone.
    ///
    /// Nothing is validated here. Over a page that passed
    /// [`PprNode::well_formed`] this yields exactly what
    /// [`NodeView::entries`] yields, filtered by lifetime; over arbitrary
    /// bytes it yields whatever they spell, without panicking.
    #[inline]
    pub fn scan(&self, span: TimeInterval) -> impl Iterator<Item = PprEntry> + 'a {
        self.entries
            .chunks_exact(PprEntry::ENCODED)
            .filter_map(move |raw| {
                let mut stamps = ByteReader::new(raw.get(PprEntry::STAMPS..)?);
                let lifetime = TimeInterval {
                    start: stamps.get_u32().ok()?,
                    end: stamps.get_u32().ok()?,
                };
                lifetime.intersect(&span)?;
                PprEntry::load(raw).ok()
            })
    }
}

/// One PPR-Tree node.
#[derive(Debug, Clone, PartialEq)]
pub struct PprNode {
    /// Height above the leaves (0 = leaf).
    pub level: u32,
    /// Entries, append-only within the node; deletions only stamp
    /// `deletion` times.
    pub entries: Vec<PprEntry>,
}

impl PprNode {
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

    /// Number of alive entries.
    pub fn alive_count(&self) -> usize {
        self.entries.iter().filter(|e| e.is_alive()).count()
    }

    /// Union of the alive entries' rectangles.
    pub fn alive_mbr(&self) -> Rect2 {
        let mut m = Rect2::EMPTY;
        for e in &self.entries {
            if e.is_alive() {
                m.expand(&e.rect);
            }
        }
        m
    }

    /// Union of all entries' rectangles (alive and dead) — what a parent
    /// directory entry must cover.
    pub fn full_mbr(&self) -> Rect2 {
        let mut m = Rect2::EMPTY;
        for e in &self.entries {
            m.expand(&e.rect);
        }
        m
    }

    /// Bytes needed to encode a node of `n` entries.
    pub fn encoded_size(n: usize) -> usize {
        NodeView::HEADER + n * PprEntry::ENCODED
    }

    /// Serialize into a page buffer, zeroing the tail.
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
            w.put_f64(e.rect.lo.x);
            w.put_f64(e.rect.lo.y);
            w.put_f64(e.rect.hi.x);
            w.put_f64(e.rect.hi.y);
            w.put_u64(e.ptr);
            w.put_u32(e.insertion);
            w.put_u32(e.deletion);
        }
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

    /// Whether [`PprNode::decode`] would accept `page`. This is the
    /// check the tree's `PageStore` runs on every frame before it
    /// enters the pool (DESIGN.md §6), so it is one pass with no early
    /// exit per entry: a bound that is not finite or a reversed pair, a
    /// directory pointer wider than a page id and a lifetime that ends
    /// before it starts each clear one accumulated flag.
    pub fn well_formed(page: &Page) -> bool {
        let Ok(node) = NodeView::new(page) else {
            return false;
        };
        let directory = node.level > 0;
        let mut ok = true;
        for raw in node.entries.chunks_exact(PprEntry::ENCODED) {
            let Ok(e) = PprEntry::load(raw) else {
                return false;
            };
            let (lo, hi) = (e.rect.lo, e.rect.hi);
            // `lo <= hi` rules out NaN, and between two ordered bounds
            // one comparison each rules out the infinities.
            ok &= (lo.x >= f64::MIN) & (lo.x <= hi.x) & (hi.x <= f64::MAX);
            ok &= (lo.y >= f64::MIN) & (lo.y <= hi.y) & (hi.y <= f64::MAX);
            ok &= !directory | (e.ptr <= u64::from(PageId::MAX));
            ok &= e.insertion <= e.deletion;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(v: f64, ptr: u64, ins: Time, del: Time) -> PprEntry {
        PprEntry {
            rect: Rect2::from_bounds(v, v, v + 0.1, v + 0.1),
            ptr,
            insertion: ins,
            deletion: del,
        }
    }

    #[test]
    fn paper_parameters() {
        let p = PprParams::default();
        p.validate();
        assert_eq!(p.weak_min(), 11); // ceil(0.22 * 50)
        assert_eq!(p.strong_overflow(), 40); // floor(0.8 * 50)
        assert_eq!(p.strong_underflow(), 20); // ceil(0.4 * 50)
    }

    #[test]
    #[should_panic(expected = "strong_underflow")]
    fn rejects_inverted_thresholds() {
        PprParams {
            p_svu: 0.9,
            ..PprParams::default()
        }
        .validate();
    }

    #[test]
    fn out_of_range_params_fail_check() {
        let base = PprParams::default();
        for bad in [
            PprParams {
                max_entries: 2,
                ..base
            },
            PprParams {
                max_entries: 86,
                ..base
            },
            PprParams {
                p_version: f64::NAN,
                ..base
            },
            PprParams {
                p_version: 1.5,
                ..base
            },
            PprParams {
                p_svo: f64::NAN,
                ..base
            },
            PprParams {
                p_svu: f64::NAN,
                ..base
            },
            PprParams {
                p_svu: -0.1,
                ..base
            },
        ] {
            assert!(bad.check().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn entry_lifetime_logic() {
        let e = PprEntry::alive(Rect2::UNIT, 7, 10);
        assert!(e.is_alive());
        assert!(e.alive_at(10));
        assert!(e.alive_at(1_000_000));
        assert!(!e.alive_at(9));
        let dead = PprEntry { deletion: 20, ..e };
        assert!(!dead.is_alive());
        assert!(dead.alive_at(19));
        assert!(!dead.alive_at(20));
        assert_eq!(dead.lifetime(), TimeInterval::new(10, 20));
    }

    #[test]
    fn alive_counting_and_mbrs() {
        let node = PprNode {
            level: 0,
            entries: vec![
                entry(0.0, 1, 0, 5),
                entry(0.5, 2, 0, TimeInterval::OPEN_END),
            ],
        };
        assert_eq!(node.alive_count(), 1);
        // alive MBR covers only the alive entry
        assert!(!node
            .alive_mbr()
            .contains_point(&sti_geom::Point2::new(0.05, 0.05)));
        // full MBR covers both
        assert!(node
            .full_mbr()
            .contains_point(&sti_geom::Point2::new(0.05, 0.05)));
    }

    #[test]
    fn fifty_entries_fit_a_page() {
        assert!(PprNode::encoded_size(50) <= PAGE_SIZE);
        assert!(PprNode::encoded_size(85) <= PAGE_SIZE);
        assert!(PprNode::encoded_size(86) > PAGE_SIZE);
    }

    #[test]
    fn encode_decode_round_trip() {
        let node = PprNode {
            level: 2,
            entries: (0..50)
                .map(|i| {
                    entry(
                        i as f64 * 0.01,
                        i,
                        i as Time,
                        if i % 2 == 0 {
                            TimeInterval::OPEN_END
                        } else {
                            900
                        },
                    )
                })
                .collect(),
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        assert_eq!(PprNode::decode(&page).unwrap(), node);
    }

    /// One valid directory entry at `level`, then `patch` written over
    /// the entry's bytes at `at`.
    fn patched(level: u32, at: usize, patch: &[u8]) -> Page {
        let node = PprNode {
            level,
            entries: vec![entry(0.1, 7, 5, 50)],
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let off = NodeView::HEADER + at;
        page.bytes_mut()[off..off + patch.len()].copy_from_slice(patch);
        page
    }

    #[test]
    fn decode_rejects_nan_and_infinite_bounds_instead_of_panicking() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for field in 0..4 {
                let page = patched(0, field * 8, &bad.to_le_bytes());
                assert_eq!(
                    PprNode::decode(&page),
                    Err(CodecError::InvalidValue(
                        "node entry rectangle is reversed or not finite"
                    )),
                    "{bad} in rect field {field}"
                );
            }
        }
    }

    #[test]
    fn directory_pointer_must_fit_a_page_id() {
        let wide = (u64::from(u32::MAX) + 1).to_le_bytes();
        assert!(matches!(
            PprNode::decode(&patched(1, 32, &wide)),
            Err(CodecError::InvalidValue(_))
        ));
        // The same bits in a leaf are an object id, and fine.
        let leaf = PprNode::decode(&patched(0, 32, &wide)).unwrap();
        assert_eq!(leaf.entries[0].ptr, u64::from(u32::MAX) + 1);
        // An in-memory entry that never went through decode stays
        // panic-free too: the id it yields is one no store allocates.
        assert_eq!(leaf.entries[0].child_page(), PageId::MAX);
    }

    #[test]
    fn view_yields_what_decode_collects() {
        let node = PprNode {
            level: 1,
            entries: (0..20).map(|i| entry(i as f64 * 0.01, i, 3, 9)).collect(),
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let view = NodeView::new(&page).unwrap();
        assert_eq!((view.level(), view.len()), (1, 20));
        let walked: Vec<PprEntry> = view.entries().map(Result::unwrap).collect();
        assert_eq!(walked, node.entries);
        // A bad entry is an `Err` item exactly where decode gives up.
        let off = NodeView::HEADER + 5 * PprEntry::ENCODED;
        page.bytes_mut()[off..off + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let view = NodeView::new(&page).unwrap();
        assert_eq!(view.entries().position(|e| e.is_err()), Some(5));
        assert!(PprNode::decode(&page).is_err());
    }

    #[test]
    fn decode_rejects_inverted_lifetime() {
        let node = PprNode {
            level: 0,
            entries: vec![entry(0.1, 1, 50, TimeInterval::OPEN_END)],
        };
        let mut page = Page::zeroed();
        node.encode(&mut page);
        // Corrupt deletion (last 4 bytes of the entry) to 10 < insertion 50.
        let off = 4 + 2 + PprEntry::ENCODED - 4;
        page.bytes_mut()[off..off + 4].copy_from_slice(&10u32.to_le_bytes());
        assert!(matches!(
            PprNode::decode(&page),
            Err(CodecError::InvalidValue(_))
        ));
    }
}
