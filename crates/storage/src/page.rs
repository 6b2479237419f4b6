//! Fixed-size disk pages.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::sync::Arc;

/// Size of every simulated disk page in bytes.
///
/// 4 KiB comfortably holds a 50-entry tree node (the paper's page
/// capacity): a PPR-Tree entry is 57 bytes, so 50 entries plus the node
/// header is under 3 KiB.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within a [`crate::PageStore`]; also used directly
/// as the child pointer type in tree nodes.
pub type PageId = u32;

/// One fixed-size disk page.
///
/// The bytes are heap-allocated (a large store does not blow the stack)
/// and shared by reference count: `clone` copies nothing, and the first
/// [`Page::bytes_mut`] on a page that shares its bytes takes a private
/// copy. That is what lets [`crate::PageStore::read`] hand out the
/// buffer pool's own frame — a reader holds the bytes it was given for
/// as long as it likes, and a later write or eviction replaces the
/// pool's page instead of changing them.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    data: Arc<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        Self {
            data: Arc::new([0u8; PAGE_SIZE]),
        }
    }

    /// Read access to the raw bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Write access to the raw bytes (copying them first if another
    /// clone of this page still shares them).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        Arc::make_mut(&mut self.data)
    }

    /// Whether no other clone shares this page's bytes, so writing to it
    /// copies nothing.
    pub(crate) fn is_unshared(&mut self) -> bool {
        Arc::get_mut(&mut self.data).is_some()
    }

    /// Overwrite the page content from a slice of at most `PAGE_SIZE`
    /// bytes; the remainder is zeroed.
    ///
    /// # Panics
    /// If `src` exceeds the page size.
    pub fn fill_from(&mut self, src: &[u8]) {
        assert!(
            src.len() <= PAGE_SIZE,
            "payload {} exceeds page size",
            src.len()
        );
        let data = self.bytes_mut();
        #[expect(
            clippy::indexing_slicing,
            reason = "the assert above bounds `src.len()` by the page size"
        )]
        data[..src.len()].copy_from_slice(src);
        #[expect(
            clippy::indexing_slicing,
            reason = "the assert above bounds `src.len()` by the page size"
        )]
        data[src.len()..].fill(0);
    }
}

impl Default for Page {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let used = PAGE_SIZE - self.data.iter().rev().take_while(|&&b| b == 0).count();
        write!(f, "Page({used} bytes used)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_all_zero() {
        let p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn fill_from_zeroes_tail() {
        let mut p = Page::zeroed();
        p.bytes_mut().fill(0xff);
        p.fill_from(&[1, 2, 3]);
        assert_eq!(&p.bytes()[..3], &[1, 2, 3]);
        assert!(p.bytes()[3..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds page size")]
    fn fill_from_rejects_oversize() {
        let mut p = Page::zeroed();
        p.fill_from(&vec![0u8; PAGE_SIZE + 1]);
    }

    #[test]
    fn clones_share_until_written() {
        let mut a = Page::zeroed();
        assert!(a.is_unshared());
        let b = a.clone();
        assert!(!a.is_unshared(), "clone copies nothing");
        a.bytes_mut()[0] = 7;
        assert_eq!(b.bytes()[0], 0, "the writer took its own copy");
        assert!(a.is_unshared());
    }

    #[test]
    fn debug_reports_used_bytes() {
        let mut p = Page::zeroed();
        p.fill_from(&[9; 10]);
        assert_eq!(format!("{p:?}"), "Page(10 bytes used)");
    }
}
