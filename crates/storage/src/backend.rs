//! Pluggable page backends beneath [`crate::PageStore`].
//!
//! The store owns accounting (the frame pool, [`crate::IoStats`], retry,
//! checksums, the undo log); a [`PageBackend`] owns the bytes at rest.
//! Three implementations ship with the crate:
//!
//! * [`MemBackend`] — the classic simulated disk: a `Vec` of pages that
//!   never fails.
//! * [`FileBackend`] — one [`PAGE_SIZE`] slot per page in a real file,
//!   read and written positionally, so OS-level I/O errors surface as
//!   typed [`StorageError`]s and no page byte stays in memory.
//! * [`crate::fault::FaultyBackend`] — a deterministic fault-injection
//!   wrapper over either of the above.

use crate::error::{IoOp, StorageError};
use crate::lock::assert_unlocked;
use crate::{Page, PageId, PAGE_SIZE};
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};

/// The raw page device beneath a [`crate::PageStore`].
///
/// `read_into` and `write` are the fault points: they perform (or
/// simulate) the transfer and may fail or be damaged in flight; the
/// store verifies checksums after both. `peek_into` and `restore` are
/// the same transfers for the store's verification, pre-image, rollback
/// and tooling paths, which bypass fault injection by design (recovery
/// must not re-enter the failure it is recovering from).
pub trait PageBackend: std::fmt::Debug + Send + Sync {
    /// Number of pages the backend holds.
    fn num_pages(&self) -> usize;

    /// Transfer page `id` from the device into `buf`. Shared: concurrent
    /// readers fetch different pages in parallel.
    fn read_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError>;

    /// Overwrite page `id` with `payload` (shorter payloads are
    /// zero-padded to [`PAGE_SIZE`]).
    fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError>;

    /// Append one zeroed page, returning its id.
    fn allocate(&mut self) -> Result<PageId, StorageError>;

    /// Append `pages` as consecutive new pages, returning the first id.
    /// On an error some of them may have landed; the caller truncates
    /// back (see [`crate::PageStore::append_run`]).
    ///
    /// The default is one [`PageBackend::allocate`] and one
    /// [`PageBackend::write`] per page, so a fault-injecting backend
    /// keeps a fault point for each of them.
    fn append_run(&mut self, pages: &[[u8; PAGE_SIZE]]) -> Result<PageId, StorageError> {
        let first = PageId::try_from(self.num_pages()).map_err(|_| StorageError::OutOfPageIds)?;
        for page in pages {
            let id = self.allocate()?;
            self.write(id, page)?;
        }
        Ok(first)
    }

    /// Drop pages from the tail until `len` remain (undo of `allocate`;
    /// infallible because rollback cannot itself fail).
    fn truncate(&mut self, len: usize);

    /// Flush to durable storage.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// [`PageBackend::read_into`] with no accounting and no faults.
    fn peek_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.read_into(id, buf)
    }

    /// [`PageBackend::peek_into`] of the consecutive pages from `first`
    /// on, one per buffer.
    fn peek_run_into(
        &self,
        first: PageId,
        bufs: &mut [[u8; PAGE_SIZE]],
    ) -> Result<(), StorageError> {
        for (id, buf) in (first..).zip(bufs) {
            self.peek_into(id, buf)?;
        }
        Ok(())
    }

    /// [`PageBackend::write`] of a whole page with no accounting and no
    /// faults.
    fn restore(&mut self, id: PageId, bytes: &[u8; PAGE_SIZE]) -> Result<(), StorageError> {
        self.write(id, bytes)
    }

    /// Total faults this backend has injected (zero for real backends).
    fn faults_injected(&self) -> u64 {
        0
    }

    /// Pages this backend copied because a clone still shared their
    /// bytes (see [`MemBackend`]); zero for backends that share none.
    /// Counted since the backend was created, clones included.
    fn pages_copied(&self) -> u64 {
        0
    }

    /// Clone into a boxed backend (see the caveat on [`FileBackend`]).
    fn clone_box(&self) -> Box<dyn PageBackend>;

    /// Downcast support for tests and tooling.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support for tests and tooling.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl Clone for Box<dyn PageBackend> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

fn unallocated(op: IoOp, page: PageId, pages: usize) -> StorageError {
    StorageError::Unallocated { op, page, pages }
}

/// The default in-memory backend: a growable array of pages. Operations
/// never fail (the error type exists so wrappers can inject).
///
/// Cloning is copy-on-write: the clone shares every page's bytes with
/// the original, and the first write to a shared page on either side
/// copies that page alone ([`PageBackend::pages_copied`] counts them).
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    pages: Vec<Page>,
    copied: u64,
}

impl MemBackend {
    /// An empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageBackend for MemBackend {
    fn num_pages(&self) -> usize {
        self.pages.len()
    }

    fn read_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        assert_unlocked("page transfer");
        let page = self
            .pages
            .get(id as usize)
            .ok_or_else(|| unallocated(IoOp::Read, id, self.pages.len()))?;
        *buf = *page.bytes();
        Ok(())
    }

    fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        assert_unlocked("page transfer");
        let pages = self.pages.len();
        let page = self
            .pages
            .get_mut(id as usize)
            .ok_or_else(|| unallocated(IoOp::Write, id, pages))?;
        if !page.is_unshared() {
            self.copied += 1;
        }
        page.fill_from(payload);
        Ok(())
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        assert_unlocked("page transfer");
        let id = PageId::try_from(self.pages.len()).map_err(|_| StorageError::OutOfPageIds)?;
        self.pages.push(Page::zeroed());
        Ok(id)
    }

    fn truncate(&mut self, len: usize) {
        self.pages.truncate(len);
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        assert_unlocked("page transfer");
        Ok(())
    }

    fn pages_copied(&self) -> u64 {
        self.copied
    }

    fn clone_box(&self) -> Box<dyn PageBackend> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Classify an OS error: interruptions and timeouts are worth retrying,
/// everything else (permissions, missing file, full disk) is not.
fn io_transient(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::WouldBlock
    )
}

fn io_err(op: IoOp, page: Option<PageId>, e: &std::io::Error) -> StorageError {
    StorageError::Io {
        op,
        page,
        transient: io_transient(e.kind()),
        message: e.to_string(),
    }
}

/// A backend keeping pages in a real file, one [`PAGE_SIZE`] slot per
/// page, and nothing in memory: what is resident is the frame pool's
/// decision, so a tree on this backend takes memory in proportion to
/// the pool capacity, not to its size.
///
/// Every transfer is one positional `read_at`/`write_at` on the shared
/// descriptor (no seek, no per-call buffer), so OS-level failures
/// surface where the fault actually is (the positional calls are
/// `std::os::unix::fs::FileExt`, so this backend is Unix-only). Cloning
/// detaches from the file:
/// the clone becomes an in-memory snapshot (a second handle appending to
/// the same file would corrupt both owners).
#[derive(Debug)]
pub struct FileBackend {
    path: PathBuf,
    file: std::fs::File,
    pages: usize,
}

impl FileBackend {
    /// Create (or truncate) the backing file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            pages: 0,
        })
    }

    /// Open an existing backing file; every full page slot is a page.
    /// Reads no page: bytes move when the store asks for them.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let pages = usize::try_from(file.metadata()?.len() / PAGE_SIZE as u64)
            .map_err(std::io::Error::other)?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
            pages,
        })
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn offset(id: PageId) -> u64 {
        u64::from(id) * PAGE_SIZE as u64
    }
}

impl PageBackend for FileBackend {
    fn num_pages(&self) -> usize {
        self.pages
    }

    fn read_into(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StorageError> {
        assert_unlocked("page transfer");
        if (id as usize) >= self.pages {
            return Err(unallocated(IoOp::Read, id, self.pages));
        }
        self.file
            .read_exact_at(buf, Self::offset(id))
            .map_err(|e| io_err(IoOp::Read, Some(id), &e))
    }

    fn write(&mut self, id: PageId, payload: &[u8]) -> Result<(), StorageError> {
        assert_unlocked("page transfer");
        if (id as usize) >= self.pages {
            return Err(unallocated(IoOp::Write, id, self.pages));
        }
        let mut padded = [0u8; PAGE_SIZE];
        padded
            .get_mut(..payload.len())
            .ok_or(StorageError::PayloadTooLarge { len: payload.len() })?
            .copy_from_slice(payload);
        self.file
            .write_all_at(&padded, Self::offset(id))
            .map_err(|e| io_err(IoOp::Write, Some(id), &e))
    }

    fn allocate(&mut self) -> Result<PageId, StorageError> {
        assert_unlocked("page transfer");
        let id = PageId::try_from(self.pages).map_err(|_| StorageError::OutOfPageIds)?;
        self.file
            .set_len(Self::offset(id) + PAGE_SIZE as u64)
            .map_err(|e| io_err(IoOp::Allocate, Some(id), &e))?;
        self.pages += 1;
        Ok(id)
    }

    /// One positional write past the last page: the file grows by the
    /// write itself, with no `set_len` per page.
    fn append_run(&mut self, pages: &[[u8; PAGE_SIZE]]) -> Result<PageId, StorageError> {
        assert_unlocked("page transfer");
        let first = PageId::try_from(self.pages).map_err(|_| StorageError::OutOfPageIds)?;
        let end = self.pages + pages.len();
        PageId::try_from(end).map_err(|_| StorageError::OutOfPageIds)?;
        self.file
            .write_all_at(pages.as_flattened(), Self::offset(first))
            .map_err(|e| io_err(IoOp::Write, Some(first), &e))?;
        self.pages = end;
        Ok(first)
    }

    /// One positional read of the whole run.
    fn peek_run_into(
        &self,
        first: PageId,
        bufs: &mut [[u8; PAGE_SIZE]],
    ) -> Result<(), StorageError> {
        assert_unlocked("page transfer");
        if (first as usize) + bufs.len() > self.pages {
            return Err(unallocated(IoOp::Read, first, self.pages));
        }
        self.file
            .read_exact_at(bufs.as_flattened_mut(), Self::offset(first))
            .map_err(|e| io_err(IoOp::Read, Some(first), &e))
    }

    fn truncate(&mut self, len: usize) {
        self.pages = self.pages.min(len);
        // Rollback must not fail; if the OS refuses to shrink the file,
        // the extra slots are harmless (`pages` is the source of truth
        // for allocation length).
        let _ = self.file.set_len((self.pages as u64) * (PAGE_SIZE as u64));
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        assert_unlocked("page transfer");
        self.file
            .sync_all()
            .map_err(|e| io_err(IoOp::Sync, None, &e))
    }

    fn clone_box(&self) -> Box<dyn PageBackend> {
        // A slot that cannot be read back stays zeroed; the cloned
        // store's recorded checksum then fails it closed on first fetch.
        let pages = (0..self.pages)
            .map(|i| {
                let mut page = Page::zeroed();
                let _ = self
                    .file
                    .read_exact_at(page.bytes_mut(), (i as u64) * (PAGE_SIZE as u64));
                page
            })
            .collect();
        Box::new(MemBackend { pages, copied: 0 })
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(b: &dyn PageBackend, id: PageId) -> Result<[u8; PAGE_SIZE], StorageError> {
        let mut buf = [0u8; PAGE_SIZE];
        b.read_into(id, &mut buf).map(|()| buf)
    }

    #[test]
    fn mem_backend_round_trip() {
        let mut b = MemBackend::new();
        let a = b.allocate().unwrap();
        assert_eq!(a, 0);
        b.write(a, &[1, 2, 3]).unwrap();
        assert_eq!(&read(&b, a).unwrap()[..4], &[1, 2, 3, 0]);
        assert!(matches!(
            read(&b, 9),
            Err(StorageError::Unallocated { page: 9, .. })
        ));
        b.truncate(0);
        assert_eq!(b.num_pages(), 0);
    }

    #[test]
    fn mem_backend_clone_copies_a_page_on_its_first_write_only() {
        let mut b = MemBackend::new();
        let (x, y) = (b.allocate().unwrap(), b.allocate().unwrap());
        b.write(x, &[1; 4]).unwrap();
        assert_eq!(b.pages_copied(), 0, "nothing shares the original's pages");
        let mut fork = b.clone();
        fork.write(x, &[2; 4]).unwrap();
        fork.write(x, &[3; 4]).unwrap();
        assert_eq!(fork.pages_copied(), 1, "one page written, copied once");
        assert_eq!(
            &read(&b, x).unwrap()[..4],
            &[1; 4],
            "the original kept its bytes"
        );
        assert_eq!(&read(&fork, x).unwrap()[..4], &[3; 4]);
        b.write(y, &[4; 4]).unwrap();
        assert_eq!(
            b.pages_copied(),
            1,
            "the original copies what it shares too"
        );
        assert_eq!(&read(&fork, y).unwrap()[..4], &[0; 4]);
    }

    #[test]
    fn file_backend_round_trip_and_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("sti-filebackend-{}.pages", std::process::id()));
        {
            let mut b = FileBackend::create(&path).unwrap();
            let a = b.allocate().unwrap();
            let c = b.allocate().unwrap();
            b.write(a, &[7; 10]).unwrap();
            b.write(c, &[9; 5]).unwrap();
            b.write(c, &[9; 3]).unwrap();
            b.sync().unwrap();
        }
        {
            let mut b = FileBackend::open(&path).unwrap();
            assert_eq!(b.num_pages(), 2);
            assert_eq!(
                &read(&b, 0).unwrap()[..11],
                &[7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0]
            );
            assert_eq!(&read(&b, 1).unwrap()[..5], &[9, 9, 9, 0, 0], "rewrite pads");
            assert!(matches!(
                read(&b, 2),
                Err(StorageError::Unallocated { page: 2, .. })
            ));
            // A truncated-then-regrown slot comes back zeroed.
            b.truncate(1);
            assert_eq!(b.allocate().unwrap(), 1);
            assert_eq!(read(&b, 1).unwrap(), [0u8; PAGE_SIZE]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_backend_clone_detaches_to_memory() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "sti-filebackend-clone-{}.pages",
            std::process::id()
        ));
        let mut b = FileBackend::create(&path).unwrap();
        let a = b.allocate().unwrap();
        b.write(a, &[4; 4]).unwrap();
        let mut cloned = b.clone_box();
        cloned.write(a, &[5; 4]).unwrap();
        // The clone diverges without touching the original file.
        assert_eq!(&read(&b, a).unwrap()[..4], &[4; 4]);
        assert_eq!(&read(cloned.as_ref(), a).unwrap()[..4], &[5; 4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn transience_classification_of_os_errors() {
        assert!(io_transient(std::io::ErrorKind::Interrupted));
        assert!(io_transient(std::io::ErrorKind::TimedOut));
        assert!(!io_transient(std::io::ErrorKind::NotFound));
        assert!(!io_transient(std::io::ErrorKind::PermissionDenied));
    }
}
