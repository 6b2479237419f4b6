//! Crash-safe saving and loading of a [`PageStore`] (plus owner
//! metadata), so a built index survives process restarts and a torn save
//! can never be mistaken for a valid index.
//!
//! File layout, version 2 (all little-endian):
//!
//! ```text
//! magic "STIDX2\0\0" · epoch: u64 · meta_len: u32 · page_count: u32 ·
//! free_count: u32 (always 0)                       (header, 28 bytes)
//! header_xxh: u64                                  (XXH64 of the header)
//! meta bytes · meta_xxh: u64
//! free_xxh: u64                                    (XXH64 of no bytes)
//! page_count × (PAGE_SIZE page bytes · page_xxh: u64)
//! trailer_epoch: u64                               (must equal epoch)
//! ```
//!
//! The `meta` region belongs to the structure owning the store (tree
//! parameters, root log, counters); the store itself doesn't interpret
//! it. The free list is a vestige: allocation is append-only, so the
//! list is always written empty (keeping saved images byte-identical
//! with the format's earlier writers), and an image whose count is not
//! zero is [`OpenError::Malformed`].
//!
//! Three mechanisms make the format crash-safe (DESIGN.md §6):
//!
//! * **Atomic save** — the image streams to a `.tmp` sibling region by
//!   region, in the order [`PageStore::load_from`] reads it, is synced,
//!   then renamed over the target, and the directory is synced, so a
//!   crash mid-save leaves the old index untouched and a save that
//!   returned survives a power cut. Neither side holds the whole image:
//!   saving holds one page and the writer's buffer, opening one page.
//! * **Checksums** — every region (header, meta, free list, each page)
//!   carries an XXH64 digest; [`PageStore::load_from`] fails closed with
//!   a typed [`OpenError`] on the first mismatch.
//! * **Epochs** — a monotonically increasing save counter appears in the
//!   header *and* as the file's final 8 bytes; a truncated tail or a
//!   spliced file shows up as [`OpenError::EpochMismatch`] (or
//!   [`OpenError::Truncated`]) before any page is trusted.

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::checksum::xxh64;
use crate::{MemBackend, PageBackend as _, PageId, PageStore, PAGE_SIZE};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Magic prefix identifying index files (format version 2).
pub const MAGIC: &[u8; 8] = b"STIDX2\0\0";

/// Fixed-size header length: magic + epoch + three length fields.
const HEADER_LEN: usize = 8 + 8 + 4 + 4 + 4;

/// The save writer's buffer: all a save holds of the image. With the
/// 8 KiB default a live checkpoint took ~25 % longer than one write of
/// the whole image (`core.pipeline.checkpoint_p50_ms` on `sti-sysbench
/// ingest_durable`); at 256 KiB the two sets of runs overlap.
const WRITE_BUFFER: usize = 1 << 18;

/// Which checksummed region of an index file failed verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The fixed-size header.
    Header,
    /// The owner metadata block.
    Meta,
    /// The (always empty) free-list block.
    FreeList,
    /// One page slot.
    Page(PageId),
}

impl std::fmt::Display for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Region::Header => write!(f, "header"),
            Region::Meta => write!(f, "metadata"),
            Region::FreeList => write!(f, "free list"),
            Region::Page(id) => write!(f, "page {id}"),
        }
    }
}

/// Why an index file was rejected. Every malformed input — from a
/// zero-byte file to a single flipped bit in the last page — maps to one
/// of these variants; `load_from` never panics and never returns a
/// partially loaded store.
#[derive(Debug)]
pub enum OpenError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The file ends before a required region: a zero-byte file, a file
    /// shorter than one header, and a file cut anywhere else all take
    /// this same path.
    Truncated {
        /// Bytes needed to finish the region being read.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The magic prefix is not [`MAGIC`] (wrong or pre-checksum format).
    BadMagic,
    /// A region's content does not match its recorded checksum.
    Corrupt {
        /// The region that failed.
        region: Region,
    },
    /// Header and trailer epochs disagree (torn tail or spliced file).
    EpochMismatch {
        /// Epoch recorded in the header.
        header: u64,
        /// Epoch recorded in the trailer.
        trailer: u64,
    },
    /// A length or id field is internally inconsistent.
    Malformed(&'static str),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Io(e) => write!(f, "cannot read index file: {e}"),
            OpenError::Truncated { needed, have } => {
                write!(f, "index file truncated: need {needed} bytes, have {have}")
            }
            OpenError::BadMagic => write!(f, "not an STIDX2 index file"),
            OpenError::Corrupt { region } => {
                write!(f, "index file {region} failed checksum verification")
            }
            OpenError::EpochMismatch { header, trailer } => write!(
                f,
                "index file epoch mismatch: header {header}, trailer {trailer} (torn save?)"
            ),
            OpenError::Malformed(what) => write!(f, "malformed index file: {what}"),
        }
    }
}

impl std::error::Error for OpenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OpenError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for OpenError {
    fn from(e: io::Error) -> Self {
        OpenError::Io(e)
    }
}

impl From<OpenError> for io::Error {
    fn from(e: OpenError) -> Self {
        match e {
            OpenError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The `.tmp` sibling a save writes before renaming into place.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Removes the `.tmp` sibling on drop unless defused. A save that fails
/// after creating the temp file (disk full, a page that fails its read,
/// rename onto a directory, an interrupting signal unwinding the caller)
/// must not leave a partial image behind; only a *successful* rename
/// keeps the temp path alone. A process killed mid-save runs no
/// destructors, so a torn or unrenamed temp is still possible on disk,
/// and the reader never mistakes it for the target.
struct TempGuard {
    path: PathBuf,
    armed: bool,
}

impl TempGuard {
    fn new(path: PathBuf) -> Self {
        Self { path, armed: true }
    }

    fn defuse(&mut self) {
        self.armed = false;
    }
}

impl Drop for TempGuard {
    fn drop(&mut self) {
        if self.armed {
            std::fs::remove_file(&self.path).ok();
        }
    }
}

impl PageStore {
    /// The header of an image of the store plus `meta`, stamped with
    /// `epoch`. Its length checks are everything that can refuse a save
    /// before a byte of it is written.
    fn header(&self, meta: &[u8], epoch: u64) -> io::Result<Vec<u8>> {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&epoch.to_le_bytes());
        header.extend_from_slice(&len_u32(meta.len(), "metadata")?.to_le_bytes());
        header.extend_from_slice(&len_u32(self.num_pages(), "page count")?.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes()); // free_count
        Ok(header)
    }

    /// Write the version-2 image that `header` opens to `out`, region by
    /// region in the order [`PageStore::load_from`] reads it: no region
    /// is assembled in memory beyond the page being written.
    fn write_image(
        &self,
        header: &[u8],
        meta: &[u8],
        epoch: u64,
        out: &mut impl Write,
    ) -> io::Result<()> {
        out.write_all(header)?;
        out.write_all(&xxh64(header).to_le_bytes())?;
        out.write_all(meta)?;
        out.write_all(&xxh64(meta).to_le_bytes())?;
        out.write_all(&xxh64(&[]).to_le_bytes())?; // the empty free list
        for i in 0..self.num_pages() {
            let id = len_u32(i, "page id")?;
            let (page, sum) = self.page_and_sum(id).map_err(io::Error::other)?;
            out.write_all(page.bytes())?;
            out.write_all(&sum.to_le_bytes())?;
        }
        out.write_all(&epoch.to_le_bytes())
    }

    /// Write the store plus the owner's `meta` bytes to `path`
    /// atomically: the image streams to a `.tmp` sibling through a
    /// buffered writer, is synced, then renamed over `path`, and the
    /// parent directory is synced so the rename survives a power cut.
    /// On success the store's save epoch is bumped; an error before the
    /// rename leaves the previous file at `path` untouched and removes
    /// the temp.
    ///
    /// Shared: a save reads pages at rest and bumps an atomic epoch, so
    /// a store that readers are querying is saved in place. Saving one
    /// store from two threads at once is the callers' to serialize
    /// (both saves would stamp the same epoch).
    pub fn save_to(&self, path: &Path, meta: &[u8]) -> io::Result<()> {
        let epoch = self.epoch() + 1;
        let header = self.header(meta, epoch)?;
        let tmp = temp_sibling(path);
        let mut guard = TempGuard::new(tmp.clone());
        let mut out = BufWriter::with_capacity(WRITE_BUFFER, File::create(&tmp)?);
        self.write_image(&header, meta, epoch, &mut out)?;
        out.flush()?;
        out.get_ref().sync_all()?;
        drop(out);
        std::fs::rename(&tmp, path)?;
        guard.defuse();
        self.set_epoch(epoch);
        // A bare file name's parent is "": the current directory.
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()
    }

    /// Read a store back from `path`, returning it together with the
    /// owner's meta bytes. The buffer pool starts empty with
    /// `buffer_pages` capacity (capacity 0 is valid: recovery then
    /// replays with every fetch counted as a miss); I/O counters start
    /// at zero; the store adopts the file's save epoch.
    ///
    /// Fails closed: any truncation, checksum mismatch, epoch mismatch,
    /// or inconsistent length field rejects the whole file.
    ///
    /// The file is decoded as it is read, a page at a time, so opening
    /// holds the decoded store and one page of the file, never the whole
    /// image beside it.
    pub fn load_from(path: &Path, buffer_pages: usize) -> Result<(Self, Vec<u8>), OpenError> {
        let file = File::open(path)?;
        Self::decode_from(BufReader::new(file), buffer_pages)
    }

    /// Validate and decode a version-2 image read from `image`, in file
    /// order: every check runs as soon as its region has been read.
    fn decode_from(image: impl Read, buffer_pages: usize) -> Result<(Self, Vec<u8>), OpenError> {
        let mut r = Reader { inner: image };

        // Header: a zero-byte file and a half-written header both land
        // in the same Truncated arm here.
        let header: [u8; HEADER_LEN] = r.take_array()?;
        let header_sum = r.take_u64()?;
        let mut h = Reader { inner: &header[..] };
        // Distinguish "different format entirely" from "our format,
        // damaged": magic is checked on the raw bytes first.
        if &h.take_array::<8>()? != MAGIC {
            return Err(OpenError::BadMagic);
        }
        if xxh64(&header) != header_sum {
            return Err(OpenError::Corrupt {
                region: Region::Header,
            });
        }
        let epoch = h.take_u64()?;
        let meta_len = h.take_u32()? as usize;
        let page_count = h.take_u32()? as usize;
        let free_count = h.take_u32()?;
        if free_count != 0 {
            return Err(OpenError::Malformed("non-empty free list"));
        }

        let meta = r.take_vec(meta_len)?;
        let meta_sum = r.take_u64()?;
        if xxh64(&meta) != meta_sum {
            return Err(OpenError::Corrupt {
                region: Region::Meta,
            });
        }

        if xxh64(&[]) != r.take_u64()? {
            return Err(OpenError::Corrupt {
                region: Region::FreeList,
            });
        }

        let mut pages = MemBackend::new();
        let mut page_bytes = [0u8; PAGE_SIZE];
        for _ in 0..page_count {
            r.fill(&mut page_bytes)?;
            let page_sum = r.take_u64()?;
            let id = pages
                .allocate()
                .map_err(|_| OpenError::Malformed("page id overflow"))?;
            if xxh64(&page_bytes) != page_sum || pages.write(id, &page_bytes).is_err() {
                return Err(OpenError::Corrupt {
                    region: Region::Page(id),
                });
            }
        }
        let store = PageStore::with_backend(Box::new(pages), buffer_pages);

        let trailer = r.take_u64()?;
        if trailer != epoch {
            return Err(OpenError::EpochMismatch {
                header: epoch,
                trailer,
            });
        }
        match r.fill(&mut [0u8; 1]) {
            Err(OpenError::Truncated { .. }) => {}
            Ok(()) => return Err(OpenError::Malformed("trailing bytes after trailer")),
            Err(e) => return Err(e),
        }

        store.set_epoch(epoch);
        Ok((store, meta))
    }
}

/// Cursor over the image as it is read; every short read is a typed
/// [`OpenError::Truncated`].
struct Reader<R> {
    inner: R,
}

impl<R: Read> Reader<R> {
    /// Fill `buf` from the image. The file ending first is
    /// [`OpenError::Truncated`], with the bytes that were left.
    fn fill(&mut self, buf: &mut [u8]) -> Result<(), OpenError> {
        let mut have = 0;
        while let Some(rest) = buf.get_mut(have..).filter(|r| !r.is_empty()) {
            match self.inner.read(rest) {
                Ok(0) => {
                    return Err(OpenError::Truncated {
                        needed: buf.len(),
                        have,
                    })
                }
                Ok(n) => have += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(OpenError::Io(e)),
            }
        }
        Ok(())
    }

    /// The next `len` bytes of the image. The buffer grows only with
    /// bytes the file actually holds, so a header that claims more than
    /// the file has is [`OpenError::Truncated`], never a large
    /// allocation.
    fn take_vec(&mut self, len: usize) -> Result<Vec<u8>, OpenError> {
        let mut out = Vec::new();
        let limit = u64::try_from(len).unwrap_or(u64::MAX);
        (&mut self.inner).take(limit).read_to_end(&mut out)?;
        if out.len() < len {
            return Err(OpenError::Truncated {
                needed: len,
                have: out.len(),
            });
        }
        Ok(out)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], OpenError> {
        let mut out = [0u8; N];
        self.fill(&mut out)?;
        Ok(out)
    }

    fn take_u64(&mut self) -> Result<u64, OpenError> {
        self.take_array().map(u64::from_le_bytes)
    }

    fn take_u32(&mut self) -> Result<u32, OpenError> {
        self.take_array().map(u32::from_le_bytes)
    }
}

/// Encode a length field, rejecting sizes the `u32` file format can't
/// represent instead of truncating them.
fn len_u32(n: usize, what: &str) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} too large for index file format: {n}"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ReadProbe;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sti-persist-{}-{name}", std::process::id()));
        p
    }

    fn small_store() -> (PageStore, PageId, PageId, PageId) {
        let mut store = PageStore::new(4);
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        let c = store.allocate().unwrap();
        store.write(a, &[1, 2, 3]).unwrap();
        store.write(b, &[4; 100]).unwrap();
        store.write(c, &[7]).unwrap();
        (store, a, b, c)
    }

    /// The image `save_to` would write for `store` plus `meta` at `epoch`.
    fn image_of(store: &PageStore, meta: &[u8], epoch: u64) -> Vec<u8> {
        let mut out = Vec::new();
        let header = store.header(meta, epoch).unwrap();
        store.write_image(&header, meta, epoch, &mut out).unwrap();
        out
    }

    /// `image` with its free list replaced by `ids`, every checksum
    /// re-stamped: what a writer that kept a free list would have saved.
    fn with_free_list(image: &[u8], ids: &[PageId]) -> Vec<u8> {
        let meta_len = u32::from_le_bytes(image[16..20].try_into().unwrap()) as usize;
        let free_at = HEADER_LEN + 8 + meta_len + 8;
        let mut out = image[..HEADER_LEN].to_vec();
        out[24..28].copy_from_slice(&(ids.len() as u32).to_le_bytes());
        out.extend_from_slice(&xxh64(&out).to_le_bytes());
        out.extend_from_slice(&image[HEADER_LEN + 8..free_at]);
        let free: Vec<u8> = ids.iter().flat_map(|id| id.to_le_bytes()).collect();
        out.extend_from_slice(&free);
        out.extend_from_slice(&xxh64(&free).to_le_bytes());
        out.extend_from_slice(&image[free_at + 8..]);
        out
    }

    #[test]
    fn round_trip_pages_meta_free_list_and_epoch() {
        let (store, a, _, c) = small_store();
        let meta = b"hello index metadata".to_vec();

        let path = temp_path("roundtrip");
        store.save_to(&path, &meta).expect("save");
        assert_eq!(store.epoch(), 1, "save bumps the epoch");
        let image = std::fs::read(&path).expect("read");
        let (mut back, meta2) = PageStore::load_from(&path, 4).expect("load");
        std::fs::remove_file(&path).ok();

        assert_eq!(&image[24..28], &[0; 4], "the free list is written empty");
        assert_eq!(meta2, meta);
        assert_eq!(back.epoch(), 1, "loaded store adopts the file epoch");
        assert_eq!(back.num_pages(), 3);
        assert_eq!(
            &back.read(a, &mut ReadProbe::new()).unwrap().bytes()[..3],
            &[1, 2, 3]
        );
        assert_eq!(
            &back.read(c, &mut ReadProbe::new()).unwrap().bytes()[..1],
            &[7]
        );
        assert_eq!(back.allocate().unwrap(), 3, "allocation appends");
    }

    /// Hands out at most one byte per read, and is interrupted before
    /// every one of them.
    struct Trickle<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            match (self.bytes.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.bytes = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn an_image_read_a_byte_at_a_time_decodes_to_the_same_store() {
        let (store, ..) = small_store();
        let image = image_of(&store, b"trickled meta", 5);
        let trickle = |bytes| Trickle {
            bytes,
            interrupt: false,
        };
        let (back, meta) = PageStore::decode_from(trickle(&image), 2).unwrap();
        assert_eq!(meta, b"trickled meta");
        assert_eq!(back.epoch(), 5);
        assert_eq!(image_of(&back, &meta, 5), image, "same pages");

        // A damaged image fails the same way however it is delivered.
        let mut flipped = image.clone();
        flipped[image.len() - 100] ^= 1;
        let mut long = image.clone();
        long.push(0);
        let mut damaged = vec![flipped, long];
        for cut in [0, 20, 40, 80, image.len() / 2, image.len() - 1] {
            damaged.push(image[..cut].to_vec());
        }
        for bytes in &damaged {
            let whole = PageStore::decode_from(bytes.as_slice(), 2).unwrap_err();
            let trickled = PageStore::decode_from(trickle(bytes), 2).unwrap_err();
            assert_eq!(format!("{whole:?}"), format!("{trickled:?}"));
        }
    }

    #[test]
    fn epoch_is_monotonic_across_saves() {
        let (store, ..) = small_store();
        let path = temp_path("epoch");
        store.save_to(&path, &[]).expect("save 1");
        store.save_to(&path, &[]).expect("save 2");
        store.save_to(&path, &[]).expect("save 3");
        let (back, _) = PageStore::load_from(&path, 2).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.epoch(), 3);
    }

    #[test]
    fn rejects_wrong_magic() {
        let path = temp_path("badmagic");
        let mut bogus = b"NOTANIDX".to_vec();
        bogus.extend_from_slice(&[0u8; 40]);
        std::fs::write(&path, &bogus).expect("write");
        let err = PageStore::load_from(&path, 4).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, OpenError::BadMagic), "{err:?}");
    }

    #[test]
    fn zero_byte_and_sub_header_files_take_the_same_error_path() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").expect("write");
        let err = PageStore::load_from(&path, 4).unwrap_err();
        assert!(
            matches!(err, OpenError::Truncated { have: 0, .. }),
            "{err:?}"
        );

        std::fs::write(&path, b"STIDX2\0\0short").expect("write");
        let err = PageStore::load_from(&path, 4).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, OpenError::Truncated { have: 13, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_truncated_file_at_any_cut() {
        let (store, ..) = small_store();
        let path = temp_path("trunc");
        store.save_to(&path, b"meta").expect("save");
        let full = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        // Every prefix must be rejected, without panicking.
        for cut in [0, 1, 35, 36, 40, full.len() / 2, full.len() - 1] {
            let err = PageStore::decode_from(&full[..cut], 2).unwrap_err();
            assert!(
                matches!(err, OpenError::Truncated { .. } | OpenError::Corrupt { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_detected_in_every_region() {
        let (store, ..) = small_store();
        let path = temp_path("flip");
        store.save_to(&path, b"some meta").expect("save");
        let full = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).ok();

        // One flip inside the header, the meta, the free list, a page,
        // and the trailer — each must be caught.
        let header_at = 10;
        let meta_at = HEADER_LEN + 8 + 2;
        let free_at = HEADER_LEN + 8 + 9 + 8 + 1;
        let page_at = full.len() - 8 - (PAGE_SIZE + 8) - 100;
        let trailer_at = full.len() - 2;
        for at in [header_at, meta_at, free_at, page_at, trailer_at] {
            let mut corrupted = full.clone();
            corrupted[at] ^= 0x40;
            let err = PageStore::decode_from(corrupted.as_slice(), 2).unwrap_err();
            assert!(
                matches!(
                    err,
                    OpenError::Corrupt { .. } | OpenError::EpochMismatch { .. }
                ),
                "flip at {at}: {err:?}"
            );
        }
    }

    /// What a save killed before its rename leaves: the complete image
    /// at `temp_sibling(path)`, and the store's epoch not bumped.
    fn killed_save(store: &PageStore, path: &Path, meta: &[u8]) -> PathBuf {
        let tmp = temp_sibling(path);
        let epoch = store.epoch();
        store.save_to(&tmp, meta).expect("save the temp");
        store.set_epoch(epoch);
        tmp
    }

    /// Cut the file at `path` to its first `len` bytes: what a save
    /// killed mid-write leaves.
    fn cut(path: &Path, len: u64) {
        let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_len(len).unwrap();
    }

    #[test]
    fn mid_temp_crash_leaves_the_previous_file_intact() {
        let (mut store, a, ..) = small_store();
        let path = temp_path("midtemp");
        store.save_to(&path, b"v1").expect("save");

        store.write(a, &[99]).unwrap();
        let tmp = killed_save(&store, &path, b"v2");
        cut(&tmp, 50);
        assert_eq!(store.epoch(), 1, "crashed save must not bump the epoch");

        // The target still opens as v1; the torn temp fails closed.
        let (back, meta) = PageStore::load_from(&path, 2).expect("old file intact");
        assert_eq!(meta, b"v1");
        assert_eq!(back.epoch(), 1);
        let err = PageStore::load_from(&tmp, 2).unwrap_err();
        assert!(matches!(err, OpenError::Truncated { .. }), "{err:?}");

        // Had the write finished, the temp would load as v2.
        killed_save(&store, &path, b"v2");
        let (_, meta) = PageStore::load_from(&tmp, 2).expect("complete temp loads");
        assert_eq!(meta, b"v2");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn before_rename_crash_leaves_the_previous_file_current() {
        let (mut store, a, ..) = small_store();
        let path = temp_path("prerename");
        store.save_to(&path, b"v1").expect("save");
        store.write(a, &[42]).unwrap();
        let tmp = killed_save(&store, &path, b"v2");

        let (_, meta) = PageStore::load_from(&path, 2).expect("load");
        assert_eq!(meta, b"v1", "rename never happened");
        // The complete temp is valid on its own (recovery could adopt
        // it), at the *next* epoch; one byte short, it fails closed.
        let (adopted, meta2) = PageStore::load_from(&tmp, 2).expect("temp is complete");
        assert_eq!(meta2, b"v2");
        assert_eq!(adopted.epoch(), 2);
        cut(&tmp, tmp.metadata().unwrap().len() - 1);
        let err = PageStore::load_from(&tmp, 2).unwrap_err();
        assert!(matches!(err, OpenError::Truncated { .. }), "{err:?}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp).ok();
    }

    /// A header that claims more metadata than the file holds — here
    /// `u32::MAX` bytes, the format's own limit, re-stamped so its
    /// checksum passes — fails `Truncated` after reading only what the
    /// file has.
    #[test]
    fn a_header_claiming_u32_max_metadata_bytes_fails_truncated() {
        let (store, ..) = small_store();
        let mut full = image_of(&store, b"meta", 1);
        full[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let sum = xxh64(&full[..HEADER_LEN]);
        full[HEADER_LEN..HEADER_LEN + 8].copy_from_slice(&sum.to_le_bytes());
        let err = PageStore::decode_from(full.as_slice(), 2).unwrap_err();
        let have = full.len() - HEADER_LEN - 8;
        assert!(
            matches!(err, OpenError::Truncated { needed, have: h }
                if needed == u32::MAX as usize && h == have),
            "{err:?}"
        );
    }

    #[test]
    fn capacity_zero_buffer_replays_recovery_reads() {
        let (store, a, _, c) = small_store();
        let path = temp_path("cap0");
        store.save_to(&path, &[]).expect("save");
        let (back, _) = PageStore::load_from(&path, 0).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(
            &back.read(a, &mut ReadProbe::new()).unwrap().bytes()[..3],
            &[1, 2, 3]
        );
        assert_eq!(
            &back.read(c, &mut ReadProbe::new()).unwrap().bytes()[..1],
            &[7]
        );
        back.read(a, &mut ReadProbe::new()).unwrap();
        let st = back.stats();
        assert_eq!(st.reads, 3, "capacity 0: every fetch is a miss");
        assert_eq!(st.buffer_hits, 0);
    }

    #[test]
    fn loaded_store_counts_fresh_io() {
        let mut store = PageStore::new(2);
        let a = store.allocate().unwrap();
        store.write(a, &[1]).unwrap();
        let path = temp_path("io");
        store.save_to(&path, &[]).expect("save");
        let (back, _) = PageStore::load_from(&path, 2).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.stats().reads, 0);
        back.read(a, &mut ReadProbe::new()).unwrap();
        assert_eq!(back.stats().reads, 1);
    }

    /// A save that fails *after* the temp file is written — here the
    /// rename is forced to fail by making the target a directory — must
    /// clean its `.tmp` sibling up instead of leaving a partial image
    /// behind (the `stidx ingest` interrupted-mid-commit bug).
    #[test]
    fn failed_save_removes_its_temp_file() {
        let (store, ..) = small_store();
        let path = temp_path("tmp-cleanup");
        std::fs::remove_file(&path).ok();
        std::fs::create_dir_all(&path).expect("decoy directory");
        let err = store.save_to(&path, b"meta").unwrap_err();
        let tmp = temp_sibling(&path);
        let leftover = tmp.exists();
        std::fs::remove_dir_all(&path).ok();
        std::fs::remove_file(&tmp).ok();
        assert_eq!(store.epoch(), 0, "failed save must not bump the epoch");
        assert!(!leftover, "temp file survived a failed save: {err}");
    }

    #[test]
    fn rejects_duplicate_free_ids_and_trailing_garbage() {
        let (store, ..) = small_store();
        let path = temp_path("malformed");
        store.save_to(&path, &[]).expect("save");
        let mut full = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        let err = PageStore::decode_from(with_free_list(&full, &[1, 1]).as_slice(), 2).unwrap_err();
        assert!(matches!(err, OpenError::Malformed(_)), "{err:?}");
        full.push(0);
        let err = PageStore::decode_from(full.as_slice(), 2).unwrap_err();
        assert!(matches!(err, OpenError::Malformed(_)), "{err:?}");
    }

    /// An image carrying a free list — checksums intact, ids in range —
    /// fails typed: no writer of this format leaves one, and nothing
    /// here would honour it.
    #[test]
    fn a_non_empty_free_list_fails_malformed() {
        let (store, ..) = small_store();
        let path = temp_path("free-list");
        store.save_to(&path, b"meta").expect("save");
        let full = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).ok();
        assert!(PageStore::decode_from(with_free_list(&full, &[]).as_slice(), 2).is_ok());
        for ids in [&[1][..], &[0, 2]] {
            let err = PageStore::decode_from(with_free_list(&full, ids).as_slice(), 2).unwrap_err();
            assert!(
                matches!(err, OpenError::Malformed("non-empty free list")),
                "{ids:?}: {err:?}"
            );
        }
    }
}
