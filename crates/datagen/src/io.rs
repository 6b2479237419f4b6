//! A compact binary file format for rasterized datasets, so generated
//! workloads can be saved once and reused across runs and tools.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "STDAT1\0\0" · object_count: u32 ·
//! per object: id u64 · start u32 · instants u32 · boundary_count u32 ·
//!             boundaries (u32 each) · rects (4 × f64 each)
//! ```

#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use sti_geom::Rect2;
use sti_trajectory::RasterizedObject;

/// Magic prefix identifying dataset files.
pub const DATASET_MAGIC: &[u8; 8] = b"STDAT1\0\0";

/// Write a rasterized dataset to `path`.
pub fn save_dataset(path: &Path, objects: &[RasterizedObject]) -> io::Result<()> {
    let mut w = DatasetWriter::create(path)?;
    for o in objects {
        w.append(o)?;
    }
    w.finish()
}

/// Streaming dataset writer: [`DatasetWriter::append`] objects one at a
/// time, then [`DatasetWriter::finish`] patches the object count into
/// the header. The big tier generates millions of objects straight to
/// disk through this instead of materializing them.
#[derive(Debug)]
pub struct DatasetWriter {
    w: BufWriter<File>,
    count: u32,
}

impl DatasetWriter {
    /// Create (or truncate) a dataset file at `path`. The header's
    /// object count is a placeholder until [`DatasetWriter::finish`].
    pub fn create(path: &Path) -> io::Result<Self> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(DATASET_MAGIC)?;
        w.write_all(&0u32.to_le_bytes())?;
        Ok(Self { w, count: 0 })
    }

    /// Append one object.
    pub fn append(&mut self, o: &RasterizedObject) -> io::Result<()> {
        if self.count == u32::MAX {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "dataset file format caps object count at u32::MAX",
            ));
        }
        let w = &mut self.w;
        w.write_all(&o.id().to_le_bytes())?;
        w.write_all(&o.start().to_le_bytes())?;
        w.write_all(&field_u32(o.len(), "instant count")?.to_le_bytes())?;
        let bounds = o.boundaries();
        w.write_all(&field_u32(bounds.len(), "boundary count")?.to_le_bytes())?;
        for &b in bounds {
            w.write_all(&field_u32(b, "boundary offset")?.to_le_bytes())?;
        }
        for i in 0..o.len() {
            let r = o.rect(i);
            for v in [r.lo.x, r.lo.y, r.hi.x, r.hi.y] {
                w.write_all(&v.to_le_bytes())?;
            }
        }
        self.count += 1;
        Ok(())
    }

    /// Flush and patch the final object count into the header.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.flush()?;
        let f = self.w.get_mut();
        f.seek(SeekFrom::Start(DATASET_MAGIC.len() as u64))?;
        f.write_all(&self.count.to_le_bytes())?;
        f.flush()
    }
}

/// Encode a length/offset field, rejecting values the `u32` file format
/// cannot represent instead of truncating them.
fn field_u32(n: usize, what: &str) -> io::Result<u32> {
    u32::try_from(n).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} too large for dataset file format: {n}"),
        )
    })
}

/// Read a dataset previously written by [`save_dataset`].
pub fn load_dataset(path: &Path) -> io::Result<Vec<RasterizedObject>> {
    DatasetReader::open(path)?.collect()
}

/// Streaming dataset reader: iterates objects without holding the whole
/// dataset in memory. [`DatasetReader::remaining`] reports how many
/// objects the header promises are still unread.
#[derive(Debug)]
pub struct DatasetReader {
    r: BufReader<File>,
    remaining: u32,
}

impl DatasetReader {
    /// Open a dataset file and validate its header.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != DATASET_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an STDAT dataset file",
            ));
        }
        let remaining = read_u32(&mut r)?;
        Ok(Self { r, remaining })
    }

    /// Objects not yet yielded (from the file header).
    pub fn remaining(&self) -> usize {
        self.remaining as usize
    }

    fn read_object(&mut self) -> io::Result<RasterizedObject> {
        let bad = |m: &'static str| io::Error::new(io::ErrorKind::InvalidData, m);
        let r = &mut self.r;
        let id = read_u64(r)?;
        let start = read_u32(r)?;
        let instants = read_u32(r)? as usize;
        if instants == 0 || instants > 1 << 24 {
            return Err(bad("implausible instant count"));
        }
        let bcount = read_u32(r)? as usize;
        if bcount >= instants {
            return Err(bad("more boundaries than instants"));
        }
        let mut boundaries = Vec::with_capacity(bcount);
        for _ in 0..bcount {
            boundaries.push(read_u32(r)? as usize);
        }
        let mut rects = Vec::with_capacity(instants);
        for _ in 0..instants {
            let lx = read_f64(r)?;
            let ly = read_f64(r)?;
            let hx = read_f64(r)?;
            let hy = read_f64(r)?;
            let finite = [lx, ly, hx, hy].iter().all(|v| v.is_finite());
            if !(finite && lx <= hx && ly <= hy) {
                return Err(bad("corrupt rectangle"));
            }
            rects.push(Rect2::from_bounds(lx, ly, hx, hy));
        }
        // `with_boundaries` validates ordering; map its panic to an error
        // by pre-checking.
        if !boundaries.is_sorted_by(|a, b| a < b)
            || boundaries.iter().any(|&b| b == 0 || b >= instants)
        {
            return Err(bad("corrupt boundaries"));
        }
        Ok(RasterizedObject::with_boundaries(
            id, start, rects, boundaries,
        ))
    }
}

impl Iterator for DatasetReader {
    type Item = io::Result<RasterizedObject>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.read_object())
    }
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RailwayDatasetSpec, RandomDatasetSpec};

    fn temp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sti-dataset-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trip_random_dataset() {
        let objs = RandomDatasetSpec::paper(60).generate();
        let path = temp("random");
        save_dataset(&path, &objs).expect("save");
        let back = load_dataset(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, objs);
    }

    #[test]
    fn round_trip_railway_with_boundaries() {
        let objs = RailwayDatasetSpec::paper(40).generate_rasterized();
        let path = temp("railway");
        save_dataset(&path, &objs).expect("save");
        let back = load_dataset(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, objs);
        // boundaries survive (the piecewise baseline depends on them)
        assert!(back.iter().any(|o| !o.boundaries().is_empty()));
    }

    #[test]
    fn streaming_writer_and_reader_match_batch_path() {
        let objs = RandomDatasetSpec::paper(25).generate();
        let path = temp("stream");
        let mut w = DatasetWriter::create(&path).expect("create");
        for o in &objs {
            w.append(o).expect("append");
        }
        w.finish().expect("finish");
        let mut r = DatasetReader::open(&path).expect("open");
        assert_eq!(r.remaining(), objs.len());
        let mut back = Vec::new();
        for item in &mut r {
            back.push(item.expect("object"));
        }
        assert_eq!(r.remaining(), 0);
        std::fs::remove_file(&path).ok();
        assert_eq!(back, objs);
    }

    #[test]
    fn big_tier_spec_streams_identically_to_generate() {
        let spec = RandomDatasetSpec::big(40);
        let streamed: Vec<_> = spec.iter().collect();
        assert_eq!(streamed, spec.generate());
        // Big tier means churn: short lifetimes.
        assert!(streamed.iter().all(|o| o.len() <= 10));
    }

    #[test]
    fn rejects_garbage() {
        let path = temp("garbage");
        std::fs::write(&path, b"not a dataset at all").expect("write");
        assert!(load_dataset(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        // lo=(0,-inf), hi=(+inf,1) satisfies the ordering checks; every
        // coordinate must be finiteness-checked individually.
        let objs = RandomDatasetSpec::paper(3).generate();
        let path = temp("inf");
        save_dataset(&path, &objs).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        // First rect of the first object starts after the per-object
        // header: magic(8)+count(4)+id(8)+start(4)+instants(4)+bcount(4)
        // + boundaries (bcount × 4).
        let bcount = u32::from_le_bytes(bytes[24..28].try_into().unwrap()) as usize;
        let off = 28 + bcount * 4;
        bytes[off + 8..off + 16].copy_from_slice(&f64::NEG_INFINITY.to_le_bytes()); // ly
        bytes[off + 16..off + 24].copy_from_slice(&f64::INFINITY.to_le_bytes()); // hx
        std::fs::write(&path, &bytes).expect("write");
        assert!(
            load_dataset(&path).is_err(),
            "non-finite rect must be rejected"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_truncation() {
        let objs = RandomDatasetSpec::paper(10).generate();
        let path = temp("trunc");
        save_dataset(&path, &objs).expect("save");
        let full = std::fs::read(&path).expect("read");
        std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");
        assert!(load_dataset(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
