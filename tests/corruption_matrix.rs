//! Exhaustive corruption matrix over a saved index image: flip every
//! byte offset and truncate at every page boundary, and assert the
//! loader + sanitizer pair never panics — every damaged image is either
//! rejected with a typed error at open time or caught by
//! `check::validate` afterwards.

use spatiotemporal_index::pprtree::{check, PprParams, PprTree};
use spatiotemporal_index::prelude::*;
use spatiotemporal_index::storage::PAGE_SIZE;
use std::path::PathBuf;

fn temp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sti-corrupt-{}-{name}", std::process::id()));
    p
}

/// A deliberately tiny index so the byte-exhaustive sweep stays fast:
/// a handful of pages, every structural region (header, meta, free
/// list, pages, trailer) present. `name` keeps each caller's scratch file
/// apart: the tests of this binary run in parallel in one process.
fn tiny_ppr_image(name: &str) -> Vec<u8> {
    let mut tree = PprTree::new(PprParams {
        max_entries: 10,
        buffer_pages: 4,
        ..PprParams::default()
    });
    let rect_for = |i: u64| {
        let x = (i % 8) as f64 * 0.1;
        let y = (i / 8) as f64 * 0.2;
        Rect2::from_bounds(x, y, x + 0.05, y + 0.05)
    };
    for i in 0..32u64 {
        tree.insert(i, rect_for(i), i as u32).unwrap();
    }
    for i in (0..32u64).step_by(4) {
        tree.delete(i, rect_for(i), 40 + i as u32).unwrap();
    }
    let path = temp(name);
    tree.save_to_file(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read image");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Flip every single byte of the image in turn. Opening the damaged
/// file must fail with a typed error, or the loaded tree must be caught
/// by the sanitizer; in no case may either of them panic, and a flip
/// must never go completely unnoticed.
#[test]
fn every_single_byte_flip_is_detected_without_panicking() {
    let pristine = tiny_ppr_image("ppr-flip-src");
    assert!(
        pristine.len() < 40 * PAGE_SIZE,
        "matrix input grew too large to sweep: {} bytes",
        pristine.len()
    );
    let path = temp("ppr-flip");
    let mut undetected = Vec::new();
    for offset in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[offset] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        match PprTree::open_file(&path) {
            // Fail-closed at open time: a typed io::Error. Nothing to
            // assert beyond "it did not panic".
            Err(_) => {}
            // The loader let it through: the sanitizer must object.
            Ok(back) => {
                if check::validate(&back).is_ok() {
                    undetected.push(offset);
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(
        undetected.is_empty(),
        "byte flips at {undetected:?} survived both the loader and the sanitizer"
    );
}

/// Truncate at every page boundary (and at every offset within the
/// first page, which holds the header and metadata): `open_file` must
/// reject every prefix of a valid image.
#[test]
fn every_truncation_point_fails_closed() {
    let pristine = tiny_ppr_image("ppr-trunc-src");
    let path = temp("ppr-trunc");
    let header_cuts = 0..pristine.len().min(PAGE_SIZE);
    let page_cuts = (1..)
        .map(|i| i * PAGE_SIZE)
        .take_while(|&c| c < pristine.len());
    for cut in header_cuts.chain(page_cuts) {
        std::fs::write(&path, &pristine[..cut]).unwrap();
        assert!(
            PprTree::open_file(&path).is_err(),
            "prefix of {cut}/{} bytes must be rejected",
            pristine.len()
        );
    }
    std::fs::remove_file(&path).ok();
}
