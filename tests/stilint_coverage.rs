//! The workspace's lint policy, pinned.
//!
//! * Every `.rs` file in the repository must get a *deliberate* decision
//!   from stilint's classification matrix: either it is linted, or it is
//!   exempt for a stated reason. A file the matrix does not know
//!   (`Classification::Unknown`) fails, so adding a new top-level
//!   directory forces a conscious choice instead of silently dodging the
//!   lint.
//! * R1–R6 are clippy lints denied by crate- and file-level attributes
//!   (CONTRIBUTING.md, "The `stilint` pass"). Every library crate stilint
//!   lints must carry them verbatim, so dropping a line fails here rather
//!   than silently narrowing what `cargo clippy` checks.

use std::path::{Path, PathBuf};
use stilint::{classify_full, collect_files, Classification};

/// R1 `no_panic` / R5 `no_io_unwrap`, R4 `no_process_io`, and the
/// `#[expect(lint, reason)]` policy: every library crate's `lib.rs`.
const COMMON: [&str; 5] = [
    "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]",
    "#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]",
    "#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]",
    "#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]",
    "#![cfg_attr(not(test), deny(clippy::allow_attributes))]",
];

/// R2 `float_eq`: the geometry and cost-model crates.
const FLOAT_EQ: [&str; 1] = ["#![cfg_attr(not(test), deny(clippy::float_cmp))]"];

/// R3 `narrowing_cast`: the page store and the PPR-Tree.
const NARROWING_CAST: [&str; 2] = [
    "#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]",
    "#![cfg_attr(not(test), deny(clippy::cast_possible_wrap, clippy::cast_sign_loss))]",
];

/// R6 `panic_path`: indexing in the files that decode bytes from outside
/// the process.
const INDEXING: [&str; 1] = ["#![cfg_attr(not(test), deny(clippy::indexing_slicing))]"];

const DECODE_FILES: [&str; 10] = [
    "crates/storage/src/persist.rs",
    "crates/storage/src/codec.rs",
    "crates/storage/src/page.rs",
    "crates/storage/src/checksum.rs",
    "crates/storage/src/wal.rs",
    "crates/pprtree/src/node.rs",
    "crates/rstar/src/node.rs",
    "crates/core/src/recover.rs",
    "crates/server/src/http.rs",
    "crates/datagen/src/io.rs",
];

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR for the root package *is* the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rel(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The attribute lines `rel` must carry under the policy.
fn required(rel: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.strip_suffix("/src/lib.rs"))
        .filter(|k| !k.contains('/'));
    let crate_root = rel == "src/lib.rs" || krate.is_some();
    if crate_root && matches!(classify_full(rel), Classification::Lint(_)) {
        out.extend(COMMON);
        if matches!(krate, Some("geom" | "costmodel")) {
            out.extend(FLOAT_EQ);
        }
        if matches!(krate, Some("storage" | "pprtree")) {
            out.extend(NARROWING_CAST);
        }
    }
    if DECODE_FILES.contains(&rel) {
        out.extend(INDEXING);
    }
    out
}

/// Required lines `text` does not carry verbatim.
fn missing(rel: &str, text: &str) -> Vec<&'static str> {
    required(rel)
        .into_iter()
        .filter(|want| !text.lines().any(|l| l == *want))
        .collect()
}

#[test]
fn every_rust_file_gets_a_deliberate_classification() {
    let root = workspace_root();
    let files = collect_files(&root).expect("walk workspace");
    assert!(
        files.len() > 50,
        "suspiciously few files ({}) — walking the wrong root?",
        files.len()
    );
    let mut unknown = Vec::new();
    for file in &files {
        let rel = rel(&root, file);
        match classify_full(&rel) {
            Classification::Unknown => unknown.push(rel),
            Classification::Exempt(reason) => {
                assert!(!reason.is_empty(), "{rel}: exemption without a reason");
            }
            Classification::Lint(_) => {}
        }
    }
    assert!(
        unknown.is_empty(),
        "files without a classification entry (add them to stilint's \
         classify_full matrix): {unknown:#?}"
    );
}

#[test]
fn library_crates_deny_the_moved_rules_in_clippy() {
    let root = workspace_root();
    let mut checked = Vec::new();
    let mut gaps = Vec::new();
    for file in collect_files(&root).expect("walk workspace") {
        let rel = rel(&root, &file);
        if required(&rel).is_empty() {
            continue;
        }
        let text = std::fs::read_to_string(&file).expect("read source");
        for line in missing(&rel, &text) {
            gaps.push(format!("{rel}: {line}"));
        }
        checked.push(rel);
    }
    assert!(gaps.is_empty(), "lint policy lines missing: {gaps:#?}");
    // The scoped rules must have found their files: a renamed crate or
    // decode file must not turn its rule into a no-op.
    for rel in DECODE_FILES.iter().chain(&[
        "src/lib.rs",
        "crates/geom/src/lib.rs",
        "crates/costmodel/src/lib.rs",
        "crates/storage/src/lib.rs",
        "crates/pprtree/src/lib.rs",
    ]) {
        assert!(checked.iter().any(|c| c == rel), "{rel} not found");
    }
    // Vendored stand-ins and the bench harness are outside the policy.
    for rel in ["crates/rand/src/lib.rs", "crates/bench/src/lib.rs"] {
        assert!(required(rel).is_empty(), "{rel}");
    }
    // And the check has teeth: dropping any one required line from any
    // checked file is reported.
    for rel in &checked {
        let text = std::fs::read_to_string(root.join(rel)).expect("read source");
        for line in required(rel) {
            let dropped: String = text
                .lines()
                .filter(|l| *l != line)
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(missing(rel, &dropped), vec![line], "{rel}");
        }
    }
}
