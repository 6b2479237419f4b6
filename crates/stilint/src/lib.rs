//! `stilint` — the workspace's call-graph lint pass.
//!
//! A dependency-free analyzer (no `syn`; the build environment is
//! offline) for the two rules clippy cannot express, because both need
//! facts that span functions and files. Phase 1 masks each file
//! (`mask`) and parses an item model (`parse`); phase 2 links the models
//! into a workspace call graph (`graph`) and runs the rules:
//!
//! * **R7 `lock_discipline`** — no backend I/O, second lock
//!   acquisition, or unbounded `loop` while a lock guard is live.
//! * **R8 `atomic_order`** — every atomic op names an explicit
//!   `Ordering` with a `// ordering:` justification; `Relaxed` is
//!   forbidden on the publication pointer path.
//!
//! Each rule carries its own justification marker (`// bounded:` on a
//! loop, `// ordering:` on an atomic); there is no generic escape hatch
//! and no baseline of tolerated findings: the CLI fails on any
//! diagnostic. R1–R6 are clippy lints denied by each library crate's
//! `lib.rs` (CONTRIBUTING.md, "The `stilint` pass").

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::print_stdout))]
#![cfg_attr(not(test), deny(clippy::exit, clippy::allow_attributes_without_reason))]
#![cfg_attr(not(test), deny(clippy::allow_attributes))]

pub mod atomic_order;
pub mod graph;
pub mod lock_discipline;
pub mod mask;
pub mod parse;

use graph::{FileInput, Graph};
use std::path::{Path, PathBuf};

/// One diagnostic: a rule hit or an unclassified file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (or `unclassified_file`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// How the rules apply to one linted file. Both rules hold in every
/// linted file; this records the one per-file modifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    /// `Ordering::Relaxed` forbidden (the publication pointer path).
    pub strict_atomic: bool,
}

/// The full classification verdict for a path: lint it, skip it for a
/// stated reason, or flag it as a file the matrix does not know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// Library code: lint with these rules.
    Lint(FileClass),
    /// Deliberately out of scope (vendored stand-in, test, bench, bin).
    Exempt(&'static str),
    /// An `.rs` file the matrix has no entry for — surfaced as a
    /// diagnostic so new top-level locations get a conscious decision.
    Unknown,
}

/// Classify a workspace-relative path (forward slashes).
///
/// * Vendored offline stand-ins (`crates/rand`, `crates/proptest`,
///   `crates/criterion`) mirror external crates' APIs and are exempt
///   wholesale.
/// * `crates/bench`, `src/bin`, `tests/`, `benches/`, `examples/` are
///   binaries or test code: measurement and test harnesses may spin and
///   lock as they please.
/// * Everything else under `crates/*/src` or `src/` is library code —
///   the same set whose `lib.rs` carries the clippy denials.
///   `strict_atomic` marks the snapshot-publication files in
///   `crates/core`.
/// * Any other `.rs` file is `Unknown` and reported, so a new top-level
///   directory can't silently dodge the lint.
pub fn classify_full(rel: &str) -> Classification {
    if !rel.ends_with(".rs") {
        return Classification::Exempt("not a Rust source file");
    }
    for vendored in ["crates/rand/", "crates/proptest/", "crates/criterion/"] {
        if rel.starts_with(vendored) {
            return Classification::Exempt("vendored offline stand-in");
        }
    }
    let test_or_bin = rel.starts_with("crates/bench/")
        || rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("src/bin/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.contains("/src/bin/");
    if test_or_bin {
        return Classification::Exempt("test, bench, or binary harness");
    }
    let library = rel.starts_with("src/") || rel.starts_with("crates/");
    if !library {
        return Classification::Unknown;
    }
    Classification::Lint(FileClass {
        strict_atomic: rel == "crates/core/src/version.rs" || rel == "crates/core/src/pipeline.rs",
    })
}

/// Mark the 1-based lines covered by `#[cfg(test)]` / `#[test]` /
/// `#[bench]`-gated items in the masked text.
fn test_exempt_lines(masked: &str) -> Vec<bool> {
    let line_count = masked.lines().count();
    let mut exempt = vec![false; line_count + 2];
    let bytes = masked.as_bytes();

    // Byte offset -> 1-based line number, cheap via prefix scan.
    let mut line_of = vec![1usize; bytes.len() + 1];
    let mut ln = 1usize;
    for (i, &b) in bytes.iter().enumerate() {
        line_of[i] = ln;
        if b == b'\n' {
            ln += 1;
        }
    }
    line_of[bytes.len()] = ln;

    let mut mark = |from: usize, to: usize| {
        let (a, b) = (line_of[from.min(bytes.len())], line_of[to.min(bytes.len())]);
        for line in exempt.iter_mut().take(b + 1).skip(a) {
            *line = true;
        }
    };

    let mut search_from = 0;
    while let Some(rel) = masked[search_from..].find("#[") {
        let attr_at = search_from + rel;
        search_from = attr_at + 2;
        let rest = &masked[attr_at..];
        let Some(attr_close) = rest.find(']') else {
            continue;
        };
        let attr = &rest[..attr_close + 1];
        let compact: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
        let is_test_attr = compact == "#[test]"
            || compact == "#[bench]"
            || compact.starts_with("#[cfg(test")
            || compact.starts_with("#[cfg(all(test")
            || compact.starts_with("#[cfg(any(test");
        if !is_test_attr {
            continue;
        }
        // Exempt from the attribute through the end of the following item:
        // the block opened by the next `{` (or just the attribute line for
        // path-form `mod tests;`).
        let body = &masked[attr_at + attr.len()..];
        let brace = body.find('{');
        let semi = body.find(';');
        let open = match (brace, semi) {
            (Some(b), Some(s)) if s < b => {
                mark(attr_at, attr_at + attr.len() + s);
                continue;
            }
            (Some(b), _) => attr_at + attr.len() + b,
            (None, Some(s)) => {
                mark(attr_at, attr_at + attr.len() + s);
                continue;
            }
            (None, None) => continue,
        };
        let mut depth = 0usize;
        let mut end = open;
        for (off, ch) in masked[open..].char_indices() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + off;
                        break;
                    }
                }
                _ => {}
            }
        }
        mark(attr_at, end);
    }
    exempt
}

/// Phase 1 for one file: mask it and parse its item model.
fn file_input(path: &str, src: &str, class: FileClass) -> FileInput {
    let masked = mask::mask(src);
    // Byte-index the masked text safely: non-ASCII can only sit in
    // identifiers after masking; blank it for the scanners.
    let ascii: String = masked
        .text
        .chars()
        .map(|c| if c.is_ascii() { c } else { ' ' })
        .collect();
    let exempt = test_exempt_lines(&ascii);
    FileInput {
        path: path.to_string(),
        model: parse::parse(&ascii, &masked.comments, &exempt),
        strict_atomic: class.strict_atomic,
    }
}

/// Scan a batch of files as one unit: phase 1 parses each file's item
/// model; phase 2 links the models into a workspace call graph and runs
/// R7 and R8. Files must be passed together for cross-file call chains
/// to resolve.
pub fn scan_sources(files: &[(&str, &str, FileClass)]) -> Vec<Diagnostic> {
    let graph = Graph::build(
        files
            .iter()
            .map(|&(path, src, class)| file_input(path, src, class))
            .collect(),
    );
    let mut out = lock_discipline::run(&graph);
    out.extend(atomic_order::run(&graph));
    out.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    out
}

/// Collect the `.rs` files to scan under `root` (workspace-relative,
/// sorted for deterministic output).
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name == "target" || name == ".git" || name == ".github" {
            continue;
        }
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Scan the whole workspace rooted at `root`. Every linted file goes
/// through one [`scan_sources`] batch so the call graph spans the
/// workspace; `.rs` files the classification matrix does not know are
/// reported as `unclassified_file`.
pub fn scan_workspace(root: &Path) -> std::io::Result<(Vec<Diagnostic>, usize)> {
    let files = collect_files(root)?;
    let mut diags = Vec::new();
    let mut sources: Vec<(String, String, FileClass)> = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        match classify_full(&rel) {
            Classification::Exempt(_) => continue,
            Classification::Unknown => diags.push(Diagnostic {
                path: rel,
                line: 1,
                rule: "unclassified_file".to_string(),
                message: "no classification entry for this file; decide its rule set \
                          in stilint's `classify_full` matrix"
                    .to_string(),
            }),
            Classification::Lint(class) => {
                sources.push((rel, std::fs::read_to_string(file)?, class));
            }
        }
    }
    let scanned = sources.len();
    let refs: Vec<(&str, &str, FileClass)> = sources
        .iter()
        .map(|(p, s, c)| (p.as_str(), s.as_str(), *c))
        .collect();
    diags.extend(scan_sources(&refs));
    diags.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok((diags, scanned))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: FileClass = FileClass {
        strict_atomic: false,
    };

    fn scan(src: &str) -> Vec<Diagnostic> {
        scan_sources(&[("crates/core/src/a.rs", src, LIB)])
    }

    #[test]
    fn classification_matrix() {
        let lint = |rel: &str| matches!(classify_full(rel), Classification::Lint(_));
        for rel in [
            "crates/geom/src/rect2.rs",
            "crates/storage/src/wal.rs",
            "crates/core/src/recover.rs",
            "crates/stilint/src/parse.rs",
            "src/lib.rs",
        ] {
            assert!(lint(rel), "{rel}");
        }
        let exempt = |rel: &str| matches!(classify_full(rel), Classification::Exempt(_));
        for rel in [
            "crates/rand/src/lib.rs",
            "crates/bench/src/bin/fig11.rs",
            "src/bin/stidx.rs",
            "tests/cli.rs",
            "crates/pprtree/benches/x.rs",
            "README.md",
        ] {
            assert!(exempt(rel), "{rel}");
        }
        // strict_atomic only on the publication files.
        let strict = |rel: &str| {
            classify_full(rel)
                == Classification::Lint(FileClass {
                    strict_atomic: true,
                })
        };
        assert!(strict("crates/core/src/version.rs"));
        assert!(strict("crates/core/src/pipeline.rs"));
        assert!(!strict("crates/core/src/store.rs"));
        // Unknown top-level .rs files are flagged, not silently skipped.
        assert_eq!(classify_full("build.rs"), Classification::Unknown);
    }

    /// An unjustified atomic: R8's cheapest trigger.
    const BARE_ATOMIC: &str = "self.hits.fetch_add(1, Ordering::Relaxed);";

    #[test]
    fn cfg_test_block_exempts_to_closing_brace_only() {
        let src = format!(
            "struct S {{ hits: AtomicU64 }}\n\
             #[cfg(test)]\n\
             mod tests {{\n\
                 fn g(&self) {{ {BARE_ATOMIC} }}\n\
             }}\n\
             fn after(&self) {{ {BARE_ATOMIC} }}\n"
        );
        let d = scan(&src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 6);
        assert_eq!(d[0].rule, "atomic_order");
    }

    #[test]
    fn doc_comments_and_strings_do_not_fire() {
        let src = format!(
            "struct S {{ hits: AtomicU64 }}\n\
             /// ```\n/// {BARE_ATOMIC}\n/// ```\n\
             fn f() {{ let s = \"{BARE_ATOMIC}\"; }}\n"
        );
        assert!(scan(&src).is_empty());
    }
}
