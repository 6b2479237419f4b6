//! `stilint` — the workspace's repo-specific static-analysis pass.
//!
//! A dependency-free analyzer (no `syn`; the build environment is
//! offline) enforcing rules the type system cannot express. Phase 1
//! masks each file (`mask`), runs the per-line rules, and parses an
//! item model (`parse`); phase 2 links the models into a workspace
//! call graph (`graph`) and runs the interprocedural rules:
//!
//! * **R1 `no_panic`** — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   `todo!`/`unimplemented!` in non-test, non-bench library code.
//! * **R2 `float_eq`** — no `==`/`!=` on floating-point operands in
//!   `sti-geom` and `sti-costmodel` math.
//! * **R3 `narrowing_cast`** — no narrowing `as` casts on index/page
//!   arithmetic in `sti-storage` and `sti-pprtree`.
//! * **R4 `no_process_io`** — no `std::process::exit` or direct stdout
//!   writes in library crates.
//! * **R5 `no_io_unwrap`** — no `.unwrap()`/`.expect(` on storage-I/O
//!   results.
//! * **R6 `panic_path`** — a `pub fn` must not transitively reach a
//!   panic source; diagnostics carry the call chain. `x[..]` indexing
//!   is a source only in the files that decode bytes from outside the
//!   process.
//! * **R7 `lock_discipline`** — no backend I/O, second lock
//!   acquisition, or unbounded `loop` while a lock guard is live.
//! * **R8 `atomic_order`** — every atomic op names an explicit
//!   `Ordering` with a `// ordering:` justification; `Relaxed` is
//!   forbidden on the publication pointer path.
//!
//! Any hit can be suppressed with a justified escape hatch on (or
//! immediately above) the offending line:
//!
//! ```text
//! // stilint::allow(no_panic, "pages written by this tree always decode")
//! ```
//!
//! Allows without a reason string, with an unknown rule name, or that no
//! longer suppress anything are themselves diagnostics, so the allowlist
//! cannot rot. There is no baseline of tolerated findings: the CLI fails
//! on any diagnostic.

pub mod atomic_order;
pub mod graph;
pub mod json;
pub mod lock_discipline;
pub mod mask;
pub mod panic_path;
pub mod parse;
pub mod rules;

use graph::{FileInput, Graph};
use mask::Comment;
use rules::{Finding, RuleId};
use std::path::{Path, PathBuf};

/// One diagnostic: a rule hit or a broken allow directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule name (or `bad_allow` / `unused_allow`).
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

/// Which rules apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileClass {
    pub no_panic: bool,
    pub float_eq: bool,
    pub narrowing_cast: bool,
    pub no_process_io: bool,
    pub no_io_unwrap: bool,
    pub panic_path: bool,
    /// `x[..]` indexing is a `panic_path` source (files decoding bytes
    /// from outside the process; elsewhere indices are loop-bounded
    /// arithmetic). A modifier on `panic_path`, not a rule of its own.
    pub index_panics: bool,
    pub lock_discipline: bool,
    pub atomic_order: bool,
    /// `Ordering::Relaxed` forbidden (the publication pointer path).
    /// A modifier on `atomic_order`, not a rule of its own.
    pub strict_atomic: bool,
}

impl FileClass {
    /// A file no rule applies to.
    pub const SKIP: FileClass = FileClass {
        no_panic: false,
        float_eq: false,
        narrowing_cast: false,
        no_process_io: false,
        no_io_unwrap: false,
        panic_path: false,
        index_panics: false,
        lock_discipline: false,
        atomic_order: false,
        strict_atomic: false,
    };

    fn is_skip(&self) -> bool {
        !(self.no_panic
            || self.float_eq
            || self.narrowing_cast
            || self.no_process_io
            || self.no_io_unwrap
            || self.panic_path
            || self.lock_discipline
            || self.atomic_order)
    }

    fn applies(&self, rule: RuleId) -> bool {
        match rule {
            RuleId::NoPanic => self.no_panic,
            RuleId::FloatEq => self.float_eq,
            RuleId::NarrowingCast => self.narrowing_cast,
            RuleId::NoProcessIo => self.no_process_io,
            RuleId::NoIoUnwrap => self.no_io_unwrap,
            RuleId::PanicPath => self.panic_path,
            RuleId::LockDiscipline => self.lock_discipline,
            RuleId::AtomicOrder => self.atomic_order,
        }
    }
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
///   `crates/criterion`) mirror external crates' APIs — including their
///   panicking contracts — and are exempt wholesale.
/// * `crates/bench`, `src/bin`, `tests/`, `benches/`, `examples/` are
///   binaries or test code: measurement and test harnesses may panic and
///   print.
/// * `crates/stilint` itself is a tool crate: panic-freedom applies
///   (dogfood), terminal I/O is its job, and `panic_path` is off — its
///   parser indexes its own token buffers heavily and every index is
///   bounds-derived.
/// * Everything else under `crates/*/src` or `src/` is library code.
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
    if rel.starts_with("crates/stilint/") {
        return Classification::Lint(FileClass {
            no_panic: true,
            float_eq: false,
            narrowing_cast: false,
            no_process_io: false,
            no_io_unwrap: false,
            panic_path: false,
            index_panics: false,
            lock_discipline: true,
            atomic_order: true,
            strict_atomic: false,
        });
    }
    let library = rel.starts_with("src/") || rel.starts_with("crates/");
    if !library {
        return Classification::Unknown;
    }
    Classification::Lint(FileClass {
        no_panic: true,
        float_eq: rel.starts_with("crates/geom/") || rel.starts_with("crates/costmodel/"),
        narrowing_cast: rel.starts_with("crates/storage/") || rel.starts_with("crates/pprtree/"),
        no_process_io: true,
        no_io_unwrap: rel.starts_with("crates/storage/")
            || rel.starts_with("crates/pprtree/")
            || rel.starts_with("crates/rstar/")
            || rel == "crates/core/src/recover.rs",
        panic_path: true,
        index_panics: [
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
        ]
        .contains(&rel),
        lock_discipline: true,
        atomic_order: true,
        strict_atomic: rel == "crates/core/src/version.rs" || rel == "crates/core/src/pipeline.rs",
    })
}

/// The rule set for a path, with skip reasons flattened away. Kept for
/// callers that only care whether rules apply.
pub fn classify(rel: &str) -> FileClass {
    match classify_full(rel) {
        Classification::Lint(c) => c,
        Classification::Exempt(_) | Classification::Unknown => FileClass::SKIP,
    }
}

/// A parsed `stilint::allow` directive.
#[derive(Debug, Clone)]
struct Allow {
    rule: RuleId,
    /// Line the directive's comment starts on.
    comment_line: usize,
    /// Line whose findings it suppresses.
    target_line: usize,
    used: bool,
}

/// Parse the directives out of the captured comments. Malformed ones
/// become diagnostics immediately.
fn parse_allows(
    comments: &[Comment],
    code_lines: &[bool],
    path: &str,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in comments {
        // A directive is a plain `//` comment that begins with the
        // directive itself; doc comments and prose that merely *mention*
        // `stilint::allow` are not directives.
        let body = c.text.trim_start_matches('/').trim_start();
        if c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        if !body.starts_with("stilint::allow") {
            continue;
        }
        let rest = &body["stilint::allow".len()..];
        let bad = |msg: String, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                path: path.to_string(),
                line: c.line,
                rule: "bad_allow".to_string(),
                message: msg,
            });
        };
        let Some(open) = rest.find('(') else {
            bad(
                "malformed directive: expected `stilint::allow(rule, \"reason\")`".to_string(),
                diags,
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("malformed directive: missing `)`".to_string(), diags);
            continue;
        };
        if close < open {
            bad("malformed directive: `)` before `(`".to_string(), diags);
            continue;
        }
        let inner = &rest[open + 1..close];
        let (rule_name, reason) = match inner.split_once(',') {
            Some((r, rest)) => (r.trim(), rest.trim()),
            None => (inner.trim(), ""),
        };
        let Some(rule) = RuleId::parse(rule_name) else {
            let known: Vec<&str> = RuleId::ALL.iter().map(|r| r.name()).collect();
            bad(
                format!(
                    "unknown rule `{rule_name}` (known rules: {})",
                    known.join(", ")
                ),
                diags,
            );
            continue;
        };
        let unquoted = reason.trim_matches('"').trim();
        if !reason.starts_with('"') || unquoted.is_empty() {
            bad(
                format!(
                    "allow for `{}` needs a non-empty quoted reason: \
                     `stilint::allow({}, \"why this is safe\")`",
                    rule.name(),
                    rule.name()
                ),
                diags,
            );
            continue;
        }
        // Trailing comment suppresses its own line; a standalone comment
        // suppresses the next line that holds code.
        let target_line = if c.trailing {
            c.line
        } else {
            let mut t = c.line; // 1-based; code_lines is 0-based
            while t < code_lines.len() && !code_lines[t] {
                t += 1;
            }
            t + 1
        };
        allows.push(Allow {
            rule,
            comment_line: c.line,
            target_line,
            used: false,
        });
    }
    allows
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

/// Per-file state carried from the line pass into the graph pass.
struct FileScan {
    path: String,
    class: FileClass,
    diags: Vec<Diagnostic>,
    allows: Vec<Allow>,
    exempt: Vec<bool>,
}

/// Scan a batch of files as one unit: phase 1 runs the per-line rules
/// and parses each file's item model; phase 2 links the models into a
/// workspace call graph and runs the interprocedural rules (R6–R8).
/// Files must be passed together for cross-file call chains to resolve.
pub fn scan_sources(files: &[(&str, &str, FileClass)]) -> Vec<Diagnostic> {
    let mut scans: Vec<FileScan> = Vec::new();
    let mut inputs: Vec<FileInput> = Vec::new();

    for &(rel_path, src, class) in files {
        if class.is_skip() {
            continue;
        }
        let mut diags = Vec::new();
        let masked = mask::mask(src);
        // Byte-index the masked text safely: non-ASCII can only sit in
        // identifiers after masking; blank it for the rule matchers.
        let ascii: String = masked
            .text
            .chars()
            .map(|c| if c.is_ascii() { c } else { ' ' })
            .collect();
        let exempt = test_exempt_lines(&ascii);
        let code_lines: Vec<bool> = ascii.lines().map(|l| !l.trim().is_empty()).collect();
        let mut allows = parse_allows(&masked.comments, &code_lines, rel_path, &mut diags);

        for (idx, line) in ascii.lines().enumerate() {
            let line_no = idx + 1;
            if exempt.get(line_no).copied().unwrap_or(false) {
                continue;
            }
            let mut findings: Vec<Finding> = Vec::new();
            if class.applies(RuleId::NoPanic) {
                findings.extend(rules::check_no_panic(line));
            }
            if class.applies(RuleId::NoIoUnwrap) {
                let io = rules::check_no_io_unwrap(line);
                if !io.is_empty() {
                    // The specific rule owns the line: a storage-I/O unwrap
                    // is one defect, not two, so the generic no_panic hits
                    // for the same `.unwrap()`/`.expect(` tokens step aside
                    // (panic!/unreachable! and friends still report).
                    findings.retain(|f| {
                        f.rule != RuleId::NoPanic
                            || !(f.message.starts_with("`.unwrap()`")
                                || f.message.starts_with("`.expect`"))
                    });
                }
                findings.extend(io);
            }
            if class.applies(RuleId::FloatEq) {
                findings.extend(rules::check_float_eq(line));
            }
            if class.applies(RuleId::NarrowingCast) {
                findings.extend(rules::check_narrowing_cast(line));
            }
            if class.applies(RuleId::NoProcessIo) {
                findings.extend(rules::check_no_process_io(line));
            }
            for f in findings {
                let allowed = allows
                    .iter_mut()
                    .find(|a| a.rule == f.rule && a.target_line == line_no);
                if let Some(a) = allowed {
                    a.used = true;
                    continue;
                }
                diags.push(Diagnostic {
                    path: rel_path.to_string(),
                    line: line_no,
                    rule: f.rule.name().to_string(),
                    message: f.message,
                });
            }
        }

        let mut model = parse::parse(&ascii, &masked.comments, &exempt);
        if !class.index_panics {
            for f in &mut model.fns {
                f.panics.retain(|p| p.token != "indexing");
            }
        }

        // A line-level allow (no_panic / no_io_unwrap) or an explicit
        // panic_path allow on a panic site also excuses it as a
        // transitive R6 source: the stated invariant covers every path
        // through the line, not just the direct one.
        let justified_panic_lines: Vec<usize> = allows
            .iter()
            .filter(|a| {
                matches!(
                    a.rule,
                    RuleId::NoPanic | RuleId::NoIoUnwrap | RuleId::PanicPath
                )
            })
            .map(|a| a.target_line)
            .collect();

        // panic_path allows are consumed here, not by diagnostic
        // matching: the excused site never produces an R6 finding, so
        // "used" means "there is a panic site on the target line".
        if class.panic_path {
            for a in allows.iter_mut().filter(|a| a.rule == RuleId::PanicPath) {
                let covers_site = model
                    .fns
                    .iter()
                    .any(|f| f.panics.iter().any(|p| p.line == a.target_line));
                if covers_site {
                    a.used = true;
                }
            }
        }

        inputs.push(FileInput {
            path: rel_path.to_string(),
            model,
            panic_path: class.panic_path,
            lock_discipline: class.lock_discipline,
            atomic_order: class.atomic_order,
            strict_atomic: class.strict_atomic,
            justified_panic_lines,
        });
        scans.push(FileScan {
            path: rel_path.to_string(),
            class,
            diags,
            allows,
            exempt,
        });
    }

    let graph = Graph::build(inputs);
    let mut graph_diags = Vec::new();
    graph_diags.extend(panic_path::run(&graph));
    graph_diags.extend(lock_discipline::run(&graph));
    graph_diags.extend(atomic_order::run(&graph));

    let index: std::collections::HashMap<String, usize> = scans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.path.clone(), i))
        .collect();
    for d in graph_diags {
        let Some(&i) = index.get(d.path.as_str()) else {
            continue;
        };
        let scan = &mut scans[i];
        let rule = RuleId::parse(&d.rule);
        let allowed = scan
            .allows
            .iter_mut()
            .find(|a| Some(a.rule) == rule && a.target_line == d.line);
        if let Some(a) = allowed {
            a.used = true;
            continue;
        }
        scan.diags.push(d);
    }

    let mut out = Vec::new();
    for scan in scans {
        let class = scan.class;
        for a in &scan.allows {
            if !a.used {
                // Allows inside test-exempt regions are noise, not load-bearing.
                let target_exempt = scan.exempt.get(a.target_line).copied().unwrap_or(false)
                    || scan.exempt.get(a.comment_line).copied().unwrap_or(false);
                let rule_active = class.applies(a.rule);
                if !target_exempt && rule_active {
                    out.push(Diagnostic {
                        path: scan.path.clone(),
                        line: a.comment_line,
                        rule: "unused_allow".to_string(),
                        message: format!(
                            "`stilint::allow({})` no longer suppresses anything; remove it",
                            a.rule.name()
                        ),
                    });
                }
            }
        }
        out.extend(scan.diags);
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    out
}

/// Scan one file's source, returning its diagnostics. Cross-file call
/// chains cannot resolve here; use [`scan_sources`] for a whole batch.
pub fn scan_source(rel_path: &str, src: &str, class: FileClass) -> Vec<Diagnostic> {
    scan_sources(&[(rel_path, src, class)])
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
                if class.is_skip() {
                    continue;
                }
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
        no_panic: true,
        float_eq: true,
        narrowing_cast: true,
        no_process_io: true,
        no_io_unwrap: true,
        panic_path: true,
        index_panics: true,
        lock_discipline: true,
        atomic_order: true,
        strict_atomic: false,
    };

    #[test]
    fn classification_matrix() {
        let geom = classify("crates/geom/src/rect2.rs");
        assert!(geom.no_panic && geom.float_eq && !geom.narrowing_cast);
        let storage = classify("crates/storage/src/codec.rs");
        assert!(storage.no_panic && storage.narrowing_cast && !storage.float_eq);
        assert!(storage.no_io_unwrap);
        assert!(classify("crates/pprtree/src/tree.rs").no_io_unwrap);
        assert!(classify("crates/rstar/src/knn.rs").no_io_unwrap);
        // The durability layer handles storage I/O even though it lives
        // outside crates/storage/: the WAL via the storage prefix, the
        // recovery module by name.
        assert!(classify("crates/storage/src/wal.rs").no_io_unwrap);
        let recover = classify("crates/core/src/recover.rs");
        assert!(recover.no_io_unwrap && recover.lock_discipline);
        assert!(!classify("crates/core/src/tuning.rs").no_io_unwrap);
        assert!(!classify("crates/geom/src/rect2.rs").no_io_unwrap);
        assert_eq!(classify("crates/rand/src/lib.rs"), FileClass::SKIP);
        assert_eq!(classify("crates/bench/src/bin/fig11.rs"), FileClass::SKIP);
        assert_eq!(classify("src/bin/stidx.rs"), FileClass::SKIP);
        assert_eq!(classify("tests/cli.rs"), FileClass::SKIP);
        assert_eq!(classify("crates/pprtree/benches/x.rs"), FileClass::SKIP);
        assert!(classify("src/lib.rs").no_panic);
        let tool = classify("crates/stilint/src/rules.rs");
        assert!(tool.no_panic && !tool.no_process_io);
        // Interprocedural rules: on for library code, panic_path off for
        // the tool crate, strict_atomic only on the publication files.
        assert!(geom.panic_path && geom.lock_discipline && geom.atomic_order);
        assert!(!geom.strict_atomic);
        assert!(!tool.panic_path && tool.lock_discipline && tool.atomic_order);
        // Indexing is a panic source where outside bytes are decoded,
        // not in the loop-bounded numeric kernels.
        assert!(classify("crates/storage/src/persist.rs").index_panics);
        assert!(classify("crates/rstar/src/node.rs").index_panics);
        assert!(classify("crates/server/src/http.rs").index_panics);
        assert!(!geom.index_panics);
        assert!(!classify("crates/core/src/single/mergesplit.rs").index_panics);
        assert!(classify("crates/core/src/version.rs").strict_atomic);
        assert!(classify("crates/core/src/pipeline.rs").strict_atomic);
        assert!(!classify("crates/core/src/store.rs").strict_atomic);
        // Unknown top-level .rs files are flagged, not silently skipped.
        assert_eq!(classify_full("build.rs"), Classification::Unknown);
        assert!(matches!(
            classify_full("crates/rand/src/lib.rs"),
            Classification::Exempt(_)
        ));
        assert!(matches!(
            classify_full("README.md"),
            Classification::Exempt(_)
        ));
    }

    #[test]
    fn flags_unwrap_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { y.unwrap(); }\n\
                   }\n";
        let d = scan_source("crates/geom/src/a.rs", src, LIB);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
        assert_eq!(d[0].rule, "no_panic");
    }

    #[test]
    fn doc_comments_and_strings_do_not_fire() {
        let src = "/// ```\n/// x.unwrap();\n/// ```\nfn f() { let s = \"panic!\"; }\n";
        assert!(scan_source("crates/geom/src/a.rs", src, LIB).is_empty());
    }

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let src = "fn f() {\n\
                   x.unwrap(); // stilint::allow(no_panic, \"checked above\")\n\
                   // stilint::allow(no_panic, \"invariant: y is Some\")\n\
                   y.unwrap();\n\
                   }\n";
        assert!(scan_source("crates/geom/src/a.rs", src, LIB).is_empty());
    }

    #[test]
    fn allow_requires_reason_and_known_rule() {
        let src = "// stilint::allow(no_panic)\nx.unwrap();\n";
        let d = scan_source("crates/geom/src/a.rs", src, LIB);
        assert!(d.iter().any(|d| d.rule == "bad_allow"));
        assert!(d.iter().any(|d| d.rule == "no_panic"), "not suppressed");

        let src2 = "// stilint::allow(no_such_rule, \"reason\")\nx.unwrap();\n";
        let d2 = scan_source("crates/geom/src/a.rs", src2, LIB);
        assert!(d2.iter().any(|d| d.rule == "bad_allow"));
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// stilint::allow(no_panic, \"was needed once\")\nlet x = 1;\n";
        let d = scan_source("crates/geom/src/a.rs", src, LIB);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused_allow");
    }

    #[test]
    fn allow_is_rule_scoped() {
        let src = "// stilint::allow(float_eq, \"bit-exact sentinel\")\nx.unwrap();\n";
        let d = scan_source("crates/geom/src/a.rs", src, LIB);
        assert!(d.iter().any(|d| d.rule == "no_panic"), "{d:?}");
    }

    #[test]
    fn cfg_test_block_exempts_to_closing_brace_only() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { y.unwrap(); }\n\
                   }\n\
                   fn after() { z.unwrap(); }\n";
        let d = scan_source("crates/geom/src/a.rs", src, LIB);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
    }

    #[test]
    fn float_eq_only_in_configured_crates() {
        let src = "fn f(a: f64) -> bool { a == 0.25 }\n";
        let in_geom = scan_source(
            "crates/geom/src/a.rs",
            src,
            classify("crates/geom/src/a.rs"),
        );
        assert!(in_geom.iter().any(|d| d.rule == "float_eq"));
        let in_core = scan_source(
            "crates/core/src/a.rs",
            src,
            classify("crates/core/src/a.rs"),
        );
        assert!(in_core.iter().all(|d| d.rule != "float_eq"));
    }

    #[test]
    fn io_unwrap_owns_storage_lines_and_no_panic_keeps_the_rest() {
        // A storage-I/O unwrap reports once, under the specific rule.
        let src = "fn f() { let r = self.store.read(p).unwrap(); }\n";
        let d = scan_source("crates/storage/src/a.rs", src, LIB);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "no_io_unwrap");

        // A non-I/O unwrap in the same class still reports as no_panic.
        let src2 = "fn f() { map.get(&k).unwrap(); }\n";
        let d2 = scan_source("crates/storage/src/a.rs", src2, LIB);
        assert_eq!(d2.len(), 1, "{d2:?}");
        assert_eq!(d2[0].rule, "no_panic");

        // panic! on an I/O line is still no_panic's business.
        let src3 = "fn f() { self.store.read(p).unwrap_or_else(|_| panic!()); }\n";
        let d3 = scan_source("crates/storage/src/a.rs", src3, LIB);
        assert_eq!(d3.len(), 1, "{d3:?}");
        assert_eq!(d3[0].rule, "no_panic");

        // An allow for the specific rule silences the line completely.
        let src4 = "// stilint::allow(no_io_unwrap, \"bootstrap pages always exist\")\n\
                    fn f() { let r = self.store.read(p).unwrap(); }\n";
        assert!(scan_source("crates/storage/src/a.rs", src4, LIB).is_empty());
    }

    #[test]
    fn narrowing_cast_fires_in_storage_class_files() {
        let src = "fn f(n: usize) -> u32 { n as u32 }\n";
        let d = scan_source(
            "crates/storage/src/a.rs",
            src,
            classify("crates/storage/src/a.rs"),
        );
        assert!(d.iter().any(|d| d.rule == "narrowing_cast"));
    }

    /// Only the interprocedural rules, to keep graph tests focused.
    const GRAPH_ONLY: FileClass = FileClass {
        no_panic: false,
        float_eq: false,
        narrowing_cast: false,
        no_process_io: false,
        no_io_unwrap: false,
        panic_path: true,
        index_panics: true,
        lock_discipline: true,
        atomic_order: true,
        strict_atomic: false,
    };

    #[test]
    fn panic_path_chain_resolves_across_files() {
        let api = "pub fn lookup(v: &[u32]) -> u32 { helper(v) }\n";
        let util = "fn helper(v: &[u32]) -> u32 { decode(v) }\n\
                    fn decode(v: &[u32]) -> u32 { v.iter().next().unwrap() }\n";
        let d = scan_sources(&[
            ("crates/core/src/api.rs", api, GRAPH_ONLY),
            ("crates/core/src/util.rs", util, GRAPH_ONLY),
        ]);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "panic_path");
        assert!(
            d[0].message.contains("lookup -> helper -> decode"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn no_panic_allow_also_excuses_the_panic_path() {
        let bare = "pub fn get(v: &[u32]) -> u32 {\n\
                    inner(v)\n\
                    }\n\
                    fn inner(v: &[u32]) -> u32 {\n\
                    v.iter().next().unwrap()\n\
                    }\n";
        let d = scan_source("crates/core/src/a.rs", bare, LIB);
        assert!(d.iter().any(|d| d.rule == "no_panic"), "{d:?}");
        assert!(d.iter().any(|d| d.rule == "panic_path"), "{d:?}");

        let allowed = "pub fn get(v: &[u32]) -> u32 {\n\
                       inner(v)\n\
                       }\n\
                       fn inner(v: &[u32]) -> u32 {\n\
                       // stilint::allow(no_panic, \"callers pre-check emptiness\")\n\
                       v.iter().next().unwrap()\n\
                       }\n";
        let d = scan_source("crates/core/src/a.rs", allowed, LIB);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_path_allow_excuses_a_reachable_site() {
        let src = "pub fn get(v: &[u32]) -> u32 { inner(v) }\n\
                   fn inner(v: &[u32]) -> u32 {\n\
                   // stilint::allow(panic_path, \"v checked non-empty at ingest\")\n\
                   v[0]\n\
                   }\n";
        let d = scan_source("crates/core/src/a.rs", src, GRAPH_ONLY);
        assert!(d.is_empty(), "{d:?}");
    }

    /// Outside the decode files an index is not a source at all — and
    /// an allow written for one is rot, reported like any unused allow —
    /// while `unwrap` reachability stays exactly as strict.
    #[test]
    fn indexing_is_a_source_only_where_the_class_says_so() {
        let kernel = FileClass {
            index_panics: false,
            ..GRAPH_ONLY
        };
        let src = "pub fn get(v: &[u32]) -> u32 { inner(v) }\n\
                   fn inner(v: &[u32]) -> u32 { v[0] }\n";
        let d = scan_source("crates/core/src/a.rs", src, GRAPH_ONLY);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("indexing"), "{}", d[0].message);
        assert!(scan_source("crates/core/src/a.rs", src, kernel).is_empty());

        let allowed = "pub fn get(v: &[u32]) -> u32 {\n\
                       // stilint::allow(panic_path, \"v is never empty\")\n\
                       v[0]\n\
                       }\n";
        let d = scan_source("crates/core/src/a.rs", allowed, kernel);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "unused_allow");

        let unwrap = "pub fn get(v: &[u32]) -> u32 { inner(v) }\n\
                      fn inner(v: &[u32]) -> u32 { *v.first().unwrap() }\n";
        let d = scan_source("crates/core/src/a.rs", unwrap, kernel);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "panic_path");
    }

    #[test]
    fn lock_discipline_fires_and_allow_suppresses() {
        let bare = "\
struct S { inner: Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.inner.lock();
        self.backend.read_into(7);
    }
}
";
        let d = scan_source("crates/core/src/a.rs", bare, GRAPH_ONLY);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "lock_discipline");

        let allowed = "\
struct S { inner: Mutex<u32> }
impl S {
    fn f(&self) {
        let g = self.inner.lock();
        // stilint::allow(lock_discipline, \"read-only probe, bounded latency\")
        self.backend.read_into(7);
    }
}
";
        let d = scan_source("crates/core/src/a.rs", allowed, GRAPH_ONLY);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn atomic_order_allow_suppresses_via_directive() {
        let src = "\
struct S { hits: AtomicU64 }
impl S {
    fn f(&self) {
        // stilint::allow(atomic_order, \"counter increment, ordering irrelevant\")
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
";
        let d = scan_source("crates/core/src/a.rs", src, GRAPH_ONLY);
        assert!(d.is_empty(), "{d:?}");
    }
}
