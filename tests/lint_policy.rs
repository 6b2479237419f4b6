//! The workspace's lint policy, pinned (CONTRIBUTING.md, "Lint rules").
//!
//! * Every `.rs` file in the repository must get a *deliberate* class
//!   from [`classify`]: either it is library code, or it is exempt for a
//!   stated reason. A file the matrix does not know fails, so adding a
//!   new top-level directory forces a conscious choice instead of
//!   silently dodging the lint.
//! * R1–R6 are clippy lints denied by crate- and file-level attributes.
//!   Every library crate must carry them verbatim, so dropping a line
//!   fails here rather than silently narrowing what `cargo clippy`
//!   checks.
//! * R7 and R8 hold lexically in every library file: a run of atomic
//!   `Ordering::` arguments carries `// ordering: <why>`, a `loop`
//!   carries `// bounded: <why it ends>`, every `Mutex` is a
//!   `sti_storage::LeafMutex` (whose debug-build guard count checks the
//!   rest of R7 on every path the tests run), and the buffer pool's
//!   files name no file I/O.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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

/// R7: the buffer pool's files, which run under the pool lock, name no
/// file I/O at all.
const IO_FREE_FILES: [&str; 2] = [
    "crates/storage/src/buffer.rs",
    "crates/storage/src/shard.rs",
];

/// The one library file that may name `std::sync::Mutex`.
const LOCK_FILE: &str = "crates/storage/src/lock.rs";

/// How the policy treats a file.
#[derive(Debug, PartialEq, Eq)]
enum Class {
    /// Library code: every rule applies.
    Library,
    /// Deliberately out of scope, for the stated reason.
    Exempt(&'static str),
    /// An `.rs` file the matrix has no entry for.
    Unknown,
}

/// Classify a workspace-relative path (forward slashes). Vendored
/// offline stand-ins mirror external crates' APIs; binaries, tests,
/// benches and examples may spin and lock as they please; everything
/// else under `crates/*/src` or `src/` is library code.
fn classify(rel: &str) -> Class {
    if !rel.ends_with(".rs") {
        return Class::Exempt("not a Rust source file");
    }
    if ["crates/rand/", "crates/proptest/"]
        .iter()
        .any(|v| rel.starts_with(v))
    {
        return Class::Exempt("vendored offline stand-in");
    }
    let harness = ["crates/bench/", "tests/", "examples/", "src/bin/"]
        .iter()
        .any(|p| rel.starts_with(p))
        || ["/tests/", "/benches/", "/examples/", "/src/bin/"]
            .iter()
            .any(|p| rel.contains(p));
    if harness {
        Class::Exempt("test, bench, or binary harness")
    } else if rel.starts_with("src/") || rel.starts_with("crates/") {
        Class::Library
    } else {
        Class::Unknown
    }
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR for the root package *is* the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `root` as a sorted workspace-relative path,
/// build output and git metadata skipped.
fn collect_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read dir") {
            let path = entry.expect("dir entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() && !matches!(name, "target" | ".git" | ".github") {
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under root");
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

/// The library files and their text.
fn library_sources(root: &Path) -> Vec<(String, String)> {
    collect_files(root)
        .into_iter()
        .filter(|rel| classify(rel) == Class::Library)
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel)).expect("read source");
            (rel, text)
        })
        .collect()
}

/// The attribute lines `rel` must carry under the policy.
fn required(rel: &str) -> Vec<&'static str> {
    let mut out = Vec::new();
    let krate = rel
        .strip_prefix("crates/")
        .and_then(|r| r.strip_suffix("/src/lib.rs"))
        .filter(|k| !k.contains('/'));
    let crate_root = rel == "src/lib.rs" || krate.is_some();
    if crate_root && classify(rel) == Class::Library {
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

/// One source line: its code, with string and char literal contents
/// blanked, and its `//` comment (empty when it has none).
#[derive(Debug, Default)]
struct Line {
    code: String,
    comment: String,
}

/// Split `src` into [`Line`]s. Lexical only: no block comments or raw
/// strings holding a `"`, which library code does not use.
fn split_lines(src: &str) -> Vec<Line> {
    let mut lines = vec![Line::default()];
    let (mut in_str, mut in_comment) = (false, false);
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let rest = &src[i..];
        let line = lines.last_mut().expect("never empty");
        if c == '\n' {
            in_comment = false;
            lines.push(Line::default());
        } else if in_comment {
            line.comment.push(c);
        } else if in_str {
            line.code.push(if c == '"' { '"' } else { ' ' });
            in_str = c != '"';
            // An escape hides its next character, unless that ends the line.
            if c == '\\' && chars.next_if(|&(_, n)| n != '\n').is_some() {
                line.code.push(' ');
            }
        } else if rest.starts_with("//") {
            in_comment = true;
            line.comment.push(c);
        } else if c == '"' {
            in_str = true;
            line.code.push(c);
        } else if c == '\'' && (rest.starts_with("'\\") || rest.chars().nth(2) == Some('\'')) {
            // A char literal (`'x'`, `'\''`, `'\u{..}'`), not a lifetime:
            // blanked through its closing quote.
            line.code.push(c);
            for _ in 0..1 + usize::from(rest.starts_with("'\\")) {
                chars.next();
                line.code.push(' ');
            }
            for (_, n) in chars.by_ref() {
                line.code.push(if n == '\'' { '\'' } else { ' ' });
                if n == '\'' {
                    break;
                }
            }
        } else {
            line.code.push(c);
        }
    }
    lines
}

fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

fn is_atomic_site(code: &str) -> bool {
    ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"]
        .iter()
        .any(|o| code.contains(&format!("Ordering::{o}")))
}

fn is_loop(code: &str) -> bool {
    idents(code).any(|w| w == "loop")
}

/// R8: the site on line `at` carries `// ordering:` on its line, or
/// above it with nothing between but comments, other atomic sites
/// (one comment covers a run) and the earlier lines of the same
/// statement.
fn ordering_justified(lines: &[Line], at: usize) -> bool {
    const MARK: &str = "// ordering:";
    if lines[at].comment.contains(MARK) {
        return true;
    }
    for line in lines[..at].iter().rev() {
        let code = line.code.trim();
        let covers = code.is_empty() || is_atomic_site(code) || !code.ends_with([';', '{', '}']);
        if line.comment.contains(MARK) && covers {
            return true;
        }
        if !covers || (code.is_empty() && line.comment.is_empty()) {
            return false;
        }
    }
    false
}

/// R7: the `loop` on line `at` carries `// bounded:` on its line or in
/// the comment block directly above it.
fn loop_bounded(lines: &[Line], at: usize) -> bool {
    const MARK: &str = "// bounded:";
    if lines[at].comment.contains(MARK) {
        return true;
    }
    for line in lines[..at].iter().rev() {
        if !line.code.trim().is_empty() || line.comment.is_empty() {
            return false;
        }
        if line.comment.contains(MARK) {
            return true;
        }
    }
    false
}

/// What the lexical rules found in one library file.
#[derive(Debug, Default)]
struct Scan {
    findings: Vec<String>,
    atomic_sites: usize,
    loops: usize,
    leaf_mutexes: usize,
}

fn scan(rel: &str, src: &str) -> Scan {
    let lines = split_lines(src);
    let mut out = Scan::default();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut find = |why: &str| out.findings.push(format!("{rel}:{}: {why}", i + 1));
        if is_atomic_site(code) {
            out.atomic_sites += 1;
            if !ordering_justified(&lines, i) {
                find("atomic ordering without a `// ordering: <why>` comment");
            }
        }
        if is_loop(code) {
            out.loops += 1;
            if !loop_bounded(&lines, i) {
                find("`loop` without a `// bounded: <why it ends>` comment");
            }
        }
        if rel != LOCK_FILE && idents(code).any(|w| w == "Mutex" || w == "MutexGuard") {
            find("a plain `Mutex`: library locks are `sti_storage::LeafMutex`");
        }
        if code.contains("LeafMutex<") || code.contains("LeafMutex::new") {
            out.leaf_mutexes += 1;
        }
        if IO_FREE_FILES.contains(&rel) && (code.contains("std::fs") || code.contains("File::")) {
            find("file I/O in the buffer pool, which runs under the pool lock");
        }
    }
    out
}

/// `src` with the marker comment on line `at` (0-based) removed: the
/// whole line when the comment stands alone, the comment otherwise.
fn without_comment(src: &str, lines: &[Line], at: usize) -> String {
    let mut out = String::new();
    for (i, text) in src.split('\n').enumerate() {
        if i == at && lines[i].code.trim().is_empty() {
            continue;
        }
        if i == at {
            let code_chars = lines[i].code.chars().count();
            out.extend(text.chars().take(code_chars));
        } else {
            out.push_str(text);
        }
        out.push('\n');
    }
    out
}

#[test]
fn every_rust_file_gets_a_deliberate_classification() {
    let files = collect_files(&workspace_root());
    assert!(
        files.len() > 50,
        "suspiciously few files ({}) — walking the wrong root?",
        files.len()
    );
    let unknown: Vec<&String> = files
        .iter()
        .filter(|rel| classify(rel) == Class::Unknown)
        .collect();
    assert!(
        unknown.is_empty(),
        "files without a classification entry (add them to `classify`): {unknown:#?}"
    );
    for (rel, class) in [
        ("crates/storage/src/wal.rs", Class::Library),
        ("src/lib.rs", Class::Library),
        (
            "crates/rand/src/lib.rs",
            Class::Exempt("vendored offline stand-in"),
        ),
        (
            "crates/bench/src/figures.rs",
            Class::Exempt("test, bench, or binary harness"),
        ),
        (
            "crates/pprtree/benches/x.rs",
            Class::Exempt("test, bench, or binary harness"),
        ),
        (
            "sysbench/src/bin/sti-sysbench/run.rs",
            Class::Exempt("test, bench, or binary harness"),
        ),
        ("build.rs", Class::Unknown),
    ] {
        assert_eq!(classify(rel), class, "{rel}");
    }
}

#[test]
fn library_crates_deny_the_moved_rules_in_clippy() {
    let root = workspace_root();
    let mut checked = Vec::new();
    let mut gaps = Vec::new();
    for rel in collect_files(&root) {
        if required(&rel).is_empty() {
            continue;
        }
        let text = std::fs::read_to_string(root.join(&rel)).expect("read source");
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

#[test]
fn library_files_justify_every_ordering_and_loop_and_use_only_leaf_mutexes() {
    let sources = library_sources(&workspace_root());
    let mut findings = Vec::new();
    let (mut atomic_files, mut lock_files) = (BTreeSet::new(), BTreeSet::new());
    let mut loops = 0;
    for (rel, src) in &sources {
        let scanned = scan(rel, src);
        findings.extend(scanned.findings);
        if scanned.atomic_sites > 0 {
            atomic_files.insert(rel.as_str());
        }
        if scanned.leaf_mutexes > 0 && rel != LOCK_FILE {
            lock_files.insert(rel.as_str());
        }
        loops += scanned.loops;
    }
    assert!(findings.is_empty(), "lexical lint findings: {findings:#?}");

    // Not vacuous: the scan sees the files and loops the rules are about.
    for rel in [
        "crates/obs/src/hist.rs",
        "crates/server/src/server.rs",
        "crates/storage/src/store.rs",
    ] {
        assert!(atomic_files.contains(rel), "no atomic site found in {rel}");
    }
    for rel in [
        "crates/storage/src/buffer.rs",
        "crates/storage/src/shard.rs",
        "crates/storage/src/fault.rs",
        "crates/core/src/pipeline.rs",
        "crates/server/src/server.rs",
    ] {
        assert!(lock_files.contains(rel), "no LeafMutex found in {rel}");
    }
    assert!(loops >= 10, "only {loops} library loops found");

    // And it has teeth: removing any one `// ordering:` or `// bounded:`
    // comment is reported, and so is a plain mutex or file I/O in the
    // buffer pool.
    let mut markers = 0;
    for (rel, src) in &sources {
        let lines = split_lines(src);
        for (at, line) in lines.iter().enumerate() {
            if line.comment.contains("// ordering:") || line.comment.contains("// bounded:") {
                markers += 1;
                let stripped = without_comment(src, &lines, at);
                assert!(
                    !scan(rel, &stripped).findings.is_empty(),
                    "{rel}:{}: removing this marker is not reported",
                    at + 1
                );
            }
        }
    }
    assert!(markers >= 40, "only {markers} marker comments found");
    let buffer = &sources
        .iter()
        .find(|(rel, _)| rel == IO_FREE_FILES[0])
        .expect("buffer.rs is library code")
        .1;
    for seeded in [
        "fn f() -> Vec<u8> { std::fs::read(\"x\").unwrap_or_default() }",
        "static M: std::sync::Mutex<u8> = std::sync::Mutex::new(0);",
    ] {
        let text = format!("{buffer}\n{seeded}\n");
        assert!(
            !scan(IO_FREE_FILES[0], &text).findings.is_empty(),
            "{seeded}"
        );
    }
}
