//! Phase 1 of the workspace analysis: parse one masked source file into
//! a lightweight item model.
//!
//! The input is the output of [`crate::mask::mask`] (comments, strings,
//! and char literals blanked), so every brace is structural and every
//! token is executable code. A hand-rolled line/character scanner — not
//! a Rust parser; the workspace is offline and `syn` is unavailable —
//! extracts the facts the interprocedural rules need:
//!
//! * `fn` items with name, `impl` owner, receiver, body span, and
//!   whether a guard type is returned,
//! * call sites (free, `Path::`-qualified, and method calls with their
//!   receiver chain),
//! * guard-producing expressions (`.lock()`, `.read()`/`.write()` on a
//!   known lock field) with their lexical scope,
//! * `loop` headers and whether they carry a `// bounded:` marker,
//! * atomic operations with their `Ordering` arguments and whether a
//!   `// ordering:` justification comment is attached,
//! * direct backend-I/O marker lines.
//!
//! Everything here is an approximation with a deliberate bias: prefer
//! missing an edge (under-approximate the call graph) over inventing
//! one, so interprocedural findings stay actionable.

use crate::mask::Comment;

/// How a guard was produced, which decides which discipline clauses
/// apply to its scope (see the `lock_discipline` rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardKind {
    /// A `Mutex` guard (`.lock()` or a fn returning `MutexGuard`).
    Mutex,
    /// An `RwLock` read guard.
    RwRead,
    /// An `RwLock` write guard.
    RwWrite,
}

/// One call site inside a fn body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (`foo` in `foo(..)`, `bar` in `x.bar(..)`).
    pub name: String,
    /// `Q` in `Q::name(..)`, when path-qualified.
    pub qualifier: Option<String>,
    /// The dotted receiver chain of a method call (`self.store` in
    /// `self.store.read(..)`), empty when it could not be recovered.
    pub receiver: String,
    /// 1-based line of the call.
    pub line: usize,
    /// True for `.name(` method syntax.
    pub is_method: bool,
    /// `Some(var)` when the call's result is `let`-bound on this line.
    pub let_binding: Option<String>,
}

/// A guard-producing expression.
#[derive(Debug, Clone)]
pub struct GuardSite {
    pub line: usize,
    pub kind: GuardKind,
    /// The `let` binding holding the guard, if any. An unbound guard is
    /// a temporary: it lives only for its own statement (approximated
    /// as its line).
    pub binding: Option<String>,
}

/// A `loop {` header.
#[derive(Debug, Clone)]
pub struct LoopSite {
    pub line: usize,
    /// True when the header (or the line above) carries a
    /// `// bounded: <why this terminates>` marker.
    pub bounded: bool,
}

/// One atomic operation (`load`/`store`/`swap`/`compare_exchange`/
/// `fetch_*`) with everything R8 needs.
#[derive(Debug, Clone)]
pub struct AtomicSite {
    pub line: usize,
    /// Last line of the call's argument list (calls may span lines).
    pub end_line: usize,
    pub method: String,
    /// Trailing identifier of the receiver chain (`writes` in
    /// `self.writes.load(..)`).
    pub receiver: String,
    /// The call names an explicit `Ordering::` argument.
    pub has_ordering: bool,
    /// `Ordering::Relaxed` appears among the named orderings.
    pub relaxed: bool,
    /// A `// ordering:` justification comment covers this site.
    pub justified: bool,
}

/// One `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// The `impl` type the fn lives in, when known.
    pub owner: Option<String>,
    pub has_receiver: bool,
    /// Line of the `fn` keyword.
    pub line: usize,
    /// Line of the closing brace.
    pub end_line: usize,
    /// Header sits in a `#[cfg(test)]`/`#[test]` region.
    pub is_test: bool,
    /// The declared return type produces a guard.
    pub returns_guard: Option<GuardKind>,
    pub calls: Vec<CallSite>,
    pub guards: Vec<GuardSite>,
    pub loops: Vec<LoopSite>,
    pub atomics: Vec<AtomicSite>,
    /// Lines performing backend I/O directly (`backend.read_into(` etc.).
    pub io_lines: Vec<usize>,
    /// `drop(var)` statements, which end a guard's scope early.
    pub drops: Vec<(usize, String)>,
}

/// The parsed model of one file.
#[derive(Debug, Default)]
pub struct FileModel {
    pub fns: Vec<FnItem>,
    /// Identifiers declared with a `Mutex<`/`RwLock<` type in this file.
    pub lock_names: Vec<String>,
    /// Identifiers declared with an `Atomic*` type in this file.
    pub atomic_names: Vec<String>,
    /// `field name -> head type` pairs recovered from field declarations
    /// (`store: PageStore`, `buffer: Arc<ShardedBuffer>`).
    pub field_types: Vec<(String, String)>,
    /// Brace depth at the start of each 1-based line.
    depth_before: Vec<usize>,
}

impl FileModel {
    /// Last line of the block enclosing `line` (clamped to `fn_end`):
    /// the first line at or after `line` whose following line starts at
    /// a shallower depth.
    pub fn scope_end(&self, line: usize, fn_end: usize) -> usize {
        let d = self.depth_at(line);
        let mut m = line;
        while m < fn_end {
            if self.depth_at(m + 1) < d {
                return m;
            }
            m += 1;
        }
        fn_end
    }

    fn depth_at(&self, line: usize) -> usize {
        self.depth_before.get(line).copied().unwrap_or(0)
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Rust keywords that look like call names to a token scanner.
const KEYWORDS: [&str; 22] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move",
    "mut", "ref", "impl", "where", "use", "mod", "unsafe", "async", "dyn", "break",
];

/// Atomic methods R8 polices.
pub const ATOMIC_METHODS: [&str; 12] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_update",
    "fetch_max",
];

/// Tokens marking a line as direct backend I/O (the `PageBackend`
/// surface plus raw filesystem access).
const IO_CALL_MARKERS: [&str; 9] = [
    "backend.read_into(",
    "backend.peek_into(",
    "backend.write(",
    "backend.restore(",
    "backend.allocate(",
    "backend.sync(",
    "std::fs::",
    "File::open(",
    "File::create(",
];

/// The identifier ending at byte `end` (exclusive) of `line`, if any.
fn ident_ending_at(line: &str, end: usize) -> Option<&str> {
    let head = line.get(..end)?;
    let start = head
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident(*c))
        .last()
        .map(|(i, _)| i)?;
    let ident = head.get(start..)?;
    let first = ident.chars().next()?;
    if first.is_ascii_digit() {
        return None;
    }
    Some(ident)
}

/// The dotted receiver chain ending at byte `end` (exclusive): walks
/// back over identifier and `.` characters. Stops (returning what it
/// has) at anything else, so `foo(x).bar` yields an empty chain.
fn receiver_chain(line: &str, end: usize) -> String {
    let Some(head) = line.get(..end) else {
        return String::new();
    };
    let bytes = head.as_bytes();
    let mut i = head.len();
    while i > 0 {
        let c = bytes[i - 1] as char;
        if is_ident(c) || c == '.' {
            i -= 1;
        } else {
            break;
        }
    }
    head.get(i..).unwrap_or("").trim_matches('.').to_string()
}

/// The last identifier of a dotted chain (`lru` in `shard.lru`).
pub fn chain_tail(chain: &str) -> &str {
    chain.rsplit('.').next().unwrap_or(chain)
}

/// Whether a `let <ident> =` statement opens immediately before byte
/// `at` on `line` (no `;` in between); returns the bound identifier.
fn let_binding_before(line: &str, at: usize) -> Option<String> {
    let head = line.get(..at)?;
    let let_at = head.rfind("let ")?;
    // `let` must be a token, and no statement boundary may intervene.
    if let_at > 0 {
        let prev = head.get(..let_at)?.chars().next_back();
        if prev.is_some_and(is_ident) {
            return None;
        }
    }
    let between = head.get(let_at + 4..)?;
    if between.contains(';') {
        return None;
    }
    let mut toks = between.split_whitespace();
    let mut first = toks.next()?;
    if first == "mut" {
        first = toks.next()?;
    }
    let name: String = first.chars().take_while(|c| is_ident(*c)).collect();
    // Destructuring patterns (`let Some(x)`, `let Self { .. }`) don't
    // bind the guard under one name we can track.
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_uppercase()) {
        return None;
    }
    Some(name)
}

/// Positions of `needle` in `hay` preceded by a non-identifier char
/// (needles starting with `.` carry their own left boundary).
fn token_positions(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    let boundary = needle.chars().next().is_some_and(is_ident);
    while let Some(rel) = hay.get(from..).and_then(|h| h.find(needle)) {
        let at = from + rel;
        let ok = !boundary
            || at == 0
            || hay
                .get(..at)
                .and_then(|h| h.chars().next_back())
                .is_none_or(|c| !is_ident(c));
        if ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

/// Does `hay[at..]` hold the standalone keyword `kw` (both sides
/// bounded by non-identifier characters)?
fn keyword_at(hay: &str, at: usize, kw: &str) -> bool {
    let Some(rest) = hay.get(at..) else {
        return false;
    };
    if !rest.starts_with(kw) {
        return false;
    }
    if at > 0
        && hay
            .get(..at)
            .and_then(|h| h.chars().next_back())
            .is_some_and(is_ident)
    {
        return false;
    }
    rest.get(kw.len()..)
        .and_then(|r| r.chars().next())
        .is_none_or(|c| !is_ident(c))
}

/// Extract the implemented type from an `impl` header (the ident after
/// `for` when present, else the first type ident after the generics).
fn impl_type(header: &str) -> Option<String> {
    let body = header.trim_start();
    let rest = body.strip_prefix("impl")?;
    let rest = rest.trim_start();
    // Skip a balanced generic parameter list.
    let rest = if rest.starts_with('<') {
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest.get(cut..).unwrap_or("")
    } else {
        rest
    };
    let target = match rest.find(" for ") {
        Some(at) => rest.get(at + 5..).unwrap_or(""),
        None => rest,
    };
    let name: String = target
        .trim_start()
        .chars()
        .take_while(|c| is_ident(*c))
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Guard kind named by a return type, if any.
fn guard_return(sig_after_arrow: &str) -> Option<GuardKind> {
    if sig_after_arrow.contains("MutexGuard") {
        Some(GuardKind::Mutex)
    } else if sig_after_arrow.contains("RwLockReadGuard") {
        Some(GuardKind::RwRead)
    } else if sig_after_arrow.contains("RwLockWriteGuard") {
        Some(GuardKind::RwWrite)
    } else {
        None
    }
}

/// A fn signature being accumulated until its body `{` (or a bodyless
/// `;`) appears.
struct PendingFn {
    text: String,
    start_line: usize,
    owner: Option<String>,
    paren_depth: i32,
    bracket_depth: i32,
}

enum Ctx {
    Impl {
        ty: Option<String>,
        open_depth: usize,
    },
    Fn {
        idx: usize,
        open_depth: usize,
    },
}

/// Parse one masked file. `ascii` is the masked text (ASCII-blanked),
/// `comments` the captured `//` comments, `exempt` the 1-based
/// test-region map from `test_exempt_lines`.
pub fn parse(ascii: &str, comments: &[Comment], exempt: &[bool]) -> FileModel {
    let mut model = FileModel::default();
    collect_declarations(ascii, &mut model);

    let line_count = ascii.lines().count();
    model.depth_before = vec![0; line_count + 2];

    // Comment lookups for `// bounded:` / `// ordering:` markers.
    let bounded_on: Vec<usize> = comments
        .iter()
        .filter(|c| c.text.contains("bounded:"))
        .map(|c| c.line)
        .collect();
    let ordering_on: Vec<(usize, bool)> = comments
        .iter()
        .filter(|c| c.text.contains("ordering:"))
        .map(|c| (c.line, c.trailing))
        .collect();
    let comment_lines: Vec<usize> = comments
        .iter()
        .filter(|c| !c.trailing)
        .map(|c| c.line)
        .collect();

    let mut depth: usize = 0;
    let mut stack: Vec<Ctx> = Vec::new();
    let mut pending_fn: Option<PendingFn> = None;
    let mut pending_impl: Option<String> = None;

    let lines: Vec<&str> = ascii.lines().collect();
    for (idx, raw_line) in lines.iter().enumerate() {
        let line_no = idx + 1;
        if let Some(slot) = model.depth_before.get_mut(line_no) {
            *slot = depth;
        }
        let line = *raw_line;
        let is_exempt = exempt.get(line_no).copied().unwrap_or(false);

        // --- signature accumulation ---------------------------------
        // Where (if anywhere) a body `{` opened on this line, i.e. the
        // column code scanning should start from.
        let mut body_from: Option<usize> = None;
        if pending_fn.is_some() {
            let mut sig_done = false;
            let mut sig_bodyless = false;
            if let Some(p) = pending_fn.as_mut() {
                for (col, c) in line.char_indices() {
                    match c {
                        '(' => p.paren_depth += 1,
                        ')' => p.paren_depth -= 1,
                        '[' => p.bracket_depth += 1,
                        ']' => p.bracket_depth -= 1,
                        '{' if p.paren_depth == 0 && p.bracket_depth == 0 => {
                            body_from = Some(col + 1);
                            sig_done = true;
                            break;
                        }
                        ';' if p.paren_depth == 0 && p.bracket_depth == 0 => {
                            sig_done = true;
                            sig_bodyless = true;
                            break;
                        }
                        _ => {}
                    }
                    p.text.push(c);
                }
                if !sig_done {
                    p.text.push(' ');
                }
            }
            if !sig_done {
                continue; // signature spills onto the next line
            }
            if sig_bodyless {
                pending_fn = None; // trait method without a body
            } else if let Some(p) = pending_fn.take() {
                let test = exempt.get(p.start_line).copied().unwrap_or(false);
                let fidx = finalize_fn(&p, test, &mut model);
                stack.push(Ctx::Fn {
                    idx: fidx,
                    open_depth: depth + 1,
                });
            }
        } else if pending_impl.is_some() {
            if let Some(col) = line.find('{') {
                let mut header = pending_impl.take().unwrap_or_default();
                header.push_str(line.get(..col).unwrap_or(""));
                stack.push(Ctx::Impl {
                    ty: impl_type(&header),
                    open_depth: depth + 1,
                });
                body_from = Some(col + 1);
            } else {
                if let Some(h) = pending_impl.as_mut() {
                    h.push_str(line);
                    h.push(' ');
                }
                continue;
            }
        }

        let scan_from = body_from.unwrap_or(0);
        let seg = line.get(scan_from..).unwrap_or("");

        // --- new item headers ---------------------------------------
        let mut scanned_header = false;
        if pending_fn.is_none() && pending_impl.is_none() {
            if let Some(fn_at) = find_fn_token(seg) {
                scanned_header = true;
                let abs = scan_from + fn_at;
                let owner = stack.iter().rev().find_map(|c| match c {
                    Ctx::Impl { ty, .. } => Some(ty.clone()),
                    _ => None,
                });
                let mut p = PendingFn {
                    text: String::new(),
                    start_line: line_no,
                    owner: owner.flatten(),
                    paren_depth: 0,
                    bracket_depth: 0,
                };
                // Consume the rest of the line as signature text.
                enum Term {
                    Body(usize),
                    Bodyless,
                    Open,
                }
                let mut term = Term::Open;
                for (col, c) in line.char_indices().filter(|(col, _)| *col >= abs) {
                    match c {
                        '(' => p.paren_depth += 1,
                        ')' => p.paren_depth -= 1,
                        '[' => p.bracket_depth += 1,
                        ']' => p.bracket_depth -= 1,
                        '{' if p.paren_depth == 0 && p.bracket_depth == 0 => {
                            term = Term::Body(col);
                            break;
                        }
                        ';' if p.paren_depth == 0 && p.bracket_depth == 0 => {
                            term = Term::Bodyless;
                            break;
                        }
                        _ => {}
                    }
                    p.text.push(c);
                }
                match term {
                    Term::Bodyless => {}
                    Term::Body(col) => {
                        let fidx = finalize_fn(&p, is_exempt, &mut model);
                        stack.push(Ctx::Fn {
                            idx: fidx,
                            open_depth: depth + 1,
                        });
                        scan_sites(
                            line,
                            col + 1,
                            line_no,
                            ascii,
                            &mut model,
                            Some(fidx),
                            is_exempt,
                            &bounded_on,
                            &ordering_on,
                            &comment_lines,
                        );
                    }
                    Term::Open => pending_fn = Some(p),
                }
            } else if let Some(impl_at) = find_impl_token(seg) {
                scanned_header = true;
                let abs = scan_from + impl_at;
                if let Some(col) = line.get(abs..).and_then(|r| r.find('{')) {
                    let header = line.get(abs..abs + col).unwrap_or("");
                    stack.push(Ctx::Impl {
                        ty: impl_type(header),
                        open_depth: depth + 1,
                    });
                } else {
                    pending_impl = Some(line.get(abs..).unwrap_or("").to_string());
                    continue;
                }
            }
        }
        if !scanned_header {
            if let Some(fidx) = stack_innermost_fn(&stack) {
                scan_sites(
                    line,
                    scan_from,
                    line_no,
                    ascii,
                    &mut model,
                    Some(fidx),
                    is_exempt,
                    &bounded_on,
                    &ordering_on,
                    &comment_lines,
                );
            }
        }

        // --- structural pass: braces, context pops ------------------
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth = depth.saturating_sub(1);
                    while let Some(top) = stack.last() {
                        let open = match top {
                            Ctx::Impl { open_depth, .. } | Ctx::Fn { open_depth, .. } => {
                                *open_depth
                            }
                        };
                        if depth < open {
                            if let Some(Ctx::Fn { idx, .. }) = stack.pop() {
                                if let Some(f) = model.fns.get_mut(idx) {
                                    f.end_line = line_no;
                                }
                            }
                        } else {
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    if let Some(slot) = model.depth_before.get_mut(line_count + 1) {
        *slot = depth;
    }
    // Close any fn left open by a truncated file.
    for ctx in stack {
        if let Ctx::Fn { idx, .. } = ctx {
            if let Some(f) = model.fns.get_mut(idx) {
                if f.end_line == 0 {
                    f.end_line = line_count;
                }
            }
        }
    }
    model
}

fn stack_innermost_fn(stack: &[Ctx]) -> Option<usize> {
    stack.iter().rev().find_map(|c| match c {
        Ctx::Fn { idx, .. } => Some(*idx),
        _ => None,
    })
}

fn finalize_fn(p: &PendingFn, is_test: bool, model: &mut FileModel) -> usize {
    let sig = p.text.as_str();
    let name: String = sig
        .trim_start()
        .strip_prefix("fn")
        .map(|r| {
            r.trim_start()
                .chars()
                .take_while(|c| is_ident(*c))
                .collect()
        })
        .unwrap_or_default();
    // Receiver: a `self` token inside the first parenthesized group.
    let params = sig
        .find('(')
        .and_then(|open| {
            let rest = sig.get(open + 1..)?;
            let close = rest.find(')')?;
            rest.get(..close)
        })
        .unwrap_or("");
    let has_receiver = token_positions(params, "self")
        .iter()
        .any(|&at| keyword_at(params, at, "self"));
    let returns_guard = sig
        .find("->")
        .and_then(|at| sig.get(at + 2..))
        .and_then(guard_return);
    model.fns.push(FnItem {
        name,
        owner: p.owner.clone(),
        has_receiver,
        line: p.start_line,
        end_line: 0,
        is_test,
        returns_guard,
        calls: Vec::new(),
        guards: Vec::new(),
        loops: Vec::new(),
        atomics: Vec::new(),
        io_lines: Vec::new(),
        drops: Vec::new(),
    });
    model.fns.len() - 1
}

/// Position of a standalone `fn` keyword in `seg`.
fn find_fn_token(seg: &str) -> Option<usize> {
    token_positions(seg, "fn")
        .into_iter()
        .find(|&at| keyword_at(seg, at, "fn"))
}

/// Position of a standalone `impl` keyword opening an impl block (not
/// `-> impl Trait` / `: impl Trait` type positions).
fn find_impl_token(seg: &str) -> Option<usize> {
    token_positions(seg, "impl").into_iter().find(|&at| {
        keyword_at(seg, at, "impl")
            && !seg
                .get(..at)
                .unwrap_or("")
                .trim_end()
                .ends_with(['>', ':', ',', '(', '&', '='])
    })
}

/// Scan one line's code (from byte `from`) for sites, attributing them
/// to fn `fn_idx`.
#[expect(
    clippy::too_many_arguments,
    reason = "one line's scan needs the file-wide marker tables alongside the line itself"
)]
fn scan_sites(
    line: &str,
    from: usize,
    line_no: usize,
    full_text: &str,
    model: &mut FileModel,
    fn_idx: Option<usize>,
    is_exempt: bool,
    bounded_on: &[usize],
    ordering_on: &[(usize, bool)],
    comment_lines: &[usize],
) {
    let Some(fn_idx) = fn_idx else {
        return;
    };
    if is_exempt {
        return;
    }
    let seg = line.get(from..).unwrap_or("");

    // Collect into locals; the mutable model borrow is taken at the end.
    let mut calls: Vec<CallSite> = Vec::new();
    let mut guards: Vec<GuardSite> = Vec::new();
    let mut loops: Vec<LoopSite> = Vec::new();
    let mut atomics: Vec<AtomicSite> = Vec::new();
    let mut io_hit = false;
    let mut drops: Vec<(usize, String)> = Vec::new();

    // --- calls ------------------------------------------------------
    for (col, c) in seg.char_indices() {
        if c != '(' {
            continue;
        }
        let Some(name) = ident_ending_at(seg, col) else {
            continue;
        };
        if KEYWORDS.contains(&name) {
            continue;
        }
        let name_start = col - name.len();
        let before = seg.get(..name_start).unwrap_or("");
        // `fn name(` is a definition.
        if before.trim_end().ends_with("fn") {
            continue;
        }
        let (qualifier, receiver, is_method) = if before.ends_with("::") {
            let q = ident_ending_at(before, before.len() - 2).map(str::to_string);
            (q, String::new(), false)
        } else if before.ends_with('.') {
            (
                None,
                receiver_chain(seg, name_start.saturating_sub(1)),
                true,
            )
        } else {
            (None, String::new(), false)
        };
        let abs_at = from + name_start;
        if name == "drop" && !is_method {
            let arg: String = seg
                .get(col + 1..)
                .unwrap_or("")
                .chars()
                .take_while(|c| is_ident(*c))
                .collect();
            if !arg.is_empty() {
                drops.push((line_no, arg));
            }
            continue;
        }
        calls.push(CallSite {
            name: name.to_string(),
            qualifier,
            receiver,
            line: line_no,
            is_method,
            let_binding: let_binding_before(line, abs_at),
        });
    }

    // --- guard producers -------------------------------------------
    for at in token_positions(seg, ".lock()") {
        guards.push(GuardSite {
            line: line_no,
            kind: GuardKind::Mutex,
            binding: let_binding_before(line, from + at),
        });
    }
    for (needle, kind) in [
        (".read()", GuardKind::RwRead),
        (".write()", GuardKind::RwWrite),
    ] {
        for at in token_positions(seg, needle) {
            let recv = receiver_chain(seg, at);
            let tail = chain_tail(&recv);
            if model.lock_names.iter().any(|n| n == tail) {
                guards.push(GuardSite {
                    line: line_no,
                    kind,
                    binding: let_binding_before(line, from + at),
                });
            }
        }
    }

    // --- loops ------------------------------------------------------
    for at in token_positions(seg, "loop") {
        if !keyword_at(seg, at, "loop") {
            continue;
        }
        let bounded =
            bounded_on.contains(&line_no) || bounded_on.contains(&(line_no.saturating_sub(1)));
        loops.push(LoopSite {
            line: line_no,
            bounded,
        });
    }

    // --- atomics ----------------------------------------------------
    for method in ATOMIC_METHODS {
        let needle = format!(".{method}(");
        for at in token_positions(seg, &needle) {
            let recv = receiver_chain(seg, at);
            let tail = chain_tail(&recv).to_string();
            // Capture the argument text (may span lines) from the full
            // masked source.
            let abs = line_offset(full_text, line_no) + from + at + needle.len();
            let (args, end_line) = capture_args(full_text, abs, line_no);
            let has_ordering = args.contains("Ordering::");
            if !has_ordering && !model.atomic_names.contains(&tail) {
                continue; // not an atomic (e.g. `v.swap(i, j)`)
            }
            let relaxed = args.contains("Ordering::Relaxed");
            let justified =
                ordering_justified(line_no, end_line, ordering_on, comment_lines, model);
            atomics.push(AtomicSite {
                line: line_no,
                end_line,
                method: method.to_string(),
                receiver: tail,
                has_ordering,
                relaxed,
                justified,
            });
        }
    }

    // --- backend I/O markers ---------------------------------------
    if IO_CALL_MARKERS.iter().any(|m| seg.contains(m)) {
        io_hit = true;
    }

    let Some(f) = model.fns.get_mut(fn_idx) else {
        return;
    };
    f.calls.append(&mut calls);
    f.guards.append(&mut guards);
    f.loops.append(&mut loops);
    f.atomics.append(&mut atomics);
    if io_hit {
        f.io_lines.push(line_no);
    }
    f.drops.append(&mut drops);
}

/// Byte offset of the start of 1-based `line` in `text`.
fn line_offset(text: &str, line: usize) -> usize {
    if line <= 1 {
        return 0;
    }
    let mut current = 1;
    for (i, b) in text.bytes().enumerate() {
        if b == b'\n' {
            current += 1;
            if current == line {
                return i + 1;
            }
        }
    }
    text.len()
}

/// Capture a call's argument text from the byte after its `(` to the
/// matching `)`, returning the text and the 1-based line it ends on.
fn capture_args(text: &str, from: usize, start_line: usize) -> (String, usize) {
    let mut depth = 1i32;
    let mut out = String::new();
    let mut line = start_line;
    for c in text.get(from..).unwrap_or("").chars() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return (out, line);
                }
            }
            '\n' => line += 1,
            _ => {}
        }
        out.push(c);
        if out.len() > 2048 {
            break; // unbalanced source; stop scanning
        }
    }
    (out, line)
}

/// Is an `// ordering:` comment attached to the statement spanning
/// `[line, end_line]`? Accepted positions: trailing on any line of the
/// span, or standalone above the span — walking up through comment-only
/// lines and lines that already hold atomic calls, so one comment can
/// cover a contiguous run of counter updates.
fn ordering_justified(
    line: usize,
    end_line: usize,
    ordering_on: &[(usize, bool)],
    comment_lines: &[usize],
    model: &FileModel,
) -> bool {
    for l in line..=end_line {
        if ordering_on.iter().any(|&(cl, _)| cl == l) {
            return true;
        }
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if ordering_on
            .iter()
            .any(|&(cl, trailing)| cl == l && !trailing)
        {
            return true;
        }
        if comment_lines.contains(&l) {
            continue;
        }
        if model
            .fns
            .iter()
            .any(|f| f.atomics.iter().any(|a| a.line <= l && l <= a.end_line))
        {
            continue;
        }
        // A non-comment, non-atomic line breaks the run.
        return false;
    }
    false
}

/// Collect lock/atomic/field declarations file-wide (they may precede
/// or follow the fns that use them).
fn collect_declarations(ascii: &str, model: &mut FileModel) {
    const ATOMIC_TYPES: [&str; 7] = [
        "AtomicU64",
        "AtomicUsize",
        "AtomicU32",
        "AtomicU8",
        "AtomicBool",
        "AtomicPtr",
        "AtomicI64",
    ];
    for line in ascii.lines() {
        if line.trim_start().starts_with("let ") {
            let has_lock = line.contains("Mutex<") || line.contains("RwLock<");
            let has_atomic = ATOMIC_TYPES.iter().any(|t| line.contains(t));
            if has_lock || has_atomic {
                if let Some(name) = declared_name(line) {
                    if has_lock && !model.lock_names.contains(&name) {
                        model.lock_names.push(name.clone());
                    }
                    if has_atomic && !model.atomic_names.contains(&name) {
                        model.atomic_names.push(name);
                    }
                }
            }
            continue;
        }
        for (name, ty) in field_segments(line) {
            if (ty.contains("Mutex<") || ty.contains("RwLock<"))
                && !model.lock_names.contains(&name)
            {
                model.lock_names.push(name.clone());
            }
            if ATOMIC_TYPES.iter().any(|t| ty.contains(t)) && !model.atomic_names.contains(&name) {
                model.atomic_names.push(name.clone());
            }
            collect_field_type(name, ty, model);
        }
    }
}

/// Every `name: Type` pair on this line; a field's type segment runs to
/// the next comma (or `}`) at angle/paren depth zero, so multi-field
/// struct lines yield each field separately.
fn field_segments(line: &str) -> Vec<(String, &str)> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b':' {
            continue;
        }
        if (i > 0 && bytes[i - 1] == b':') || bytes.get(i + 1) == Some(&b':') {
            continue; // `::` path, not a declaration
        }
        let Some(name) = ident_ending_at(line, i) else {
            continue;
        };
        let rest = &line[i + 1..];
        let mut depth = 0i32;
        let mut end = rest.len();
        for (off, c) in rest.char_indices() {
            match c {
                '<' | '(' | '[' => depth += 1,
                '>' | ')' | ']' => depth -= 1,
                ',' | '}' if depth <= 0 => {
                    end = off;
                    break;
                }
                _ => {}
            }
        }
        out.push((name.to_string(), rest[..end].trim()));
    }
    out
}

/// The declared identifier of a `name: Type` field or `let name =`
/// binding on this line.
fn declared_name(line: &str) -> Option<String> {
    let trimmed = line.trim_start();
    if let Some(rest) = trimmed.strip_prefix("let ") {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
        if name.is_empty() {
            return None;
        }
        return Some(name);
    }
    let colon = line.find(':')?;
    if line.get(colon + 1..colon + 2) == Some(":") {
        return None; // `::` path, not a declaration
    }
    ident_ending_at(line, colon).map(|s| s.to_string())
}

/// Record a `field: Type` pair where `Type` is a plain type ident,
/// possibly wrapped in `Arc<`/`Box<`/`Rc<`/`Vec<`/`Option<`.
fn collect_field_type(name: String, ty: &str, model: &mut FileModel) {
    let mut ty = ty.trim();
    loop {
        let before = ty;
        for wrapper in ["Arc<", "Box<", "Rc<", "Vec<", "Option<"] {
            while let Some(rest) = ty.strip_prefix(wrapper) {
                ty = rest;
            }
        }
        if ty == before {
            break;
        }
    }
    let head: String = ty.chars().take_while(|c| is_ident(*c)).collect();
    if head.is_empty() || head.chars().next().is_some_and(|c| !c.is_uppercase()) {
        return; // not a concrete type name
    }
    if !model
        .field_types
        .iter()
        .any(|(n, t)| *n == name && *t == head)
    {
        model.field_types.push((name, head));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask;

    fn parse_src(src: &str) -> FileModel {
        let m = mask::mask(src);
        let exempt = crate::test_exempt_lines(&m.text);
        parse(&m.text, &m.comments, &exempt)
    }

    #[test]
    fn extracts_fns_with_owner_and_receiver() {
        let src = "\
impl Widget {
    pub fn api(&self) -> usize { self.helper() }
    fn helper(&self) -> usize { 0 }
}
pub(crate) fn internal() {}
pub fn free() {}
";
        let m = parse_src(src);
        let names: Vec<(&str, bool, Option<&str>)> = m
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.has_receiver, f.owner.as_deref()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("api", true, Some("Widget")),
                ("helper", true, Some("Widget")),
                ("internal", false, None),
                ("free", false, None),
            ]
        );
        assert_eq!(m.fns[0].calls.len(), 1);
        assert_eq!(m.fns[0].calls[0].name, "helper");
        assert!(m.fns[0].calls[0].is_method);
        assert_eq!(m.fns[0].calls[0].receiver, "self");
    }

    #[test]
    fn multiline_signatures_and_impl_for_headers() {
        let src = "\
impl Clone for Pool {
    fn clone(
        &self,
    ) -> Self {
        self.rebuild()
    }
}
";
        let m = parse_src(src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "clone");
        assert_eq!(m.fns[0].owner.as_deref(), Some("Pool"));
        assert!(m.fns[0].has_receiver);
        assert_eq!(m.fns[0].calls[0].name, "rebuild");
        assert_eq!(m.fns[0].end_line, 6);
    }

    #[test]
    fn guard_sites_and_bindings() {
        let src = "\
struct S { inner: Mutex<u32>, core: RwLock<u32> }
impl S {
    fn f(&self) {
        let g = self.inner.lock();
        let r = self.core.read();
        self.core.write();
        other.flush();
    }
}
";
        let m = parse_src(src);
        assert_eq!(m.lock_names, vec!["inner".to_string(), "core".to_string()]);
        let f = &m.fns[0];
        let kinds: Vec<GuardKind> = f.guards.iter().map(|g| g.kind).collect();
        assert_eq!(
            kinds,
            vec![GuardKind::Mutex, GuardKind::RwRead, GuardKind::RwWrite]
        );
        assert_eq!(f.guards[0].binding.as_deref(), Some("g"));
        assert_eq!(f.guards[1].binding.as_deref(), Some("r"));
        assert_eq!(f.guards[2].binding, None);
    }

    #[test]
    fn atomics_with_and_without_justification() {
        let src = "\
struct S { hits: AtomicU64, level: AtomicU64 }
impl S {
    fn f(&self) {
        // ordering: Relaxed - independent stat counter
        self.hits.fetch_add(1, Ordering::Relaxed);
        let n = 1;
        self.level.store(0, Ordering::SeqCst);
    }
}
";
        let m = parse_src(src);
        let a = &m.fns[0].atomics;
        assert_eq!(a.len(), 2);
        assert!(a[0].justified && a[0].has_ordering && a[0].relaxed);
        // `let n = 1;` breaks the comment's run: the store is bare.
        assert!(a[1].has_ordering && !a[1].relaxed && !a[1].justified);
    }

    #[test]
    fn one_ordering_comment_covers_a_contiguous_run() {
        let src = "\
struct S { hits: AtomicU64, misses: AtomicU64 }
impl S {
    fn f(&self) {
        // ordering: both are independent stat counters
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }
}
";
        let m = parse_src(src);
        let a = &m.fns[0].atomics;
        assert_eq!(a.len(), 2);
        assert!(a[0].justified && a[1].justified);
    }

    #[test]
    fn slice_swap_is_not_an_atomic() {
        let src = "fn f(v: &mut Vec<u32>) { v.swap(0, 1); }\n";
        let m = parse_src(src);
        assert!(m.fns[0].atomics.is_empty());
    }

    #[test]
    fn loops_and_bounded_markers() {
        let src = "\
fn f() {
    // bounded: attempts caps at policy.max_attempts
    loop {
        break;
    }
    loop {
        break;
    }
}
";
        let m = parse_src(src);
        let l = &m.fns[0].loops;
        assert_eq!(l.len(), 2);
        assert!(l[0].bounded);
        assert!(!l[1].bounded);
    }

    #[test]
    fn test_code_contributes_no_sites() {
        let src = "\
pub fn lib() {}
#[cfg(test)]
mod tests {
    fn t() { x.unwrap(); }
}
";
        let m = parse_src(src);
        let t = m.fns.iter().find(|f| f.name == "t");
        assert!(t.is_some_and(|f| f.is_test && f.calls.is_empty()));
    }

    #[test]
    fn scope_end_finds_enclosing_block_close() {
        let src = "\
fn f() {
    {
        let g = m.lock();
        g.touch();
    }
    after();
}
";
        let m = parse_src(src);
        assert_eq!(m.scope_end(3, m.fns[0].end_line), 5);
        assert_eq!(m.scope_end(6, m.fns[0].end_line), 7);
    }

    #[test]
    fn drop_statements_are_recorded() {
        let src = "fn f() { let g = m.lock(); drop(g); after(); }\n";
        let m = parse_src(src);
        assert_eq!(m.fns[0].drops, vec![(1, "g".to_string())]);
        assert!(m.fns[0].calls.iter().all(|c| c.name != "drop"));
    }

    #[test]
    fn qualified_calls_record_their_qualifier() {
        let src = "fn f() { let t = PprTree::open(p); Self::step(s); }\n";
        let m = parse_src(src);
        let c = &m.fns[0].calls;
        assert_eq!(c[0].qualifier.as_deref(), Some("PprTree"));
        assert_eq!(c[0].let_binding.as_deref(), Some("t"));
        assert_eq!(c[1].qualifier.as_deref(), Some("Self"));
    }

    #[test]
    fn guard_returning_signature_is_detected() {
        let src = "\
impl S {
    fn shard(&self, page: u64) -> MutexGuard<'_, Shard> {
        self.shards.lock()
    }
}
";
        let m = parse_src(src);
        assert_eq!(m.fns[0].returns_guard, Some(GuardKind::Mutex));
    }

    #[test]
    fn field_types_recover_wrapped_heads() {
        let src = "struct S { buffer: Arc<ShardedBuffer>, store: PageStore, n: usize }\n";
        let m = parse_src(src);
        assert!(m
            .field_types
            .iter()
            .any(|(n, t)| n == "buffer" && t == "ShardedBuffer"));
        assert!(m
            .field_types
            .iter()
            .any(|(n, t)| n == "store" && t == "PageStore"));
        assert!(!m.field_types.iter().any(|(n, _)| n == "n"));
    }

    #[test]
    fn multiline_atomic_arguments_are_captured() {
        let src = "\
struct S { epoch: AtomicU64 }
impl S {
    fn f(&self) {
        self.epoch.store(
            0,
            Ordering::SeqCst,
        ); // ordering: reset joins no release chain
    }
}
";
        let m = parse_src(src);
        let a = &m.fns[0].atomics;
        assert_eq!(a.len(), 1);
        assert!(a[0].has_ordering);
        assert_eq!(a[0].end_line, 7);
        assert!(a[0].justified, "trailing comment on the close line counts");
    }
}
