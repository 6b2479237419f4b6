//! Runtime invariant sanitizer for [`PprTree`].
//!
//! [`validate`] walks the *entire* history (every root span, alive and
//! dead edges) and [`validate_current`] walks only the current ephemeral
//! tree (alive edges of the open root span). Both are read-only: node
//! pages are fetched with [`sti_storage::PageStore::peek`], so running a
//! check never perturbs the paper's I/O accounting or buffer residency.
//!
//! The checked invariants, with the paper sections that motivate them
//! (Hadjieleftheriou et al., *Efficient Indexing of Spatiotemporal
//! Objects*, EDBT 2002; the PPR-Tree inherits them from the MVB-Tree of
//! Becker et al.):
//!
//! - **Root log** (§4.1): spans are ordered and non-overlapping (gaps are
//!   legal — times when no record was alive), only the final span may be
//!   open, closed spans are non-empty, and no span reaches past the
//!   clock.
//! - **Structure**: every reachable page is allocated and decodes as a
//!   node of the level its parent expects; fanout never exceeds the page
//!   capacity `B`.
//! - **MBR containment** (R-Tree invariant, §2): a directory entry's
//!   rectangle contains every child entry whose lifetime intersects the
//!   directory entry's lifetime. Dead edges are checked against the
//!   child's state *during* the edge — a child copied onward by a version
//!   split keeps growing, and that growth is covered by the successor
//!   edge, not the frozen one.
//! - **Lifetime nesting**: entry lifetimes are well-formed half-open
//!   intervals stamped no later than the clock; no entry predates its
//!   node's first reference or is killed after the node's close.
//! - **Weak version condition** (§4.1): at every kill event strictly
//!   before a non-root node's close, the node retains at least
//!   `D = ceil(p_version * B)` alive entries. The condition is enforced
//!   by `apply_ops` *at update events*, so copies created sparse by the
//!   best-effort merge path (no alive sibling) are legal until the next
//!   kill touches them.
//! - **Duplicate-alive** (update semantics, §4.2): one leaf never holds
//!   two entries for the same `(id, rect)` with overlapping lifetimes.
//! - **Record accounting**: the alive-entry count over the current
//!   ephemeral tree equals [`PprTree::alive_records`].
//!
//! [`profile`] describes instead of checking: per level, the nodes a
//! query at a sampled instant meets, their area, and how much siblings
//! overlap — peeked the same way, off the I/O books.

use std::collections::{HashMap, HashSet};
use std::fmt;

use sti_geom::{Rect2, Time, TimeInterval};
use sti_storage::PageId;

use crate::node::{PprEntry, PprNode};
use crate::tree::{PprTree, RootSpan};

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// Root-log spans out of order, overlapping, empty, or open mid-log.
    RootLog,
    /// An update or span timestamp lies beyond the tree clock.
    ClockSkew,
    /// A directory entry points at an unallocated page.
    DanglingChild,
    /// A reachable page does not decode as a PPR-Tree node.
    UnreadableNode,
    /// A node's stored level differs from what its parent expects.
    LevelMismatch,
    /// More entries than the page capacity `B`.
    Overfull,
    /// A reachable directory node with no alive children.
    EmptyDirectory,
    /// A directory entry's rectangle fails to cover a child entry that
    /// was alive while the directory entry was.
    MbrContainment,
    /// An entry lifetime is inverted, predates its node, or outlives it.
    LifetimeNesting,
    /// Alive-entry count dropped below the weak minimum `D` at a kill
    /// event that did not close the node.
    WeakVersion,
    /// Two leaf entries for the same record with overlapping lifetimes.
    DuplicateAlive,
    /// Alive leaf entries do not sum to [`PprTree::alive_records`].
    AliveCountMismatch,
}

impl ViolationKind {
    /// Short diagnostic tag.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::RootLog => "root_log",
            ViolationKind::ClockSkew => "clock_skew",
            ViolationKind::DanglingChild => "dangling_child",
            ViolationKind::UnreadableNode => "unreadable_node",
            ViolationKind::LevelMismatch => "level_mismatch",
            ViolationKind::Overfull => "overfull",
            ViolationKind::EmptyDirectory => "empty_directory",
            ViolationKind::MbrContainment => "mbr_containment",
            ViolationKind::LifetimeNesting => "lifetime_nesting",
            ViolationKind::WeakVersion => "weak_version",
            ViolationKind::DuplicateAlive => "duplicate_alive",
            ViolationKind::AliveCountMismatch => "alive_count_mismatch",
        }
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, located on a page when one is involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The offending page, or `None` for tree-level findings.
    pub page: Option<PageId>,
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics (entry indices, timestamps, bounds).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.page {
            Some(p) => write!(f, "page {p}: [{}] {}", self.kind, self.detail),
            None => write!(f, "[{}] {}", self.kind, self.detail),
        }
    }
}

/// Summary statistics from a clean check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckReport {
    /// Spans in the root log.
    pub root_spans: usize,
    /// Unique node pages decoded.
    pub nodes: usize,
    /// Entries inspected across those nodes.
    pub entries: usize,
    /// Alive records counted over the current ephemeral tree.
    pub alive_records: u64,
    /// Height of the current ephemeral tree (levels; 0 when no root is
    /// open).
    pub height: u32,
    /// Allocated pages in the store.
    pub pages: usize,
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} root span(s), {} node(s) / {} entrie(s) checked; \
             alive={}, height={}, {} page(s)",
            self.root_spans, self.nodes, self.entries, self.alive_records, self.height, self.pages
        )
    }
}

/// Check every invariant over the full history: all root spans, alive
/// *and* dead edges. This is what `stidx check` and the test-only
/// [`PprTree::validate`] run.
pub fn validate(tree: &PprTree) -> Result<CheckReport, Vec<Violation>> {
    run(tree, Mode::FullHistory)
}

/// Check only the current ephemeral tree (alive edges of the open root
/// span) plus the root log and record accounting. Cheap enough to run
/// after individual updates; the debug builds of
/// [`PprTree::insert`]/[`PprTree::delete`] call this on a sampling
/// schedule.
pub fn validate_current(tree: &PprTree) -> Result<CheckReport, Vec<Violation>> {
    run(tree, Mode::CurrentAlive)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    FullHistory,
    CurrentAlive,
}

fn run(tree: &PprTree, mode: Mode) -> Result<CheckReport, Vec<Violation>> {
    let mut c = Checker {
        tree,
        mode,
        max_entries: tree.params().max_entries,
        weak_min: tree.params().weak_min(),
        now: tree.now(),
        violations: Vec::new(),
        nodes: HashMap::new(),
        span_refs: HashMap::new(),
        processed: HashSet::new(),
        root_pages: HashSet::new(),
        entries_seen: 0,
    };
    c.check_root_log();
    match mode {
        Mode::FullHistory => {
            for span in tree.roots().to_vec() {
                c.walk_span(&span);
            }
        }
        Mode::CurrentAlive => {
            if let Some(span) = open_span(tree) {
                c.walk_span(&span);
            }
        }
    }
    let lifetimes = c.compute_lifetimes();
    c.check_containment(&lifetimes);
    c.check_weak_condition(&lifetimes);
    c.reconcile_alive();
    c.finish()
}

fn open_span(tree: &PprTree) -> Option<RootSpan> {
    tree.roots()
        .last()
        .copied()
        .filter(|s| s.interval.is_open())
}

/// Half-open interval intersection test.
fn intervals_overlap(a: &TimeInterval, b: &TimeInterval) -> bool {
    a.start.max(b.start) < a.end.min(b.end)
}

/// Half-open interval intersection, `None` when empty.
fn clip(a: &TimeInterval, b: &TimeInterval) -> Option<TimeInterval> {
    let start = a.start.max(b.start);
    let end = a.end.min(b.end);
    (start < end).then_some(TimeInterval { start, end })
}

/// Grow `hull` to cover `iv`.
fn hull_into(hull: &mut Option<TimeInterval>, iv: TimeInterval) {
    *hull = Some(match hull {
        None => iv,
        Some(h) => TimeInterval {
            start: h.start.min(iv.start),
            end: h.end.max(iv.end),
        },
    });
}

struct Checker<'a> {
    tree: &'a PprTree,
    mode: Mode,
    max_entries: usize,
    weak_min: usize,
    now: Time,
    violations: Vec<Violation>,
    /// Decode cache; `None` marks a page that failed to load (already
    /// reported).
    nodes: HashMap<PageId, Option<PprNode>>,
    /// Root-log references per page, the seeds of the lifetime
    /// computation.
    span_refs: HashMap<PageId, Vec<TimeInterval>>,
    /// Pages whose node-level checks already ran (spans share subtrees).
    processed: HashSet<PageId>,
    /// Pages that serve as a root in some span (exempt from the weak
    /// version condition).
    root_pages: HashSet<PageId>,
    entries_seen: usize,
}

impl Checker<'_> {
    fn report(&mut self, page: Option<PageId>, kind: ViolationKind, detail: String) {
        self.violations.push(Violation { page, kind, detail });
    }

    /// Decode a page through the cache, reporting dangling/unreadable
    /// pages exactly once.
    fn load(&mut self, page: PageId) -> Option<PprNode> {
        if let Some(cached) = self.nodes.get(&page) {
            return cached.clone();
        }
        let decoded = match self.tree.store_ref().peek(page) {
            None => {
                self.report(
                    Some(page),
                    ViolationKind::DanglingChild,
                    format!(
                        "page beyond the {}-page store",
                        self.tree.store_ref().num_pages()
                    ),
                );
                None
            }
            Some(raw) => match PprNode::decode(&raw) {
                Ok(node) => Some(node),
                Err(e) => {
                    self.report(
                        Some(page),
                        ViolationKind::UnreadableNode,
                        format!("node decode failed: {e}"),
                    );
                    None
                }
            },
        };
        self.nodes.insert(page, decoded.clone());
        decoded
    }

    fn check_root_log(&mut self) {
        let roots = self.tree.roots();
        let n = roots.len();
        for (i, s) in roots.iter().enumerate() {
            if s.interval.is_open() {
                if i + 1 != n {
                    self.report(
                        Some(s.page),
                        ViolationKind::RootLog,
                        format!("span {i} is open but not final"),
                    );
                }
                if s.interval.start > self.now {
                    self.report(
                        Some(s.page),
                        ViolationKind::ClockSkew,
                        format!(
                            "span {i} opens at {} but the clock is {}",
                            s.interval.start, self.now
                        ),
                    );
                }
            } else {
                if s.interval.is_empty() {
                    self.report(
                        Some(s.page),
                        ViolationKind::RootLog,
                        format!(
                            "span {i} is closed and empty ([{}, {}))",
                            s.interval.start, s.interval.end
                        ),
                    );
                }
                if s.interval.end > self.now {
                    self.report(
                        Some(s.page),
                        ViolationKind::ClockSkew,
                        format!(
                            "span {i} closes at {} but the clock is {}",
                            s.interval.end, self.now
                        ),
                    );
                }
            }
        }
        for (i, w) in roots.windows(2).enumerate() {
            // Gaps are legal (the tree emptied, then a later insert opened
            // a fresh span); overlap or disorder is not.
            if w[1].interval.start < w[0].interval.end {
                self.report(
                    Some(w[1].page),
                    ViolationKind::RootLog,
                    format!(
                        "span {} starts at {} before span {} ends at {}",
                        i + 1,
                        w[1].interval.start,
                        i,
                        w[0].interval.end
                    ),
                );
            }
        }
    }

    /// Walk one span's subtree. In [`Mode::CurrentAlive`] only alive
    /// edges are followed; in [`Mode::FullHistory`] dead edges are walked
    /// too, so every historical node is reached.
    fn walk_span(&mut self, span: &RootSpan) {
        self.root_pages.insert(span.page);
        self.span_refs
            .entry(span.page)
            .or_default()
            .push(span.interval);
        let mut visited: HashSet<PageId> = HashSet::new();
        let mut stack: Vec<(PageId, u32)> = vec![(span.page, span.level)];
        while let Some((page, expected_level)) = stack.pop() {
            if !visited.insert(page) {
                continue;
            }
            let Some(node) = self.load(page) else {
                continue;
            };
            if self.processed.insert(page) {
                self.check_node(page, &node, expected_level);
            }
            if node.is_leaf() {
                continue;
            }
            for e in &node.entries {
                if self.mode == Mode::CurrentAlive && !e.is_alive() {
                    continue;
                }
                stack.push((e.child_page(), node.level - 1));
            }
        }
    }

    /// Node-local checks plus per-edge checks against each child. Runs
    /// once per unique page even when several spans share the subtree.
    fn check_node(&mut self, page: PageId, node: &PprNode, expected_level: u32) {
        self.entries_seen += node.entries.len();
        if node.level != expected_level {
            self.report(
                Some(page),
                ViolationKind::LevelMismatch,
                format!("node level {} where {expected_level} expected", node.level),
            );
        }
        if node.entries.len() > self.max_entries {
            self.report(
                Some(page),
                ViolationKind::Overfull,
                format!(
                    "{} entries exceed capacity {}",
                    node.entries.len(),
                    self.max_entries
                ),
            );
        }
        for (i, e) in node.entries.iter().enumerate() {
            if e.insertion > e.deletion {
                self.report(
                    Some(page),
                    ViolationKind::LifetimeNesting,
                    format!(
                        "entry {i} has inverted lifetime [{}, {})",
                        e.insertion, e.deletion
                    ),
                );
            }
            if e.insertion > self.now {
                self.report(
                    Some(page),
                    ViolationKind::ClockSkew,
                    format!(
                        "entry {i} inserted at {} but the clock is {}",
                        e.insertion, self.now
                    ),
                );
            }
            if !e.is_alive() && e.deletion > self.now {
                self.report(
                    Some(page),
                    ViolationKind::ClockSkew,
                    format!(
                        "entry {i} deleted at {} but the clock is {}",
                        e.deletion, self.now
                    ),
                );
            }
        }
        if node.is_leaf() {
            self.check_duplicate_alive(page, node);
        }
    }

    /// One leaf must never hold two entries for the same `(id, rect)`
    /// with overlapping lifetimes — `delete` would be ambiguous.
    fn check_duplicate_alive(&mut self, page: PageId, node: &PprNode) {
        for (i, a) in node.entries.iter().enumerate() {
            for (j, b) in node.entries.iter().enumerate().skip(i + 1) {
                if a.ptr == b.ptr
                    && a.rect == b.rect
                    && intervals_overlap(&a.lifetime(), &b.lifetime())
                {
                    self.report(
                        Some(page),
                        ViolationKind::DuplicateAlive,
                        format!(
                            "entries {i} and {j} duplicate record {} over \
                             overlapping lifetimes",
                            a.ptr
                        ),
                    );
                }
            }
        }
    }

    /// Compute each node's lifetime as an interval hull, walking the
    /// version DAG top-down by level. A node lives over the union of its
    /// referencing-edge windows, where an edge's window is the entry's
    /// lifetime *clipped to the parent node's own lifetime* — an
    /// open-ended entry frozen inside a closed parent stops being an edge
    /// the instant the parent closes (its role passes to the re-stamped
    /// copy), and children of a closed root die with the span even though
    /// nothing ever killed their entries.
    fn compute_lifetimes(&mut self) -> HashMap<PageId, TimeInterval> {
        let mut life: HashMap<PageId, Option<TimeInterval>> = HashMap::new();
        for (page, spans) in &self.span_refs {
            for iv in spans {
                hull_into(life.entry(*page).or_default(), *iv);
            }
        }
        // Edges always point from level L+1 to level L, so processing
        // pages by decreasing level sees every parent before its children.
        let mut order: Vec<(u32, PageId)> = self
            .nodes
            .iter()
            .filter_map(|(p, n)| n.as_ref().map(|n| (n.level, *p)))
            .collect();
        order.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, page) in order {
            let Some(Some(pl)) = life.get(&page).copied() else {
                continue;
            };
            let Some(Some(node)) = self.nodes.get(&page) else {
                continue;
            };
            if node.is_leaf() {
                continue;
            }
            for e in &node.entries {
                if self.mode == Mode::CurrentAlive && !e.is_alive() {
                    continue;
                }
                if let Some(w) = clip(&pl, &e.lifetime()) {
                    hull_into(life.entry(e.child_page()).or_default(), w);
                }
            }
        }
        life.into_iter()
            .filter_map(|(p, l)| l.map(|l| (p, l)))
            .collect()
    }

    /// MBR containment over effective edge windows: a directory entry's
    /// rectangle must cover every child entry whose lifetime intersects
    /// the window. Dead edges are checked against the child's state
    /// *during* the edge only — a child copied onward by a version split
    /// keeps growing, and that growth is covered by the successor edge,
    /// not the frozen one.
    fn check_containment(&mut self, life: &HashMap<PageId, TimeInterval>) {
        let mut pages: Vec<PageId> = self.nodes.keys().copied().collect();
        pages.sort_unstable();
        for page in pages {
            let Some(Some(node)) = self.nodes.get(&page).cloned() else {
                continue;
            };
            if node.is_leaf() {
                continue;
            }
            let Some(pl) = life.get(&page).copied() else {
                continue;
            };
            for (i, e) in node.entries.iter().enumerate() {
                if self.mode == Mode::CurrentAlive && !e.is_alive() {
                    continue;
                }
                let Some(w) = clip(&pl, &e.lifetime()) else {
                    continue;
                };
                let child_page = e.child_page();
                let Some(Some(child)) = self.nodes.get(&child_page).cloned() else {
                    continue;
                };
                for (j, ce) in child.entries.iter().enumerate() {
                    // Only the *final* rect of an entry is stored, and
                    // directory entries keep growing while their node
                    // lives — growth after this edge closed belongs to
                    // the successor edge. The final rect is only
                    // meaningful against this window when it froze
                    // within it: leaf rects are immutable, and a killed
                    // directory entry stops growing at its kill. An open
                    // window (the current spine) subsumes all growth.
                    let frozen = child.is_leaf() || ce.lifetime().end <= w.end;
                    if frozen
                        && intervals_overlap(&w, &ce.lifetime())
                        && !e.rect.contains_rect(&ce.rect)
                    {
                        self.report(
                            Some(page),
                            ViolationKind::MbrContainment,
                            format!(
                                "entry {i} ({:?}, effective [{}, {})) does not \
                                 cover page {child_page} entry {j} ({:?}, \
                                 lifetime [{}, {}))",
                                e.rect,
                                w.start,
                                w.end,
                                ce.rect,
                                ce.lifetime().start,
                                ce.lifetime().end
                            ),
                        );
                    }
                }
            }
        }
    }

    /// Weak version condition, evaluated at kill events: for every
    /// non-root node and every distinct kill time `tk` strictly before
    /// the node's close, at least `D` entries are alive at `tk`.
    /// `apply_ops` closes a node the instant an update leaves it below
    /// `D`, so the only legal sub-`D` states begin at a node's creation
    /// (best-effort sparse copies) and carry no kill event of their own.
    ///
    /// [`Mode::FullHistory`] additionally pins entry lifetimes inside the
    /// node's own lifetime; the alive-only edge set of
    /// [`Mode::CurrentAlive`] over-estimates creation times (a copied
    /// edge is re-stamped while the child's entries are not), so those
    /// bounds are skipped there.
    fn check_weak_condition(&mut self, life: &HashMap<PageId, TimeInterval>) {
        let mut pages: Vec<PageId> = self.nodes.keys().copied().collect();
        pages.sort_unstable();
        for page in pages {
            let Some(Some(node)) = self.nodes.get(&page).cloned() else {
                continue;
            };
            let Some(l) = life.get(&page).copied() else {
                continue;
            };
            let (creation, close) = (l.start, l.end);
            let is_root = self.root_pages.contains(&page);
            if self.mode == Mode::FullHistory && !is_root {
                for (i, e) in node.entries.iter().enumerate() {
                    if e.insertion < creation {
                        self.report(
                            Some(page),
                            ViolationKind::LifetimeNesting,
                            format!(
                                "entry {i} inserted at {} before the node's \
                                 first reference at {creation}",
                                e.insertion
                            ),
                        );
                    }
                    if !e.is_alive() && e.deletion > close {
                        self.report(
                            Some(page),
                            ViolationKind::LifetimeNesting,
                            format!(
                                "entry {i} killed at {} after the node closed \
                                 at {close}",
                                e.deletion
                            ),
                        );
                    }
                }
            }
            if is_root {
                continue;
            }
            let mut kill_times: Vec<Time> = node
                .entries
                .iter()
                .filter(|e| !e.is_alive())
                .map(|e| e.deletion)
                .filter(|&tk| tk >= creation && tk < close)
                .collect();
            kill_times.sort_unstable();
            kill_times.dedup();
            for tk in kill_times {
                let alive = node.entries.iter().filter(|e| e.alive_at(tk)).count();
                if alive < self.weak_min {
                    self.report(
                        Some(page),
                        ViolationKind::WeakVersion,
                        format!(
                            "{alive} alive entries after the kill at {tk} \
                             (weak minimum {}, node open until {close})",
                            self.weak_min
                        ),
                    );
                }
            }
        }
    }

    /// Walk the current ephemeral tree (alive edges only) and reconcile
    /// the alive-entry count with the tree's record counter. Also the
    /// natural place to spot an alive directory with no alive children.
    fn reconcile_alive(&mut self) {
        let Some(span) = open_span(self.tree) else {
            if self.tree.alive_records() != 0 {
                self.report(
                    None,
                    ViolationKind::AliveCountMismatch,
                    format!(
                        "no open root span but alive_records={}",
                        self.tree.alive_records()
                    ),
                );
            }
            return;
        };
        let mut alive: u64 = 0;
        let mut visited: HashSet<PageId> = HashSet::new();
        let mut stack = vec![span.page];
        while let Some(page) = stack.pop() {
            if !visited.insert(page) {
                continue;
            }
            let Some(node) = self.load(page) else {
                continue;
            };
            if node.is_leaf() {
                alive += node.alive_count() as u64;
                continue;
            }
            if node.alive_count() == 0 {
                self.report(
                    Some(page),
                    ViolationKind::EmptyDirectory,
                    "alive directory node with no alive children".to_string(),
                );
            }
            for e in &node.entries {
                if e.is_alive() {
                    stack.push(e.child_page());
                }
            }
        }
        if alive != self.tree.alive_records() {
            self.report(
                None,
                ViolationKind::AliveCountMismatch,
                format!(
                    "{alive} alive leaf entries but alive_records={}",
                    self.tree.alive_records()
                ),
            );
        }
    }

    fn finish(mut self) -> Result<CheckReport, Vec<Violation>> {
        if self.violations.is_empty() {
            Ok(CheckReport {
                root_spans: self.tree.roots().len(),
                nodes: self.nodes.len(),
                entries: self.entries_seen,
                alive_records: self.tree.alive_records(),
                height: open_span(self.tree).map_or(0, |s| s.level + 1),
                pages: self.tree.store_ref().num_pages(),
            })
        } else {
            // Traversal order depends on hash iteration; sort for
            // deterministic output (a repo-wide requirement).
            self.violations.sort_by(|a, b| {
                (a.page, a.kind, a.detail.as_str()).cmp(&(b.page, b.kind, b.detail.as_str()))
            });
            Err(self.violations)
        }
    }
}

/// Instants a [`profile`] samples, evenly spaced over the root log.
pub const PROFILE_INSTANTS: u64 = 16;

/// One level of a [`profile`]: the ephemeral trees at the sampled
/// instants, seen at that level.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LevelProfile {
    /// Level (leaf = 0).
    pub level: u32,
    /// Nodes alive at a sampled instant, mean over the instants.
    pub nodes_mean: f64,
    /// Nodes alive at a sampled instant, max over the instants.
    pub nodes_max: usize,
    /// Mean area of those nodes' MBRs: the rectangle of the edge that
    /// leads to the node, or a root's hull of its alive entries.
    pub mean_area: f64,
    /// Mean overlap area of two siblings alive at the same instant, over
    /// every such pair (0 when there is none).
    pub mean_overlap: f64,
}

/// Per-level shape of the tree at [`PROFILE_INSTANTS`] instants evenly
/// spaced over the root log, leaf first: one row per level up to the
/// tallest root. Pages are peeked, so the profile costs no counted I/O; a
/// page that fails to decode, or is not at the level its parent expects,
/// is skipped (see [`validate`]).
pub fn profile(tree: &PprTree) -> Vec<LevelProfile> {
    let spans = tree.roots();
    let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
        return Vec::new();
    };
    let lo = u64::from(first.interval.start);
    let hi = u64::from(last.interval.end.min(tree.now().saturating_add(1))).max(lo + 1);
    let levels = spans.iter().map(|s| s.level).max().unwrap_or(0);
    let mut sums = vec![LevelSums::default(); levels as usize + 1];
    let mut nodes: HashMap<PageId, Option<PprNode>> = HashMap::new();
    for i in 0..PROFILE_INSTANTS {
        let t = Time::try_from(lo + (2 * i + 1) * (hi - lo) / (2 * PROFILE_INSTANTS))
            .unwrap_or(Time::MAX);
        let mut alive = vec![0usize; sums.len()];
        let span = spans.iter().find(|s| s.interval.contains(t));
        let mut stack: Vec<(PageId, Option<Rect2>, u32)> =
            span.map(|s| (s.page, None, s.level)).into_iter().collect();
        while let Some((page, edge, level)) = stack.pop() {
            let node = nodes.entry(page).or_insert_with(|| {
                let raw = tree.store_ref().peek(page)?;
                PprNode::decode(&raw).ok()
            });
            let Some(node) = node.as_ref().filter(|n| n.level == level) else {
                continue;
            };
            let children: Vec<&PprEntry> = node.entries.iter().filter(|e| e.alive_at(t)).collect();
            let mbr = edge.or_else(|| children.iter().map(|e| e.rect).reduce(|a, b| a.union(&b)));
            let Some(row) = sums.get_mut(node.level as usize) else {
                continue;
            };
            row.area += mbr.map_or(0.0, |r| r.area());
            if let Some(n) = alive.get_mut(node.level as usize) {
                *n += 1;
            }
            if node.is_leaf() {
                continue;
            }
            if let Some(below) = sums.get_mut(node.level as usize - 1) {
                for (i, a) in children.iter().enumerate() {
                    for b in children.iter().skip(i + 1) {
                        below.overlap += a.rect.overlap_area(&b.rect);
                        below.pairs += 1;
                    }
                }
            }
            stack.extend(
                children
                    .iter()
                    .map(|e| (e.child_page(), Some(e.rect), level - 1)),
            );
        }
        for (row, n) in sums.iter_mut().zip(alive) {
            row.nodes += n;
            row.nodes_max = row.nodes_max.max(n);
        }
    }
    sums.iter()
        .zip(0..)
        .map(|(row, level)| LevelProfile {
            level,
            nodes_mean: row.nodes as f64 / PROFILE_INSTANTS as f64,
            nodes_max: row.nodes_max,
            mean_area: ratio(row.area, row.nodes),
            mean_overlap: ratio(row.overlap, row.pairs),
        })
        .collect()
}

/// Running sums of one level of a [`profile`].
#[derive(Debug, Clone, Copy, Default)]
struct LevelSums {
    nodes: usize,
    nodes_max: usize,
    area: f64,
    overlap: f64,
    pairs: usize,
}

fn ratio(sum: f64, count: usize) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PprParams;
    use sti_geom::Rect2;
    use sti_storage::Page;

    fn small_params() -> PprParams {
        // B = 10: D = ceil(2.2) = 3, svo = 8, svu = 4; svo+1 ≥ 2·svu ✓
        PprParams {
            max_entries: 10,
            p_version: 0.22,
            p_svo: 0.8,
            p_svu: 0.4,
            buffer_pages: 4,
        }
    }

    fn rect(i: u64) -> Rect2 {
        let x = (i % 10) as f64 * 0.08;
        let y = (i / 10 % 10) as f64 * 0.08;
        Rect2::from_bounds(x, y, x + 0.05, y + 0.05)
    }

    #[test]
    fn empty_tree_is_clean() {
        let tree = PprTree::new(small_params());
        let report = validate(&tree).expect("empty tree must validate");
        assert_eq!(report.root_spans, 0);
        assert_eq!(report.nodes, 0);
        assert_eq!(report.alive_records, 0);
        assert_eq!(report.height, 0);
    }

    #[test]
    fn grown_tree_full_history_is_clean() {
        let mut tree = PprTree::new(small_params());
        for i in 0..200u64 {
            tree.insert(i, rect(i), i as u32 + 1).unwrap();
        }
        for i in (0..200u64).step_by(3) {
            tree.delete(i, rect(i), 300 + i as u32)
                .expect("alive record");
        }
        let report = validate(&tree).expect("grown tree must validate");
        assert!(report.root_spans >= 1);
        assert!(report.nodes > 1, "tree should have split");
        assert_eq!(report.alive_records, tree.alive_records());
        let current = validate_current(&tree).expect("current view must validate");
        assert_eq!(current.alive_records, report.alive_records);
        assert!(current.nodes <= report.nodes);
    }

    #[test]
    fn emptied_tree_with_gap_is_clean() {
        let mut tree = PprTree::new(small_params());
        for i in 0..20u64 {
            tree.insert(i, rect(i), 10).unwrap();
        }
        for i in 0..20u64 {
            tree.delete(i, rect(i), 20).expect("alive record");
        }
        // Gap in the root log, then a fresh evolution.
        tree.insert(99, rect(3), 50).unwrap();
        let report = validate(&tree).expect("gapped root log is legal");
        assert_eq!(report.alive_records, 1);
    }

    #[test]
    fn corrupted_counter_is_reported() {
        let mut tree = PprTree::new(small_params());
        for i in 0..50u64 {
            tree.insert(i, rect(i), i as u32 + 1).unwrap();
        }
        tree.corrupt_alive_records_for_test(7);
        let violations = validate(&tree).expect_err("corruption must be caught");
        assert!(violations
            .iter()
            .any(|v| v.kind == ViolationKind::AliveCountMismatch));
        assert!(validate_current(&tree).is_err());
    }

    #[test]
    fn corrupted_page_is_reported() {
        let mut tree = PprTree::new(small_params());
        for i in 0..120u64 {
            tree.insert(i, rect(i), i as u32 + 1).unwrap();
        }
        // Garbage at rest below the pool, under a checksum that matches
        // it: a store write would refuse it.
        let mut junk = Page::zeroed();
        junk.fill_from(&[0xFF; 64]);
        let root = tree.roots()[tree.roots().len() - 1].page;
        let tree = crate::tree::tests::adopted_with(&tree, root, &junk);
        let violations = validate(&tree).expect_err("clobbered root must be caught");
        assert!(!violations.is_empty());
    }

    #[test]
    fn violations_and_report_render() {
        let v = Violation {
            page: Some(3),
            kind: ViolationKind::WeakVersion,
            detail: "2 alive entries".to_string(),
        };
        assert_eq!(v.to_string(), "page 3: [weak_version] 2 alive entries");
        let v2 = Violation {
            page: None,
            kind: ViolationKind::AliveCountMismatch,
            detail: "x".to_string(),
        };
        assert!(v2.to_string().starts_with("[alive_count_mismatch]"));
        let mut tree = PprTree::new(small_params());
        tree.insert(1, rect(1), 5).unwrap();
        let report = validate(&tree).expect("clean");
        let text = report.to_string();
        assert!(text.contains("root span"));
        assert!(text.contains("alive=1"));
    }
}
