//! Phase 2 of the workspace analysis: link the per-file item models
//! into a workspace call graph and compute the interprocedural
//! summaries the graph rules consume.
//!
//! Call resolution is heuristic and deliberately under-approximate:
//!
//! 1. `Q::name(..)` resolves through the `(owner, name)` index; `Self::`
//!    uses the caller's impl owner.
//! 2. `recv.name(..)` resolves by the receiver's type: `self.name(..)`
//!    uses the caller's owner, `self.field.name(..)` looks the field up
//!    in the workspace field-type map (`Arc<`/`Box<` heads stripped).
//! 3. Anything else falls back to a name-based lookup, rejected when
//!    the name is a std-ubiquitous method (`clone`, `len`, `get`, ...)
//!    or when too many workspace fns share it (`AMBIGUITY_CAP`) — a
//!    wrong edge is worse than a missing one.

use crate::parse::{chain_tail, FileModel};
use std::collections::HashMap;

/// Upper bound on name-only candidates before a call is left
/// unresolved.
const AMBIGUITY_CAP: usize = 3;

/// Methods so common in std (or on lock/atomic primitives) that a
/// name-only match would almost always be a false edge.
const UBIQUITOUS_METHODS: [&str; 31] = [
    "clone",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "drop",
    "next",
    "len",
    "is_empty",
    "iter",
    "get",
    "push",
    "pop",
    "insert",
    "remove",
    "contains",
    "new",
    "from",
    "into",
    "read",
    "write",
    "lock",
    "sync",
    "load",
    "store",
    "swap",
    "flush",
    "clear",
];

/// Per-file inputs to graph construction.
pub struct FileInput {
    /// Workspace-relative path.
    pub path: String,
    pub model: FileModel,
    /// From the file's [`crate::FileClass`].
    pub strict_atomic: bool,
}

/// Global id of a fn: (file index, fn index within the file).
pub type FnId = (usize, usize);

/// How a fn acquires a property: directly at a line, or through a call
/// at a line to another fn. Evidence chains reconstruct diagnostics'
/// call paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    Direct { line: usize },
    Via { line: usize, callee: FnId },
}

impl Evidence {
    pub fn line(&self) -> usize {
        match self {
            Evidence::Direct { line } | Evidence::Via { line, .. } => *line,
        }
    }
}

/// A fn's interprocedural summary, computed to fixpoint.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Acquires a lock (holds a guard at some point) itself or
    /// transitively.
    pub acquires_lock: Option<Evidence>,
    /// Performs backend I/O itself or transitively.
    pub does_io: Option<Evidence>,
    /// Contains an unbounded `loop` itself or transitively.
    pub unbounded_loop: Option<Evidence>,
}

pub struct Graph {
    pub files: Vec<FileInput>,
    /// All fns in deterministic (file, index) order.
    pub fn_ids: Vec<FnId>,
    /// Resolved callees per fn, parallel to each fn's `calls` vec:
    /// `calls_of[fn][call_site] -> resolved targets`.
    calls: HashMap<FnId, Vec<Vec<FnId>>>,
    /// `summaries[fn]`, computed to fixpoint over the call graph.
    pub summaries: HashMap<FnId, Summary>,
}

impl Graph {
    pub fn build(files: Vec<FileInput>) -> Graph {
        let mut fn_ids: Vec<FnId> = Vec::new();
        let mut name_index: HashMap<&str, Vec<FnId>> = HashMap::new();
        let mut owner_index: HashMap<(&str, &str), Vec<FnId>> = HashMap::new();
        // Workspace field-type map; a field name mapping to more than
        // one distinct type becomes unusable (None).
        let mut field_types: HashMap<&str, Option<&str>> = HashMap::new();

        for (fi, file) in files.iter().enumerate() {
            for (ni, f) in file.model.fns.iter().enumerate() {
                let id = (fi, ni);
                fn_ids.push(id);
                name_index.entry(f.name.as_str()).or_default().push(id);
                if let Some(owner) = f.owner.as_deref() {
                    owner_index
                        .entry((owner, f.name.as_str()))
                        .or_default()
                        .push(id);
                }
            }
            for (name, ty) in &file.model.field_types {
                field_types
                    .entry(name.as_str())
                    .and_modify(|t| {
                        if *t != Some(ty.as_str()) {
                            *t = None;
                        }
                    })
                    .or_insert(Some(ty.as_str()));
            }
        }

        let mut calls: HashMap<FnId, Vec<Vec<FnId>>> = HashMap::new();
        for &(fi, ni) in &fn_ids {
            let file = &files[fi];
            let caller = &file.model.fns[ni];
            let mut per_site = Vec::with_capacity(caller.calls.len());
            for call in &caller.calls {
                let mut targets: Vec<FnId> = Vec::new();
                if let Some(q) = call.qualifier.as_deref() {
                    let owner = if q == "Self" {
                        caller.owner.as_deref()
                    } else {
                        Some(q)
                    };
                    if let Some(owner) = owner {
                        if let Some(hits) = owner_index.get(&(owner, call.name.as_str())) {
                            targets.extend(hits.iter().copied());
                        }
                    }
                } else if call.is_method {
                    let tail = chain_tail(&call.receiver);
                    let recv_ty = if call.receiver == "self" {
                        caller.owner.as_deref()
                    } else if !tail.is_empty() && tail != "self" {
                        field_types.get(tail).copied().flatten()
                    } else {
                        None
                    };
                    if let Some(ty) = recv_ty {
                        if let Some(hits) = owner_index.get(&(ty, call.name.as_str())) {
                            targets.extend(hits.iter().copied());
                        }
                    }
                    if targets.is_empty() {
                        targets = name_fallback(&name_index, &files, call.name.as_str(), true);
                    }
                } else {
                    // Free-fn call: same-file fns first, then the
                    // workspace fallback.
                    if let Some(hits) = name_index.get(call.name.as_str()) {
                        let local: Vec<FnId> = hits
                            .iter()
                            .copied()
                            .filter(|&(f, n)| f == fi && !files[f].model.fns[n].has_receiver)
                            .collect();
                        if !local.is_empty() {
                            targets = local;
                        }
                    }
                    if targets.is_empty() {
                        targets = name_fallback(&name_index, &files, call.name.as_str(), false);
                    }
                }
                targets.sort_unstable();
                targets.dedup();
                per_site.push(targets);
            }
            calls.insert((fi, ni), per_site);
        }

        let mut g = Graph {
            files,
            fn_ids,
            calls,
            summaries: HashMap::new(),
        };
        g.compute_summaries();
        g
    }

    /// Resolved callees for each call site of `id` (parallel to the
    /// fn's `calls` vector).
    pub fn callees(&self, id: FnId) -> &[Vec<FnId>] {
        self.calls.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn fn_item(&self, id: FnId) -> &crate::parse::FnItem {
        &self.files[id.0].model.fns[id.1]
    }

    pub fn summary(&self, id: FnId) -> &Summary {
        static EMPTY: Summary = Summary {
            acquires_lock: None,
            does_io: None,
            unbounded_loop: None,
        };
        self.summaries.get(&id).unwrap_or(&EMPTY)
    }

    /// Human-readable label for a fn (`Type::name` or `name`).
    pub fn label(&self, id: FnId) -> String {
        let f = self.fn_item(id);
        match f.owner.as_deref() {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// Iterative dataflow to fixpoint: a fn's summary absorbs its own
    /// sites, then its callees' summaries through its call sites.
    fn compute_summaries(&mut self) {
        let mut summaries: HashMap<FnId, Summary> = HashMap::new();
        // Seed with direct facts.
        for &id in &self.fn_ids {
            let f = self.fn_item(id);
            let mut s = Summary::default();
            if f.is_test {
                summaries.insert(id, s);
                continue;
            }
            if let Some(g) = f.guards.first() {
                s.acquires_lock = Some(Evidence::Direct { line: g.line });
            }
            if f.returns_guard.is_some() && s.acquires_lock.is_none() {
                s.acquires_lock = Some(Evidence::Direct { line: f.line });
            }
            if let Some(&line) = f.io_lines.first() {
                s.does_io = Some(Evidence::Direct { line });
            }
            if let Some(l) = f.loops.iter().find(|l| !l.bounded) {
                s.unbounded_loop = Some(Evidence::Direct { line: l.line });
            }
            summaries.insert(id, s);
        }
        // Propagate until stable. Guard-returning callees hand their
        // guard to the caller, so a call to one also acquires.
        let mut changed = true;
        while changed {
            changed = false;
            for &id in &self.fn_ids {
                if self.fn_item(id).is_test {
                    continue;
                }
                let sites = self.callees(id);
                let caller_calls = &self.fn_item(id).calls;
                let mut updates = Summary::default();
                for (ci, targets) in sites.iter().enumerate() {
                    let line = caller_calls[ci].line;
                    for &t in targets {
                        let Some(ts) = summaries.get(&t) else {
                            continue;
                        };
                        if ts.acquires_lock.is_some() && updates.acquires_lock.is_none() {
                            updates.acquires_lock = Some(Evidence::Via { line, callee: t });
                        }
                        if ts.does_io.is_some() && updates.does_io.is_none() {
                            updates.does_io = Some(Evidence::Via { line, callee: t });
                        }
                        if ts.unbounded_loop.is_some() && updates.unbounded_loop.is_none() {
                            updates.unbounded_loop = Some(Evidence::Via { line, callee: t });
                        }
                    }
                }
                if let Some(s) = summaries.get_mut(&id) {
                    if s.acquires_lock.is_none() && updates.acquires_lock.is_some() {
                        s.acquires_lock = updates.acquires_lock;
                        changed = true;
                    }
                    if s.does_io.is_none() && updates.does_io.is_some() {
                        s.does_io = updates.does_io;
                        changed = true;
                    }
                    if s.unbounded_loop.is_none() && updates.unbounded_loop.is_some() {
                        s.unbounded_loop = updates.unbounded_loop;
                        changed = true;
                    }
                }
            }
        }
        self.summaries = summaries;
    }

    /// Follow a summary's evidence chain for `kind`, returning the fn
    /// labels from `id` down to the fn with the direct site (capped).
    pub fn evidence_chain(
        &self,
        id: FnId,
        pick: impl Fn(&Summary) -> Option<Evidence>,
    ) -> Vec<String> {
        let mut chain = vec![self.label(id)];
        let mut cur = id;
        for _ in 0..6 {
            match pick(self.summary(cur)) {
                Some(Evidence::Via { callee, .. }) => {
                    chain.push(self.label(callee));
                    cur = callee;
                }
                _ => break,
            }
        }
        chain
    }
}

/// Name-only fallback resolution with the ambiguity cap and the
/// ubiquitous-method blocklist.
fn name_fallback(
    name_index: &HashMap<&str, Vec<FnId>>,
    files: &[FileInput],
    name: &str,
    is_method: bool,
) -> Vec<FnId> {
    if UBIQUITOUS_METHODS.contains(&name) {
        return Vec::new();
    }
    let Some(hits) = name_index.get(name) else {
        return Vec::new();
    };
    let matching: Vec<FnId> = hits
        .iter()
        .copied()
        .filter(|&(f, n)| files[f].model.fns[n].has_receiver == is_method)
        .collect();
    // A method name shared by several types (e.g. `access` on every
    // buffer flavor) is how false edges happen: without the receiver's
    // type, linking to all candidates would blame the wrong impl. Free
    // fns tolerate a little ambiguity; methods must be unique.
    let cap = if is_method { 1 } else { AMBIGUITY_CAP };
    if matching.is_empty() || matching.len() > cap {
        return Vec::new();
    }
    matching
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(path: &str, src: &str) -> FileInput {
        let class = crate::FileClass {
            strict_atomic: false,
        };
        crate::file_input(path, src, class)
    }

    #[test]
    fn resolves_self_methods_and_qualified_calls() {
        let g = Graph::build(vec![input(
            "a.rs",
            "\
impl W {
    pub fn api(&self) { self.helper(); }
    fn helper(&self) { W::leaf(); }
    fn leaf() {}
}
",
        )]);
        let api = (0, 0);
        let targets = &g.callees(api)[0];
        assert_eq!(targets.len(), 1);
        assert_eq!(g.label(targets[0]), "W::helper");
        let helper = (0, 1);
        assert_eq!(g.label(g.callees(helper)[0][0]), "W::leaf");
    }

    #[test]
    fn resolves_through_field_types_across_files() {
        let a = input(
            "a.rs",
            "\
struct Outer { buffer: Arc<Inner> }
impl Outer {
    pub fn go(&self) { self.buffer.access(1); }
}
",
        );
        let b = input(
            "b.rs",
            "\
impl Inner {
    pub fn access(&self, p: u64) { let g = self.shards.lock(); }
}
",
        );
        let g = Graph::build(vec![a, b]);
        let go = (0, 0);
        let targets = &g.callees(go)[0];
        assert_eq!(targets.len(), 1, "{targets:?}");
        assert_eq!(g.label(targets[0]), "Inner::access");
        // And the summary propagates the lock acquisition.
        assert!(g.summary(go).acquires_lock.is_some());
    }

    #[test]
    fn ubiquitous_method_names_do_not_link() {
        let a = input("a.rs", "pub fn caller(x: &T) { x.clone(); x.get(0); }\n");
        let b = input(
            "b.rs",
            "\
impl Buf {
    pub fn clone(&self) { let g = self.m.lock(); }
    pub fn get(&self, i: usize) { let g = self.m.lock(); }
}
",
        );
        let g = Graph::build(vec![a, b]);
        let caller = (0, 0);
        assert!(g.callees(caller).iter().all(|t| t.is_empty()));
        assert!(g.summary(caller).acquires_lock.is_none());
    }

    #[test]
    fn summaries_reach_fixpoint_through_chains() {
        let g = Graph::build(vec![input(
            "a.rs",
            "\
fn a() { b(); }
fn b() { c(); }
fn c() {
    loop {
        step();
    }
}
",
        )]);
        let a = (0, 0);
        let s = g.summary(a);
        assert!(s.unbounded_loop.is_some());
        let chain = g.evidence_chain(a, |s| s.unbounded_loop);
        assert_eq!(chain, vec!["a", "b", "c"]);
    }

    #[test]
    fn test_fns_are_summary_inert() {
        let g = Graph::build(vec![input(
            "a.rs",
            "\
pub fn lib() { helper(); }
fn helper() {}
#[cfg(test)]
mod tests {
    fn t() { loop {} }
}
",
        )]);
        for &id in &g.fn_ids {
            assert!(g.summary(id).unbounded_loop.is_none(), "{}", g.label(id));
        }
    }
}
