//! R7 `lock_discipline`: constraints that hold while a lock guard is
//! live in scope — the `seal()` stall class of defect.
//!
//! Guard spans come from two places: literal guard producers
//! (`.lock()`, `.read()`/`.write()` on a known lock field) and calls to
//! fns whose return type is a guard (`core_read()`-style helpers). A
//! `let`-bound guard lives to the end of its enclosing block (or an
//! explicit `drop(var)`); an unbound guard is a temporary and lives
//! only on its own line.
//!
//! Clauses:
//!
//! * **No backend I/O under a `Mutex` guard** — direct marker lines and
//!   calls that transitively reach backend I/O. RwLock guards are
//!   exempt: the store's `core` RwLock deliberately protects the
//!   backend itself, so every store operation would fire.
//! * **No second lock acquisition under a `Mutex` guard** — a literal
//!   second acquisition or a call that transitively acquires. Shard
//!   locks are leaves in the workspace lock order; taking another lock
//!   while holding one risks deadlock.
//! * **No unbounded `loop` under *any* guard** — a `loop` without a
//!   `// bounded: <why this terminates>` marker, directly or through a
//!   call, while a guard is live: the PR 6 `seal()` stall reachable in
//!   review was exactly this.

use crate::graph::{FnId, Graph};
use crate::parse::GuardKind;
use crate::Diagnostic;

struct Span {
    start: usize,
    end: usize,
    kind: GuardKind,
    /// Index into the fn's `calls` of the call that produced this
    /// guard, for synthesized spans — excluded from clause checks.
    origin_call: Option<usize>,
}

fn kind_name(kind: GuardKind) -> &'static str {
    match kind {
        GuardKind::Mutex => "mutex",
        GuardKind::RwRead => "rwlock read",
        GuardKind::RwWrite => "rwlock write",
    }
}

pub fn run(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &id in &graph.fn_ids {
        if graph.fn_item(id).is_test {
            continue;
        }
        let spans = collect_spans(graph, id);
        for span in &spans {
            check_span(graph, id, span, &mut out);
        }
    }
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup();
    out
}

/// Literal and synthesized (guard-returning call) spans of one fn.
fn collect_spans(graph: &Graph, id: FnId) -> Vec<Span> {
    let f = graph.fn_item(id);
    let model = &graph.files[id.0].model;
    let mut spans = Vec::new();
    let mut push = |line: usize, kind: GuardKind, binding: Option<&str>, origin: Option<usize>| {
        let end = match binding {
            Some(var) => {
                let scope = model.scope_end(line, f.end_line);
                f.drops
                    .iter()
                    .filter(|(dl, dv)| *dl >= line && dv == var)
                    .map(|(dl, _)| *dl)
                    .min()
                    .unwrap_or(scope)
                    .min(scope)
            }
            None => line,
        };
        spans.push(Span {
            start: line,
            end,
            kind,
            origin_call: origin,
        });
    };
    for g in &f.guards {
        push(g.line, g.kind, g.binding.as_deref(), None);
    }
    for (ci, targets) in graph.callees(id).iter().enumerate() {
        let call = &f.calls[ci];
        let Some(kind) = targets.iter().find_map(|&t| graph.fn_item(t).returns_guard) else {
            continue;
        };
        push(call.line, kind, call.let_binding.as_deref(), Some(ci));
    }
    spans
}

fn check_span(graph: &Graph, id: FnId, span: &Span, out: &mut Vec<Diagnostic>) {
    let f = graph.fn_item(id);
    let path = &graph.files[id.0].path;
    let label = graph.label(id);
    let kname = kind_name(span.kind);
    let in_span = |line: usize| line >= span.start && line <= span.end;

    // Clause A: backend I/O under a Mutex guard.
    if span.kind == GuardKind::Mutex {
        for &io_line in &f.io_lines {
            if in_span(io_line) {
                out.push(Diagnostic {
                    path: path.clone(),
                    line: io_line,
                    rule: "lock_discipline".to_string(),
                    message: format!(
                        "backend I/O in `{label}` while a {kname} guard is live: \
                         move the I/O outside the critical section"
                    ),
                });
            }
        }
    }

    // Clause C (direct): unbounded loop under any guard.
    for l in &f.loops {
        if in_span(l.line) && !l.bounded {
            out.push(Diagnostic {
                path: path.clone(),
                line: l.line,
                rule: "lock_discipline".to_string(),
                message: format!(
                    "unbounded `loop` in `{label}` while a {kname} guard is live: \
                     bound the iterations and note it with `// bounded: <why>`"
                ),
            });
        }
    }

    // Call-mediated clauses.
    for (ci, targets) in graph.callees(id).iter().enumerate() {
        if Some(ci) == span.origin_call {
            continue;
        }
        let call = &f.calls[ci];
        if !in_span(call.line) {
            continue;
        }
        for &t in targets {
            let s = graph.summary(t);
            if span.kind == GuardKind::Mutex {
                if s.does_io.is_some() {
                    let chain = graph.evidence_chain(t, |s| s.does_io);
                    out.push(Diagnostic {
                        path: path.clone(),
                        line: call.line,
                        rule: "lock_discipline".to_string(),
                        message: format!(
                            "`{label}` calls `{}` which reaches backend I/O \
                             ({}) while a {kname} guard is live",
                            graph.label(t),
                            chain.join(" -> ")
                        ),
                    });
                }
                // A second acquisition: the callee returns a guard or
                // locks internally.
                if call.line > span.start
                    && (graph.fn_item(t).returns_guard.is_some() || s.acquires_lock.is_some())
                {
                    let chain = graph.evidence_chain(t, |s| s.acquires_lock);
                    out.push(Diagnostic {
                        path: path.clone(),
                        line: call.line,
                        rule: "lock_discipline".to_string(),
                        message: format!(
                            "`{label}` acquires a second lock via `{}` ({}) \
                             while a {kname} guard is live: release the first \
                             guard before locking again",
                            graph.label(t),
                            chain.join(" -> ")
                        ),
                    });
                }
            }
            if s.unbounded_loop.is_some() {
                let chain = graph.evidence_chain(t, |s| s.unbounded_loop);
                out.push(Diagnostic {
                    path: path.clone(),
                    line: call.line,
                    rule: "lock_discipline".to_string(),
                    message: format!(
                        "`{label}` calls `{}` which reaches an unbounded `loop` \
                         ({}) while a {kname} guard is live",
                        graph.label(t),
                        chain.join(" -> ")
                    ),
                });
            }
        }
    }

    // Clause B (literal): a second literal acquisition inside the span.
    if span.kind == GuardKind::Mutex {
        for g2 in &f.guards {
            if g2.line > span.start && g2.line <= span.end {
                out.push(Diagnostic {
                    path: path.clone(),
                    line: g2.line,
                    rule: "lock_discipline".to_string(),
                    message: format!(
                        "second lock acquisition in `{label}` while a {kname} \
                         guard is live: release the first guard before locking \
                         again"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FileInput;

    fn input(path: &str, src: &str) -> FileInput {
        let class = crate::FileClass {
            strict_atomic: false,
        };
        crate::file_input(path, src, class)
    }

    #[test]
    fn direct_io_under_mutex_guard_fires() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
impl S {
    fn f(&self) {
        let g = self.inner.lock();
        self.backend.read_into(1);
    }
}
",
        )]);
        let d = run(&g);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("backend I/O"));
    }

    #[test]
    fn io_through_a_callee_under_a_live_guard_fires() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
impl S {
    fn f(&self) {
        let g = self.inner.lock();
        self.spill();
    }
    fn spill(&self) {
        self.backend.write(1);
    }
}
",
        )]);
        let d = run(&g);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
        assert!(d[0].message.contains("S::spill"), "{}", d[0].message);
    }

    #[test]
    fn io_after_guard_scope_is_fine() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
impl S {
    fn f(&self) {
        {
            let g = self.inner.lock();
            g.touch();
        }
        self.backend.read_into(1);
    }
}
",
        )]);
        assert!(run(&g).is_empty());
    }

    #[test]
    fn drop_ends_the_span_early() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
impl S {
    fn f(&self) {
        let g = self.inner.lock();
        drop(g);
        self.backend.read_into(1);
    }
}
",
        )]);
        assert!(run(&g).is_empty());
    }

    #[test]
    fn second_lock_acquisition_fires() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
impl S {
    fn f(&self) {
        let a = self.inner.lock();
        let b = self.other.lock();
    }
}
",
        )]);
        let d = run(&g);
        assert!(d.iter().any(|d| d.message.contains("second lock")), "{d:?}");
    }

    #[test]
    fn unbounded_loop_under_rwlock_guard_fires_but_bounded_does_not() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
struct S { core: RwLock<u32> }
impl S {
    fn f(&self) {
        let c = self.core.write();
        loop {
            step();
        }
    }
    fn g(&self) {
        let c = self.core.write();
        // bounded: attempts capped by policy.max_attempts
        loop {
            step();
        }
    }
}
",
        )]);
        let d = run(&g);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 5);
        assert!(d[0].message.contains("unbounded `loop`"));
    }

    #[test]
    fn io_under_rwlock_guard_is_exempt_by_design() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
struct S { core: RwLock<u32> }
impl S {
    fn f(&self) {
        let c = self.core.write();
        self.backend.read_into(1);
    }
}
",
        )]);
        assert!(run(&g).is_empty());
    }

    #[test]
    fn guard_returning_helper_creates_a_span_in_the_caller() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            "\
impl S {
    fn core_write(&self) -> RwLockWriteGuard<'_, Core> {
        self.core.write()
    }
    fn f(&self) {
        let core = self.core_write();
        loop {
            step();
        }
    }
}
",
        )]);
        let d = run(&g);
        assert!(
            d.iter()
                .any(|d| d.line == 7 && d.message.contains("unbounded")),
            "{d:?}"
        );
        // The producing call itself must not count as a second lock.
        assert!(
            d.iter().all(|d| !d.message.contains("second lock")),
            "{d:?}"
        );
    }
}
