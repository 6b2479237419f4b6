//! R8 `atomic_order`: every atomic `load`/`store`/`swap`/
//! `compare_exchange`/`fetch_*` must name an explicit `Ordering` and
//! carry a `// ordering: <why this ordering is sufficient>` comment
//! (trailing on the statement, or standalone above it — one comment
//! covers a contiguous run of atomic statements).
//!
//! On the publication pointer path (`crates/core/src/version.rs` and
//! `crates/core/src/pipeline.rs`, marked `strict_atomic` by
//! classification) `Ordering::Relaxed` is forbidden outright: snapshot
//! publication is exactly the place where a relaxed load can observe a
//! torn world.

use crate::graph::Graph;
use crate::Diagnostic;

pub fn run(graph: &Graph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &id in &graph.fn_ids {
        let file = &graph.files[id.0];
        let f = graph.fn_item(id);
        if f.is_test {
            continue;
        }
        for a in &f.atomics {
            if !a.has_ordering {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: a.line,
                    rule: "atomic_order".to_string(),
                    message: format!(
                        "atomic `{}` on `{}` without an explicit `Ordering` \
                         argument",
                        a.method, a.receiver
                    ),
                });
                continue;
            }
            if file.strict_atomic && a.relaxed {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: a.line,
                    rule: "atomic_order".to_string(),
                    message: format!(
                        "`Ordering::Relaxed` on the publication pointer path \
                         (`{}` on `{}`): snapshot publication needs \
                         Acquire/Release (or SeqCst)",
                        a.method, a.receiver
                    ),
                });
            }
            if !a.justified {
                out.push(Diagnostic {
                    path: file.path.clone(),
                    line: a.line,
                    rule: "atomic_order".to_string(),
                    message: format!(
                        "atomic `{}` on `{}` lacks a `// ordering: <why>` \
                         justification comment",
                        a.method, a.receiver
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FileInput;

    fn input(path: &str, strict_atomic: bool, src: &str) -> FileInput {
        crate::file_input(path, src, crate::FileClass { strict_atomic })
    }

    #[test]
    fn missing_ordering_argument_fires() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            false,
            "\
struct S { hits: AtomicU64 }
impl S {
    fn f(&self) {
        self.hits.fetch_add(1);
    }
}
",
        )]);
        let d = run(&g);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("without an explicit `Ordering`"));
    }

    #[test]
    fn missing_justification_comment_fires() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            false,
            "\
struct S { hits: AtomicU64 }
impl S {
    fn f(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
",
        )]);
        let d = run(&g);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("// ordering:"), "{}", d[0].message);
    }

    #[test]
    fn justified_site_is_clean() {
        let g = Graph::build(vec![input(
            "crates/storage/src/x.rs",
            false,
            "\
struct S { hits: AtomicU64 }
impl S {
    fn f(&self) {
        // ordering: independent stat counter, no synchronization
        self.hits.fetch_add(1, Ordering::Relaxed);
    }
}
",
        )]);
        assert!(run(&g).is_empty());
    }

    #[test]
    fn relaxed_on_the_publication_path_fires_even_when_justified() {
        let g = Graph::build(vec![input(
            "crates/core/src/version.rs",
            true,
            "\
struct S { epoch: AtomicU64 }
impl S {
    fn f(&self) {
        // ordering: epoch bump
        self.epoch.store(1, Ordering::Relaxed);
    }
}
",
        )]);
        let d = run(&g);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("publication pointer path"));
    }

    #[test]
    fn acquire_release_on_the_publication_path_is_clean() {
        let g = Graph::build(vec![input(
            "crates/core/src/version.rs",
            true,
            "\
struct S { epoch: AtomicU64 }
impl S {
    fn f(&self) {
        // ordering: release pairs with the readers' acquire load
        self.epoch.store(1, Ordering::Release);
    }
}
",
        )]);
        assert!(run(&g).is_empty());
    }
}
