//! Hand-rolled JSON emission for `--json` output (the workspace is
//! offline; no serde). Schema `stilint/2`:
//!
//! ```json
//! {
//!   "schema": "stilint/2",
//!   "files_scanned": 42,
//!   "total": 3,
//!   "diagnostics": [
//!     {"path": "...", "line": 7, "rule": "...", "message": "..."}
//!   ]
//! }
//! ```

use crate::Diagnostic;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the report for the full finding list.
pub fn render(files_scanned: usize, diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"stilint/2\",\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!("  \"total\": {},\n", diags.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"message\": \"{}\"}}",
            escape(&d.path),
            d.line,
            escape(&d.rule),
            escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_diagnostics() {
        let d = Diagnostic {
            path: "a.rs".to_string(),
            line: 3,
            rule: "no_panic".to_string(),
            message: "`x.unwrap()` with \"quotes\"\nand newline".to_string(),
        };
        let s = render(5, &[d]);
        assert!(s.contains("\"schema\": \"stilint/2\""));
        assert!(s.contains("\"files_scanned\": 5"));
        assert!(s.contains("\\\"quotes\\\"\\nand newline"));
        assert!(s.contains("\"total\": 1"));
    }

    #[test]
    fn empty_report_is_valid() {
        let s = render(0, &[]);
        assert!(s.contains("\"diagnostics\": []"));
        assert!(s.contains("\"total\": 0"));
    }
}
