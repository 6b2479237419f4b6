//! Command-line driver: `cargo run -p stilint [-- [WORKSPACE_ROOT]]`.
//!
//! Scans the workspace, prints `file:line: [rule] message` diagnostics
//! to stdout, and exits non-zero on any finding.

use std::path::PathBuf;
use std::process::ExitCode;

/// Walk upward from `start` to the directory whose `Cargo.toml` declares
/// the workspace.
fn find_workspace_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage() {
    println!("usage: stilint [WORKSPACE_ROOT]");
    println!("Lints the workspace's library crates; see CONTRIBUTING.md for the rules.");
    println!("Exits non-zero on any finding.");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(cwd) {
                Some(root) => root,
                None => {
                    eprintln!("stilint: no workspace Cargo.toml found above the current directory");
                    return ExitCode::FAILURE;
                }
            }
        }
        [flag] if flag == "--help" || flag == "-h" => {
            usage();
            return ExitCode::SUCCESS;
        }
        [root] if !root.starts_with('-') => PathBuf::from(root),
        _ => {
            eprintln!("stilint: unexpected arguments {args:?}");
            usage();
            return ExitCode::FAILURE;
        }
    };

    let (diags, scanned) = match stilint::scan_workspace(&root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("stilint: scanning {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("stilint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        println!("stilint: {} diagnostics in {scanned} files", diags.len());
        ExitCode::FAILURE
    }
}
