//! Command-line driver: `cargo run -p stilint [-- [FLAGS] [ROOT]]`.
//!
//! Scans the workspace, prints `file:line: [rule] message` diagnostics
//! to stdout, and exits non-zero on any finding.
//!
//! Flags:
//!
//! * `--json[=PATH]` — emit the machine-readable report (schema
//!   `stilint/2`) to stdout or PATH, in addition to the text output.

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

struct Options {
    root: Option<PathBuf>,
    json: bool,
    json_path: Option<PathBuf>,
}

fn usage() {
    println!("usage: stilint [--json[=PATH]] [WORKSPACE_ROOT]");
    println!("Lints the workspace's library crates; see CONTRIBUTING.md for the rules.");
    println!("Exits non-zero on any finding.");
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: None,
        json: false,
        json_path: None,
    };
    for arg in args {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        } else if arg == "--json" {
            opts.json = true;
        } else if let Some(path) = arg.strip_prefix("--json=") {
            opts.json = true;
            opts.json_path = Some(PathBuf::from(path));
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else if opts.root.is_none() {
            opts.root = Some(PathBuf::from(arg));
        } else {
            return Err(format!("unexpected extra argument `{arg}`"));
        }
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            usage();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("stilint: {msg}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let root = match opts.root {
        Some(root) => root,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_workspace_root(cwd) {
                Some(root) => root,
                None => {
                    eprintln!("stilint: no workspace Cargo.toml found above the current directory");
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    let (diags, scanned) = match stilint::scan_workspace(&root) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("stilint: scanning {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    // With `--json` on stdout, the human-readable lines move to stderr
    // so the report stays machine-parseable.
    let mut json_on_stdout = false;
    if opts.json {
        let report = stilint::json::render(scanned, &diags);
        match &opts.json_path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &report) {
                    eprintln!("stilint: writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            None => {
                print!("{report}");
                json_on_stdout = true;
            }
        }
    }

    let human = |line: String| {
        if json_on_stdout {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    for d in &diags {
        human(d.to_string());
    }
    if diags.is_empty() {
        human(format!("stilint: {scanned} files clean"));
        ExitCode::SUCCESS
    } else {
        human(format!(
            "stilint: {} diagnostics in {scanned} files",
            diags.len()
        ));
        ExitCode::FAILURE
    }
}
