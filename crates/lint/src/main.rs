//! The `hesgx-lint` command-line driver.
//!
//! ```text
//! hesgx-lint --workspace
//! hesgx-lint FILE...
//! ```
//!
//! The workspace root is the nearest ancestor of the working directory
//! whose `Cargo.toml` declares `[workspace]`. Exit codes: 0 clean,
//! 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: hesgx-lint (--workspace | FILE...)\n\
\n\
Checks the hesgx workspace invariants: secret hygiene (including dataflow\n\
alias taint), enclave panic-freedom, constant-time discipline, unsafe\n\
inventory, the ECALL cost audit, replay determinism (wall-clock reads,\n\
unordered-container iteration, RNG forking in retry bodies), and hot-path\n\
allocation. Suppress a finding inline with a justified marker:\n\
\x20   // hesgx-lint: allow(<rule>, reason = \"...\")\n";

/// The one input mode: `None` for `--workspace`, else the files to lint.
fn parse_args() -> Result<Option<Vec<PathBuf>>, String> {
    let mut workspace = false;
    let mut files = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }
    // Exactly one input mode: --workspace with no files, or files only.
    if workspace != files.is_empty() {
        return Err("pass either --workspace or one or more files".into());
    }
    Ok((!workspace).then_some(files))
}

fn main() -> ExitCode {
    let files = match parse_args() {
        Ok(f) => f,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("hesgx-lint: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = hesgx_lint::find_workspace_root(&cwd).unwrap_or(cwd);

    let paths = match files {
        Some(files) => files,
        None => match hesgx_lint::collect_workspace_files(&root) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("hesgx-lint: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        },
    };

    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        match hesgx_lint::load_file(&root, path) {
            Ok(f) => sources.push(f),
            Err(e) => {
                eprintln!("hesgx-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let report = hesgx_lint::lint_sources(&sources);
    print!("{}", report.render_human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
