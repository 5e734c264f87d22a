//! The `hesgx-lint` command-line driver.
//!
//! ```text
//! hesgx-lint --workspace [--root DIR] [--json | --sarif]
//!            [--baseline FILE | --write-baseline FILE]
//! hesgx-lint [--root DIR] [--json | --sarif] FILE...
//! ```
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    workspace: bool,
    json: bool,
    sarif: bool,
    root: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    files: Vec<PathBuf>,
}

const USAGE: &str = "usage: hesgx-lint (--workspace | FILE...) [--root DIR] [--json | --sarif]\n\
\x20                 [--baseline FILE | --write-baseline FILE]\n\
\n\
Checks the hesgx workspace invariants: secret hygiene (including dataflow\n\
alias taint), enclave panic-freedom, constant-time discipline, unsafe\n\
inventory, the ECALL cost audit, replay determinism (wall-clock reads,\n\
unordered-container iteration, RNG forking in retry bodies), and hot-path\n\
allocation. Suppress a finding inline with a justified marker:\n\
    // hesgx-lint: allow(<rule>, reason = \"...\")\n\
\n\
  --json                machine-readable report (byte-stable across runs)\n\
  --sarif               SARIF 2.1.0 report for code-scanning upload\n\
  --baseline FILE       subtract grandfathered findings; fail only on new ones\n\
  --write-baseline FILE record the current findings as the new baseline\n";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workspace: false,
        json: false,
        sarif: false,
        root: None,
        baseline: None,
        write_baseline: None,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.workspace = true,
            "--json" => opts.json = true,
            "--sarif" => opts.sarif = true,
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--baseline" => {
                let file = args.next().ok_or("--baseline requires a file")?;
                opts.baseline = Some(PathBuf::from(file));
            }
            "--write-baseline" => {
                let file = args.next().ok_or("--write-baseline requires a file")?;
                opts.write_baseline = Some(PathBuf::from(file));
            }
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => opts.files.push(PathBuf::from(file)),
        }
    }
    // Exactly one input mode: --workspace with no files, or files only.
    if opts.workspace != opts.files.is_empty() {
        return Err("pass either --workspace or one or more files".into());
    }
    if opts.json && opts.sarif {
        return Err("--json and --sarif are mutually exclusive".into());
    }
    if opts.baseline.is_some() && opts.write_baseline.is_some() {
        return Err("--baseline and --write-baseline are mutually exclusive".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("hesgx-lint: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = opts
        .root
        .clone()
        .or_else(|| hesgx_lint::find_workspace_root(&cwd))
        .unwrap_or(cwd);

    let paths = if opts.workspace {
        match hesgx_lint::collect_workspace_files(&root) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("hesgx-lint: cannot walk {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        opts.files.clone()
    };

    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        match hesgx_lint::load_file(&root, path) {
            Ok(f) => files.push(f),
            Err(e) => {
                eprintln!("hesgx-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let mut report = hesgx_lint::lint_sources(&files);

    if let Some(path) = &opts.write_baseline {
        let text = hesgx_lint::baseline::render(&report);
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("hesgx-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "hesgx-lint: wrote {} grandfathered finding(s) to {}",
            report.findings.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.baseline {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hesgx-lint: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let entries = match hesgx_lint::baseline::parse(&text) {
            Ok(e) => e,
            Err(msg) => {
                eprintln!("hesgx-lint: {}: {msg}", path.display());
                return ExitCode::from(2);
            }
        };
        hesgx_lint::baseline::apply(&mut report, &entries);
    }

    if opts.json {
        print!("{}", report.render_json());
    } else if opts.sarif {
        print!("{}", hesgx_lint::sarif::render_sarif(&report));
    } else {
        print!("{}", report.render_human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
