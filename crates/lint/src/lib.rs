//! hesgx-lint: workspace static analysis for enclave-boundary,
//! secret-hygiene, and panic-freedom invariants.
//!
//! The paper's security argument is only as good as a handful of coding
//! disciplines the compiler does not enforce: secret key material must not
//! be `Debug`-printed or cross public APIs outside the trust boundary,
//! enclave code must not panic (a panic aborts the ECALL and the enclave),
//! comparisons over MACs and tags must be constant-time, `unsafe` must be
//! inventoried, and every ECALL must charge the TEE cost model. This crate
//! checks those invariants over the workspace sources with a from-scratch
//! scanner (no rustc plugin, no dependencies) so `ci.sh` can gate on them
//! offline.
//!
//! Rules (all deny-by-default; see `DESIGN.md` for the threat-model map):
//!
//! | rule            | invariant                                              |
//! |-----------------|--------------------------------------------------------|
//! | `secret-debug`  | registry types don't derive Debug / impl Display       |
//! | `secret-pub-api`| registry types stay out of foreign `pub` signatures    |
//! | `secret-log`    | no format/log macro touches secret-named values        |
//! | `enclave-panic` | no `unwrap`/`expect`/`panic!` in enclave code          |
//! | `const-time`    | no `==` over secret-derived bytes in `hesgx-crypto`    |
//! | `unsafe-safety` | every `unsafe` carries a `// SAFETY:` comment          |
//! | `forbid-unsafe` | unsafe-free crates declare `#![forbid(unsafe_code)]`   |
//! | `ecall-cost`    | every `pub fn` on the ECALL surface returns a cost     |
//! | `obs-secret-label` | obs span/counter labels never name secret material  |
//! | `wall-clock`    | raw clock reads only in the audited wall module        |
//! | `unordered-iter`| no HashMap/HashSet iteration feeding exported bytes    |
//! | `rng-fork`      | retry bodies fork the RNG; they never share a stream   |
//! | `hot-path-alloc`| no per-iteration allocation in `hot`-marked functions  |
//!
//! The v2 front end layers a token stream ([`tokens`]), function scopes
//! ([`scope`]), and a per-function binding table ([`dataflow`]) over the
//! v1 line scanner; the last four rules — and the alias-taint upgrade to
//! `secret-log`/`obs-secret-label` — consume that [`analysis::Analysis`]
//! bundle rather than raw lines.
//!
//! A finding is suppressed inline, with a mandatory reason, via
//! `// hesgx-lint: allow(<rule>, reason = "...")`; a marker that suppresses
//! nothing is itself a `suppression` finding, so a stale marker fails the
//! run.

#![forbid(unsafe_code)]

pub mod analysis;
pub mod config;
pub mod dataflow;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;
pub mod suppress;
pub mod tokens;

use diag::Report;
use lexer::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Lints a set of scanned files and produces the final report:
/// per-file rules, the cross-file `forbid-unsafe` check, suppression
/// matching, and stale-suppression diagnostics.
pub fn lint_sources(files: &[SourceFile]) -> Report {
    let mut report = Report {
        files: files.len(),
        ..Report::default()
    };
    // Crate-level unsafe inventory for the forbid-unsafe rule. BTreeMap:
    // the lint's own output must never depend on hash-iteration order.
    let mut crate_has_unsafe: BTreeMap<String, bool> = BTreeMap::new();
    for f in files {
        if let Some(root) = crate_src_root(&f.path) {
            let entry = crate_has_unsafe.entry(root).or_insert(false);
            *entry = *entry || rules::unsafe_rule::has_unsafe(f);
        }
    }
    for file in files {
        let (mut sups, meta_diags) = suppress::parse(file);
        let a = analysis::Analysis::new(file);
        let mut findings = rules::check_file(&a);
        if let Some(root) = crate_src_root(&file.path) {
            let is_lib = file.path == format!("{root}/lib.rs");
            if is_lib
                && !crate_has_unsafe.get(&root).copied().unwrap_or(false)
                && !rules::unsafe_rule::has_forbid_attr(file)
            {
                findings.push(rules::unsafe_rule::forbid_diag(&file.path, 1));
            }
        }
        for d in findings {
            let matched = sups
                .iter_mut()
                .find(|s| s.rule == d.rule && s.target_line == d.line);
            match matched {
                Some(s) => {
                    s.used = true;
                    report.suppressed += 1;
                }
                None => report.findings.push(d),
            }
        }
        // A marker that silenced nothing is a finding: the run fails.
        report.findings.extend(suppress::unused_diags(file, &sups));
        report.findings.extend(meta_diags);
    }
    report.sort();
    report
}

/// Maps `crates/<name>/src/...` to `crates/<name>/src` (test and fixture
/// files return `None` — they are not part of a crate's linted source).
fn crate_src_root(path: &str) -> Option<String> {
    let rest = path.strip_prefix("crates/")?;
    let name_end = rest.find('/')?;
    if !rest[name_end..].starts_with("/src/") {
        return None;
    }
    Some(format!("crates/{}/src", &rest[..name_end]))
}

/// Collects every `.rs` file under `<root>/crates/*/src`, sorted for
/// deterministic output.
///
/// # Errors
///
/// Propagates filesystem errors from directory traversal.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    for entry in std::fs::read_dir(&crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads and scans one file, keying it by its path relative to `root`
/// when possible (so rule path scopes match from any working directory).
///
/// # Errors
///
/// Propagates the read error for missing/unreadable paths.
pub fn load_file(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
    let text = std::fs::read_to_string(path)?;
    let display = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(SourceFile::scan(&display, &text))
}

/// Walks upward from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_src_root_extraction() {
        assert_eq!(
            crate_src_root("crates/tee/src/enclave.rs").as_deref(),
            Some("crates/tee/src")
        );
        assert_eq!(
            crate_src_root("crates/core/src/sgx_ops.rs").as_deref(),
            Some("crates/core/src")
        );
        assert_eq!(crate_src_root("crates/lint/tests/fixtures/x/bad.rs"), None);
        assert_eq!(crate_src_root("examples/demo.rs"), None);
    }

    #[test]
    fn suppressed_finding_is_counted_not_reported() {
        let src = "fn f() {\n    // hesgx-lint: allow(enclave-panic, reason = \"boot path\")\n    x.unwrap();\n}\n";
        let file = SourceFile::scan("crates/tee/src/x.rs", src);
        let report = lint_sources(&[file]);
        assert_eq!(report.suppressed, 1);
        assert!(report.findings.iter().all(|d| d.rule != "enclave-panic"));
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "fn f() {\n    // hesgx-lint: allow(enclave-panic, reason = \"nothing here\")\n    let x = 1;\n}\n";
        let file = SourceFile::scan("crates/tee/src/x.rs", src);
        let report = lint_sources(&[file]);
        assert!(report.findings.iter().any(|d| d.rule == "suppression"
            && d.line == 2
            && d.message
                .contains("allow(enclave-panic) suppresses nothing")));
    }

    #[test]
    fn missing_forbid_attr_is_reported_for_unsafe_free_crate() {
        let lib = SourceFile::scan("crates/demo/src/lib.rs", "pub fn f() {}\n");
        let report = lint_sources(&[lib]);
        assert!(report.findings.iter().any(|d| d.rule == "forbid-unsafe"));
    }

    #[test]
    fn forbid_attr_satisfies_the_rule() {
        let lib = SourceFile::scan(
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        let report = lint_sources(&[lib]);
        assert!(report.findings.iter().all(|d| d.rule != "forbid-unsafe"));
    }

    #[test]
    fn crate_with_documented_unsafe_needs_no_forbid() {
        let lib = SourceFile::scan(
            "crates/demo/src/lib.rs",
            "pub fn f() {\n    // SAFETY: the pointer is valid for the call.\n    unsafe { g(); }\n}\n",
        );
        let report = lint_sources(&[lib]);
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}
