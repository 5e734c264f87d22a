//! Self-test corpus: every rule must fire on its `bad.rs` fixture and stay
//! silent on its `good.rs` fixture, and the live workspace must lint clean.

use hesgx_lint::diag::Report;
use hesgx_lint::lexer::SourceFile;
use hesgx_lint::lint_sources;
use std::path::{Path, PathBuf};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

/// Lints one fixture file, keyed by its path relative to the workspace so
/// the `fixtures/<rule>` scopes in the config match.
fn lint_fixture(rule: &str, which: &str) -> Report {
    let path = fixture_dir().join(rule).join(which);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let rel = format!("crates/lint/tests/fixtures/{rule}/{which}");
    lint_sources(&[SourceFile::scan(&rel, &text)])
}

/// `(fixture_dir, rule_id)` — most directories are named after their rule;
/// `secret-taint` exercises the dataflow-alias upgrade to `secret-log`.
const RULES: &[(&str, &str)] = &[
    ("enclave-panic", "enclave-panic"),
    ("secret-debug", "secret-debug"),
    ("secret-pub-api", "secret-pub-api"),
    ("secret-log", "secret-log"),
    ("const-time", "const-time"),
    ("unsafe-safety", "unsafe-safety"),
    ("forbid-unsafe", "forbid-unsafe"),
    ("ecall-cost", "ecall-cost"),
    ("obs-secret-label", "obs-secret-label"),
    ("wall-clock", "wall-clock"),
    ("unordered-iter", "unordered-iter"),
    ("rng-fork", "rng-fork"),
    ("secret-taint", "secret-log"),
    ("hot-path-alloc", "hot-path-alloc"),
];

#[test]
fn every_bad_fixture_triggers_its_rule() {
    for (dir, rule) in RULES {
        let report = lint_fixture(dir, "bad.rs");
        assert!(
            report.findings.iter().any(|d| d.rule == *rule),
            "fixture {dir}/bad.rs produced no `{rule}` finding; got: {:?}",
            report.findings
        );
    }
}

#[test]
fn every_good_fixture_is_clean() {
    for (dir, _) in RULES {
        let report = lint_fixture(dir, "good.rs");
        assert!(
            report.is_clean(),
            "fixture {dir}/good.rs should be clean; got: {:?}",
            report.findings
        );
    }
}

#[test]
fn bad_fixtures_report_expected_counts() {
    // Spot-check that rules find *all* the seeded defects, not just one.
    let panic_report = lint_fixture("enclave-panic", "bad.rs");
    assert_eq!(
        panic_report
            .findings
            .iter()
            .filter(|d| d.rule == "enclave-panic")
            .count(),
        4,
        "unwrap + expect + panic! + todo!"
    );
    let log_report = lint_fixture("secret-log", "bad.rs");
    assert_eq!(
        log_report
            .findings
            .iter()
            .filter(|d| d.rule == "secret-log")
            .count(),
        3,
        "println + format + dbg"
    );
    let debug_report = lint_fixture("secret-debug", "bad.rs");
    assert_eq!(
        debug_report
            .findings
            .iter()
            .filter(|d| d.rule == "secret-debug")
            .count(),
        2,
        "derive(Debug) + impl Display"
    );
}

#[test]
fn dataflow_bad_fixtures_report_expected_counts() {
    let count = |dir: &str, rule: &str| {
        lint_fixture(dir, "bad.rs")
            .findings
            .iter()
            .filter(|d| d.rule == rule)
            .count()
    };
    assert_eq!(count("wall-clock", "wall-clock"), 2, "Instant + SystemTime");
    assert_eq!(
        count("unordered-iter", "unordered-iter"),
        3,
        "named sink + body sink + for-in header"
    );
    assert_eq!(count("rng-fork", "rng-fork"), 2, "retry loop + retry call");
    assert_eq!(
        count("secret-taint", "secret-log"),
        2,
        "clone alias + let chain"
    );
    assert_eq!(
        count("hot-path-alloc", "hot-path-alloc"),
        2,
        "to_vec + collect"
    );
}

#[test]
fn taint_findings_name_the_alias_and_the_registry_type() {
    let report = lint_fixture("secret-taint", "bad.rs");
    assert!(
        report
            .findings
            .iter()
            .any(|d| d.message.contains("`material`") && d.message.contains("`SecretKey`")),
        "{:?}",
        report.findings
    );
}

#[test]
fn suppression_fixture_diagnoses_all_marker_defects() {
    let report = lint_fixture("suppression", "bad.rs");
    let msgs: Vec<&str> = report
        .findings
        .iter()
        .filter(|d| d.rule == "suppression")
        .map(|d| d.message.as_str())
        .collect();
    assert!(msgs.iter().any(|m| m.contains("no reason")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("unknown rule")), "{msgs:?}");
    assert!(
        msgs.iter().any(|m| m.contains("suppresses nothing")),
        "{msgs:?}"
    );
}

#[test]
fn ecall_good_fixture_exercises_a_used_suppression() {
    let report = lint_fixture("ecall-cost", "good.rs");
    assert!(report.is_clean());
    assert_eq!(report.suppressed, 1, "the accessor allow must be consumed");
}

#[test]
fn findings_carry_location_rule_and_hint() {
    let report = lint_fixture("enclave-panic", "bad.rs");
    let d = &report.findings[0];
    assert!(d.file.ends_with("enclave-panic/bad.rs"));
    assert!(d.line > 0);
    assert!(!d.hint.is_empty());
}

#[test]
fn live_workspace_lints_clean() {
    let root = workspace_root();
    let paths = hesgx_lint::collect_workspace_files(&root).expect("walk workspace");
    assert!(
        paths.len() > 40,
        "expected the full workspace, got {} files",
        paths.len()
    );
    let files: Vec<SourceFile> = paths
        .iter()
        .map(|p| hesgx_lint::load_file(&root, p).expect("readable source"))
        .collect();
    let report = lint_sources(&files);
    assert!(
        report.is_clean(),
        "the workspace must lint clean:\n{}",
        report.render_human()
    );
    assert!(
        report.suppressed >= 10,
        "the documented inline allows should be active, got {}",
        report.suppressed
    );
}

#[test]
fn workspace_human_report_is_byte_deterministic() {
    // Two fully independent passes over the live tree must render
    // identical bytes: the lint's one report is held to the replay contract.
    let root = workspace_root();
    let render = || {
        let paths = hesgx_lint::collect_workspace_files(&root).expect("walk workspace");
        let files: Vec<SourceFile> = paths
            .iter()
            .map(|p| hesgx_lint::load_file(&root, p).expect("readable source"))
            .collect();
        lint_sources(&files).render_human()
    };
    assert_eq!(
        render(),
        render(),
        "the report must be byte-stable across runs"
    );
}

#[test]
fn wall_clock_exemption_is_scoped_to_the_profiler_file() {
    // The profiler's wall-clock exemption (`WALL_OK_PATHS`) is file-scoped:
    // the fixture pair is scanned under *remapped* workspace paths (not the
    // fixtures/ directory, which the RULES table covers) so the test proves
    // the boundary itself — the same tokens are clean at prof.rs and a
    // finding one file over.
    let dir = fixture_dir().join("wall-clock-prof");
    let read = |which: &str| {
        let path = dir.join(which);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let good = read("good.rs");
    let report = lint_sources(&[SourceFile::scan("crates/obs/src/prof.rs", &good)]);
    assert!(
        report.findings.iter().all(|d| d.rule != "wall-clock"),
        "prof.rs is on the wall-clock allow list; got: {:?}",
        report.findings
    );
    // The identical sanctioned pattern leaks nowhere else in the obs crate…
    let report = lint_sources(&[SourceFile::scan("crates/obs/src/hist.rs", &good)]);
    assert!(
        report.findings.iter().any(|d| d.rule == "wall-clock"),
        "the exemption must not cover the rest of crates/obs"
    );
    // …and the seeded defect fires under a non-exempt path as usual.
    let bad = read("bad.rs");
    let report = lint_sources(&[SourceFile::scan("crates/obs/src/export.rs", &bad)]);
    assert!(
        report.findings.iter().any(|d| d.rule == "wall-clock"),
        "bad fixture must fire outside prof.rs; got: {:?}",
        report.findings
    );
}
