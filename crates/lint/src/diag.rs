//! Diagnostics and the human-readable report.

/// A single finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (e.g. `enclave-panic`).
    pub rule: &'static str,
    /// What is wrong.
    pub message: String,
    /// How to fix it (or how to suppress it with a justification).
    pub hint: String,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that survived suppression, ordered by (file, line).
    pub findings: Vec<Diagnostic>,
    /// Findings silenced by a justified `hesgx-lint: allow(...)` marker.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files: usize,
}

impl Report {
    /// Whether the run found nothing (exit code 0).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Sorts findings for stable output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Renders the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n    hint: {}\n",
                d.file, d.line, d.rule, d.message, d.hint
            ));
        }
        out.push_str(&format!(
            "hesgx-lint: {} finding(s), {} suppressed, {} file(s) scanned\n",
            self.findings.len(),
            self.suppressed,
            self.files
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            findings: vec![Diagnostic {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "enclave-panic",
                message: "`.unwrap()` in enclave code \"quoted\"".into(),
                hint: "return hesgx_core::Error instead".into(),
            }],
            suppressed: 2,
            files: 10,
        }
    }

    #[test]
    fn human_output_contains_location_rule_and_hint() {
        let text = sample().render_human();
        assert!(text.contains("crates/x/src/lib.rs:3: [enclave-panic]"));
        assert!(text.contains("hint: return hesgx_core::Error"));
        assert!(text.contains("1 finding(s), 2 suppressed, 10 file(s)"));
    }
}
