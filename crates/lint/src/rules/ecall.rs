//! `ecall-cost`: the audited ECALL surface must charge the TEE cost model.
//!
//! The paper's performance claims hinge on every enclave transition being
//! accounted for (ECALL overhead, paging, in-enclave compute). Any `pub fn`
//! on the ECALL wrapper (`sgx_ops.rs`) that does *not* return a
//! `CostBreakdown` is an unmetered path into the enclave — either it
//! must thread the cost through, or it needs a justified `allow` stating
//! that it performs no enclave computation (constructors, accessors).

use crate::config::{path_in, ECALL_PATHS};
use crate::diag::Diagnostic;
use crate::lexer::{identifiers, SourceFile};
use crate::rules::pub_fn_signatures;

/// Runs the rule on one file.
pub fn check(file: &SourceFile) -> Vec<Diagnostic> {
    if !path_in(&file.path, ECALL_PATHS) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for sig in pub_fn_signatures(file) {
        let charged = match sig.text.find("->") {
            Some(arrow) => identifiers(&sig.text[arrow..]).contains(&"CostBreakdown"),
            None => false,
        };
        if !charged {
            let name = fn_name(&sig.text);
            out.push(Diagnostic {
                file: file.path.clone(),
                line: sig.line,
                rule: "ecall-cost",
                message: format!("ECALL-surface `pub fn {name}` does not return a CostBreakdown"),
                hint: "thread the enclave cost through the return value, or add \
                       `hesgx-lint: allow(ecall-cost, reason = \"...\")` for functions \
                       that perform no enclave computation"
                    .into(),
            });
        }
    }
    out
}

fn fn_name(sig: &str) -> &str {
    let words = identifiers(sig);
    words
        .iter()
        .position(|w| *w == "fn")
        .and_then(|i| words.get(i + 1).copied())
        .unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> SourceFile {
        SourceFile::scan("crates/core/src/sgx_ops.rs", text)
    }

    #[test]
    fn uncharged_pub_fn_is_flagged() {
        let f = scan("pub fn refresh(&self, ct: &C) -> Result<C> {\n    body()\n}\n");
        let diags = check(&f);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("refresh"));
    }

    #[test]
    fn charged_pub_fn_passes() {
        let f = scan("pub fn refresh(&self, ct: &C) -> Result<(C, CostBreakdown)> {\n}\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn cost_in_params_does_not_count() {
        let f = scan("pub fn merge(a: CostBreakdown) -> u64 {\n}\n");
        assert_eq!(check(&f).len(), 1);
    }

    #[test]
    fn private_and_crate_fns_are_exempt() {
        let f = scan("fn sum_costs(a: &C) -> C {}\npub(crate) fn peek(&self) -> u64 {}\n");
        assert!(check(&f).is_empty());
    }

    #[test]
    fn out_of_scope_file_is_exempt() {
        let f = SourceFile::scan("crates/core/src/pipeline.rs", "pub fn run() -> u64 {}\n");
        assert!(check(&f).is_empty());
    }
}
