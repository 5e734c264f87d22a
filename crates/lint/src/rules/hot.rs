//! `hot-path-alloc` — no per-iteration allocation inside the loops of
//! functions marked `// hesgx-lint: hot`.
//!
//! The henn conv/FC/pool kernels and the bfv NTT butterflies dominate
//! inference wall time (the paper's Fig. 4 workload); an allocation inside
//! their loops multiplies by `cells × limbs` and shows up directly in the
//! ECALL cost model. The `hot` marker is an opt-in contract: a function
//! that carries it promises its loops are allocation-free, and this rule
//! enforces the promise for the allocating calls that actually appear in
//! this codebase: `Vec::new`, `vec![...]`, `.to_vec()`, `.to_owned()`,
//! `.clone()`, and `.collect()`.

use crate::analysis::Analysis;
use crate::config::HOT_ALLOC_METHODS;
use crate::diag::Diagnostic;
use crate::tokens::seq;

/// Runs the rule on one analyzed file.
pub fn check(a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for scope in &a.fns {
        if !scope.hot || scope.is_test {
            continue;
        }
        // Nested loops overlap; visit each token once (attributed to the
        // outermost enclosing loop) so one allocation yields one finding.
        let mut seen = Vec::new();
        for l in &scope.loops {
            for i in l.body.start + 1..l.body.end {
                let t = &a.toks[i];
                if !t.is_ident || seen.contains(&i) {
                    continue;
                }
                seen.push(i);
                let what = if seq(&a.toks, i, &["Vec", ":", ":", "new"]) {
                    Some("Vec::new()".to_string())
                } else if t.is("vec") && a.toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                    Some("vec![..]".to_string())
                } else if i > 1
                    && a.toks[i - 1].is_punct('.')
                    && HOT_ALLOC_METHODS.contains(&t.text.as_str())
                    && a.toks
                        .get(i + 1)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
                {
                    Some(format!(".{}()", t.text))
                } else {
                    None
                };
                if let Some(what) = what {
                    out.push(Diagnostic {
                        file: a.file.path.clone(),
                        line: t.line + 1,
                        rule: "hot-path-alloc",
                        message: format!(
                            "`{what}` allocates inside a {} loop of hot-path function \
                             `{}`",
                            l.keyword, scope.name
                        ),
                        hint: "hoist the buffer out of the loop or reuse scratch space \
                               (ROADMAP item 1); if per-iteration ownership is inherent, \
                               justify with allow(hot-path-alloc)"
                            .into(),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn diags(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::scan("crates/x/src/a.rs", src);
        let a = Analysis::new(&f);
        check(&a)
    }

    #[test]
    fn allocations_in_marked_fn_loops_are_flagged() {
        let d = diags(
            "// hesgx-lint: hot\nfn conv(rows: &[Vec<u64>]) {\n    for row in rows {\n        let s = row.to_vec();\n        let t: Vec<u64> = s.iter().map(|v| v + 1).collect();\n        let u = vec![0u64; 4];\n        let c = row.clone();\n    }\n}\n",
        );
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d.iter().all(|d| d.rule == "hot-path-alloc"));
    }

    #[test]
    fn unmarked_functions_are_ignored() {
        let d = diags(
            "fn conv(rows: &[Vec<u64>]) {\n    for row in rows {\n        let s = row.to_vec();\n    }\n}\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn allocation_outside_the_loop_is_fine() {
        let d = diags(
            "// hesgx-lint: hot\nfn conv(rows: &[Vec<u64>]) {\n    let mut out = Vec::new();\n    for row in rows {\n        out.push(row[0]);\n    }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn nested_loops_report_an_allocation_once() {
        let d = diags(
            "// hesgx-lint: hot\nfn pool(rows: &[Vec<u64>]) {\n    for row in rows {\n        for _w in 0..4 {\n            let s = row.to_vec();\n        }\n    }\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn turbofish_collect_is_flagged() {
        let d = diags(
            "// hesgx-lint: hot\nfn conv(rows: &[u64]) {\n    while go() {\n        let v = rows.iter().collect::<Vec<_>>();\n    }\n}\n",
        );
        assert_eq!(d.len(), 1);
    }
}
