//! `obs-secret-label` — observability labels must not name secrets.
//!
//! Span paths and counter names recorded through `hesgx-obs` land in the
//! deterministic JSON snapshot that experiments write to `target/obs/` and
//! CI archives as a build artifact — a label leaves the trust boundary
//! exactly like a log line does. This rule bans secret-bearing identifiers
//! (the `secret-log` token list plus the registry type names) from any
//! non-test line that records a span or counter, whether the secret sits
//! inside the label literal or flows in through a formatted binding.
//!
//! Unlike most rules this one inspects the *raw* line (minus its line
//! comment): the code view blanks string interiors, but the string interior
//! is precisely where a label like `"seal.secret_key"` hides.
//!
//! Since PR 5 the exported surface is wider than span/counter names: trace
//! events (`trace_begin`/`trace_end`/`trace_instant`) land verbatim in the
//! Chrome trace-event JSON — names *and* argument keys/values — and gauge /
//! histogram names become Prometheus label values. Every one of those entry
//! points is held to the same no-secret-identifier standard — and so are
//! `Recorder::open`, which names a slice, a profiler frame and a span in one
//! call, and the profiler frame `prof::span`, whose names land in
//! `profile.collapsed.txt` and `BENCH_profile.deterministic.json`.

use crate::analysis::Analysis;
use crate::config::{SECRET_LOG_TOKENS, SECRET_TYPES};
use crate::diag::Diagnostic;
use crate::lexer::{ident_positions, identifiers, next_nonspace};

/// Recorder entry points that persist a label into an exported artifact:
/// the snapshot (spans/counters), the Prometheus exposition (gauges,
/// histograms), the Chrome trace-event JSON (trace names and args), or the
/// profiler exports (frame names).
const RECORD_CALLS: &[&str] = &[
    "open",
    "span",
    "record_span",
    "record_zero_attempt",
    "incr",
    "gauge",
    "observe",
    "trace_begin",
    "trace_end",
    "trace_instant",
];

/// Runs the rule on one analyzed file.
pub fn check(a: &Analysis) -> Vec<Diagnostic> {
    let file = a.file;
    let mut out = Vec::new();
    for i in 0..file.line_count() {
        if file.in_test[i] {
            continue;
        }
        let code = file.code_line(i);
        let record_pos = ident_positions(code).iter().find_map(|&(pos, word)| {
            (RECORD_CALLS.contains(&word) && next_nonspace(code, pos + word.len()) == Some('('))
                .then_some(pos)
        });
        let Some(record_pos) = record_pos else {
            continue;
        };
        // Raw line with the trailing line comment stripped: suppression
        // markers and prose must not count, label literals must.
        let raw = file.raw.get(i).map_or("", String::as_str);
        let comment = file.comments.get(i).map_or("", String::as_str);
        let visible = raw.strip_suffix(comment).unwrap_or(raw);
        let leaked = identifiers(visible)
            .into_iter()
            .find(|w| SECRET_LOG_TOKENS.contains(w) || SECRET_TYPES.iter().any(|t| t.name == *w));
        if let Some(leaked) = leaked {
            out.push(Diagnostic {
                file: file.path.clone(),
                line: i + 1,
                rule: "obs-secret-label",
                message: format!(
                    "obs span/counter label references secret-related `{leaked}` — labels \
                     are persisted to the snapshot artifact"
                ),
                hint: "name spans after pipeline stages or public operations \
                       (`infer.layer[i].ecall`, `recovery.retry`), never after key material"
                    .into(),
            });
            continue;
        }
        // Dataflow taint: an innocuously named alias of a registry-typed
        // value formatted into the label or argument list.
        if let Some((alias, ty)) = a.secret_alias_after(i, record_pos) {
            out.push(Diagnostic {
                file: file.path.clone(),
                line: i + 1,
                rule: "obs-secret-label",
                message: format!(
                    "obs label argument `{alias}` aliases secret-bearing `{ty}` — labels \
                     are persisted to the snapshot artifact"
                ),
                hint: "name spans after pipeline stages or public operations \
                       (`infer.layer[i].ecall`, `recovery.retry`), never after key material"
                    .into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;

    fn scan(text: &str) -> SourceFile {
        SourceFile::scan("crates/x/src/a.rs", text)
    }

    #[test]
    fn secret_token_inside_label_literal_is_flagged() {
        let f = scan("fn f(r: &Recorder) { r.record_span(\"seal.secret_key\", c); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
    }

    #[test]
    fn secret_binding_formatted_into_label_is_flagged() {
        let f = scan("fn f(r: &Recorder, sk: u64) { r.incr(&format!(\"uses.{sk}\"), 1); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
    }

    #[test]
    fn registry_type_name_in_label_is_flagged() {
        let f = scan("fn f(r: &Recorder) { r.record_zero_attempt(\"SealedBlob.open\"); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
    }

    #[test]
    fn stage_named_labels_are_fine() {
        let f = scan(
            "fn f(r: &Recorder) {\n    r.record_span(\"infer.layer[1].ecall\", c);\n    \
             r.incr(counters::RECOVERY_ATTEMPTS, 1);\n    \
             r.record_zero_attempt(\"recovery.retry\");\n}\n",
        );
        assert!(check(&Analysis::new(&f)).is_empty());
    }

    #[test]
    fn secret_token_in_the_line_comment_does_not_count() {
        let f = scan("fn f(r: &Recorder) { r.incr(\"epc.hits\", 1); // not the secret_key\n}\n");
        assert!(check(&Analysis::new(&f)).is_empty());
    }

    #[test]
    fn lines_without_record_calls_are_ignored() {
        let f = scan("fn f(sk: u64) -> u64 { sk + 1 }\n");
        assert!(check(&Analysis::new(&f)).is_empty());
    }

    #[test]
    fn secret_token_in_trace_event_name_is_flagged() {
        let f = scan("fn f(r: &Recorder) { r.trace_begin(\"seal.secret_key\", &[]); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
    }

    #[test]
    fn secret_binding_in_trace_arg_is_flagged() {
        let f = scan(
            "fn f(r: &Recorder, secret_key: u64) { r.trace_instant(\"epc.load\", \
             &[(\"k\", secret_key.to_string())]); }\n",
        );
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
    }

    #[test]
    fn secret_token_in_gauge_or_histogram_name_is_flagged() {
        let f = scan("fn f(r: &Recorder) { r.gauge(\"private_key.bits\", 1); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
        let f = scan("fn f(r: &Recorder) { r.observe(\"SealedBlob.bytes\", 1); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
    }

    #[test]
    fn secret_token_in_scope_or_profiler_frame_is_flagged() {
        let f = scan("fn f(r: &Recorder) { let s = r.open(\"unseal.secret_key\", &[]); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
        let f = scan("fn f() { let _p = prof::span(\"SealedBlob.open\"); }\n");
        assert!(check(&Analysis::new(&f))
            .iter()
            .any(|d| d.rule == "obs-secret-label"));
    }

    #[test]
    fn clean_trace_and_gauge_labels_pass() {
        let f = scan(
            "fn f(r: &Recorder) {\n    r.trace_begin(\"session.request\", \
             &[(\"api\", \"infer_batch\".to_string())]);\n    \
             r.gauge(\"noise.budget.layer[3].pre\", 62);\n    \
             r.observe(\"ecall.bytes\", 4096);\n    \
             r.trace_end(\"session.request\");\n}\n",
        );
        assert!(check(&Analysis::new(&f)).is_empty());
    }

    #[test]
    fn tainted_alias_in_label_argument_is_flagged() {
        let f = scan(
            "fn f(r: &Recorder, blob: &SealedBlob) {\n    let payload = blob.clone();\n    \
             r.trace_instant(\"seal.open\", &[(\"v\", format!(\"{:?}\", payload))]);\n}\n",
        );
        let d = check(&Analysis::new(&f));
        assert!(
            d.iter()
                .any(|d| d.rule == "obs-secret-label" && d.line == 3),
            "{d:?}"
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let f =
            scan("#[cfg(test)]\nmod tests {\n    fn t(r: &Recorder) { r.incr(\"sk\", 1); }\n}\n");
        assert!(check(&Analysis::new(&f)).is_empty());
    }
}
