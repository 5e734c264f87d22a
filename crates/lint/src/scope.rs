//! Function scopes over the token stream: brace-tracked body extents,
//! loop spans, retry-call argument spans, and the `hot` marker.
//!
//! The v2 rule families are *function-oriented*: `rng-fork` cares about
//! draws inside retry bodies, `hot-path-alloc` about allocations inside the
//! loops of functions marked hot, `unordered-iter` about iteration inside
//! functions that feed serialized bytes. This module finds each `fn`, its
//! body `{...}` extent, the loops and retry-closure argument lists inside
//! it, and whether the function carries a `// hesgx-lint: hot` marker.

use crate::lexer::SourceFile;
use crate::tokens::{matching, Tok};

/// A contiguous token-index range `[start, end]` (inclusive; for brace
/// spans `start` is the opener and `end` the matching closer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    /// Whether token index `i` lies inside the span (inclusive).
    pub fn contains(&self, i: usize) -> bool {
        self.start <= i && i <= self.end
    }
}

/// One loop inside a function body.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpan {
    /// The body braces of the loop.
    pub body: Span,
    /// `"for"`, `"while"`, or `"loop"`.
    pub keyword: &'static str,
}

/// One function and the structure the rules need from it.
#[derive(Debug)]
pub struct FnScope {
    /// The function name.
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// Tokens from the `fn` keyword to just before the body `{` (or the
    /// terminating `;` for bodyless declarations).
    pub sig: Span,
    /// The body braces, `None` for trait-method declarations.
    pub body: Option<Span>,
    /// Identifier texts of the return type (empty when none declared).
    pub ret_idents: Vec<String>,
    /// Whether the signature line lies in `#[cfg(test)]` code.
    pub is_test: bool,
    /// Whether the function carries a `// hesgx-lint: hot` marker.
    pub hot: bool,
    /// Loops in the body, in token order (nested loops appear separately).
    pub loops: Vec<LoopSpan>,
    /// Argument-list spans of calls to `*retry*`-named functions — the
    /// scope a retried closure body lives in.
    pub retry_spans: Vec<Span>,
}

/// Extracts every function in `file` from its token stream.
pub fn functions(file: &SourceFile, toks: &[Tok]) -> Vec<FnScope> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is("fn") || !toks.get(i + 1).is_some_and(|t| t.is_ident) {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        let sig_line = toks[i].line;
        // Scan to the body `{` or a terminating `;` (trait declarations).
        let mut j = i + 2;
        let mut open = None;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let sig = Span {
            start: i,
            end: j.saturating_sub(1),
        };
        let body = open.and_then(|o| matching(toks, o).map(|c| Span { start: o, end: c }));
        let ret_idents = return_idents(toks, sig);
        let is_test = file.in_test.get(sig_line).copied().unwrap_or(false);
        let hot = has_hot_marker(file, sig_line);
        let (loops, retry_spans) = match body {
            Some(b) => (find_loops(toks, b), find_retry_spans(toks, b)),
            None => (Vec::new(), Vec::new()),
        };
        out.push(FnScope {
            name,
            sig_line,
            sig,
            body,
            ret_idents,
            is_test,
            hot,
            loops,
            retry_spans,
        });
        // Continue after the signature so nested closures' `fn` items (and
        // functions declared inside bodies) are still discovered.
        i = sig.end + 1;
    }
    out
}

/// Identifier texts after the `->` of a signature span.
fn return_idents(toks: &[Tok], sig: Span) -> Vec<String> {
    for k in sig.start..sig.end {
        if toks[k].is_punct('-') && toks.get(k + 1).is_some_and(|t| t.is_punct('>')) {
            return toks[k + 2..=sig.end]
                .iter()
                .filter(|t| t.is_ident)
                .map(|t| t.text.clone())
                .collect();
        }
    }
    Vec::new()
}

/// Whether a `// hesgx-lint: hot` marker annotates the function whose `fn`
/// keyword sits on 0-based `sig_line`: either trailing on that line, or on
/// one of the attribute/comment/blank lines directly above it.
fn has_hot_marker(file: &SourceFile, sig_line: usize) -> bool {
    if is_hot_comment(file.comments.get(sig_line).map_or("", String::as_str)) {
        return true;
    }
    let mut k = sig_line;
    while k > 0 {
        k -= 1;
        let code = file.code_line(k).trim();
        if is_hot_comment(file.comments.get(k).map_or("", String::as_str)) {
            return true;
        }
        // Keep climbing over attributes, attribute continuations, and
        // comment-only/blank lines; anything else ends the header.
        let attr_ish = code.is_empty() || code.starts_with("#[") || code.ends_with(']');
        if !attr_ish {
            return false;
        }
    }
    false
}

/// Whether a line-comment text is a `hesgx-lint: hot` marker.
pub fn is_hot_comment(comment: &str) -> bool {
    let Some(content) = comment.strip_prefix("//") else {
        return false;
    };
    if content.starts_with('/') || content.starts_with('!') {
        return false; // doc comments stay documentation
    }
    content.trim() == "hesgx-lint: hot"
}

/// Finds every `for`/`while`/`loop` body inside `body`.
fn find_loops(toks: &[Tok], body: Span) -> Vec<LoopSpan> {
    let mut out = Vec::new();
    for k in body.start + 1..body.end {
        let keyword = if toks[k].is("for") {
            "for"
        } else if toks[k].is("while") {
            "while"
        } else if toks[k].is("loop") {
            "loop"
        } else {
            continue;
        };
        // `.for_each` style method names are idents, not keywords; a `.`
        // immediately before disqualifies (no such method names match the
        // exact texts above, but stay defensive).
        if k > 0 && toks[k - 1].is_punct('.') {
            continue;
        }
        // The loop body is the next `{` after the header expression.
        let Some(open) = (k + 1..=body.end).find(|&m| toks[m].is_punct('{')) else {
            continue;
        };
        if let Some(close) = matching(toks, open) {
            if close <= body.end {
                out.push(LoopSpan {
                    body: Span {
                        start: open,
                        end: close,
                    },
                    keyword,
                });
            }
        }
    }
    out
}

/// Finds the argument-list spans of calls whose callee name contains
/// `retry` (e.g. `retry_with_cost(...)`).
fn find_retry_spans(toks: &[Tok], body: Span) -> Vec<Span> {
    let mut out = Vec::new();
    for k in body.start + 1..body.end {
        if !toks[k].is_ident || !toks[k].text.to_ascii_lowercase().contains("retry") {
            continue;
        }
        if !toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if let Some(close) = matching(toks, k + 1) {
            if close <= body.end {
                out.push(Span {
                    start: k + 1,
                    end: close,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::tokenize;

    fn scopes(src: &str) -> (Vec<Tok>, Vec<FnScope>) {
        let f = SourceFile::scan("crates/x/src/a.rs", src);
        let toks = tokenize(&f);
        let fns = functions(&f, &toks);
        (toks, fns)
    }

    #[test]
    fn fn_name_body_and_return_are_extracted() {
        let (toks, fns) = scopes("fn make() -> Result<Session> {\n    build()\n}\n");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "make");
        assert_eq!(fns[0].ret_idents, vec!["Result", "Session"]);
        let body = fns[0].body.unwrap();
        assert!(toks[body.start].is_punct('{'));
        assert!(toks[body.end].is_punct('}'));
    }

    #[test]
    fn bodyless_trait_method_has_no_body() {
        let (_, fns) = scopes("trait T {\n    fn f(&self) -> u64;\n}\n");
        assert_eq!(fns.len(), 1);
        assert!(fns[0].body.is_none());
    }

    #[test]
    fn loops_are_found_including_nested() {
        let (_, fns) =
            scopes("fn f() {\n    for i in xs {\n        while go {\n            step();\n        }\n    }\n    loop {\n        break;\n    }\n}\n");
        let kinds: Vec<&str> = fns[0].loops.iter().map(|l| l.keyword).collect();
        assert_eq!(kinds, vec!["for", "while", "loop"]);
    }

    #[test]
    fn retry_call_arguments_form_a_span() {
        let (toks, fns) =
            scopes("fn f() {\n    retry_with_cost(policy, |attempt| {\n        op()\n    })\n}\n");
        assert_eq!(fns[0].retry_spans.len(), 1);
        let span = fns[0].retry_spans[0];
        let inner: Vec<&str> = toks[span.start..=span.end]
            .iter()
            .filter(|t| t.is_ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(inner, vec!["policy", "attempt", "op"]);
    }

    #[test]
    fn hot_marker_is_detected_above_and_trailing() {
        let (_, fns) = scopes("// hesgx-lint: hot\n#[inline]\nfn conv() {}\n");
        assert!(fns[0].hot);
        let (_, fns) = scopes("fn conv() { // hesgx-lint: hot\n}\n");
        assert!(fns[0].hot);
        let (_, fns) = scopes("// plain comment\nfn conv() {}\n");
        assert!(!fns[0].hot);
    }

    #[test]
    fn hot_marker_does_not_leak_past_non_attribute_code() {
        let (_, fns) = scopes("// hesgx-lint: hot\nfn first() {}\n\nfn second() {}\n");
        assert!(fns[0].hot);
        assert!(!fns[1].hot);
    }

    #[test]
    fn test_functions_are_marked() {
        let (_, fns) = scopes("#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn prod() {}\n");
        assert!(fns[0].is_test);
        assert!(!fns[1].is_test);
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let (_, fns) = scopes("fn f() {}\nimpl Debug for X {\n    fn g(&self) {}\n}\n");
        assert!(fns.iter().all(|s| s.loops.is_empty()));
        assert_eq!(fns.len(), 2);
    }
}
