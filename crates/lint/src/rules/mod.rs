//! The rule implementations. Line-oriented rules take the scanned
//! [`SourceFile`] directly; the dataflow-aware families (determinism,
//! taint, hot-path) take the per-file [`Analysis`], which
//! layers the token stream, function scopes, and binding table on top.
//! The engine in `lib.rs` applies suppressions and the cross-file
//! `forbid-unsafe` check.

pub mod const_time;
pub mod determinism;
pub mod ecall;
pub mod hot;
pub mod obs;
pub mod panic;
pub mod secret;
pub mod unsafe_rule;

use crate::analysis::Analysis;
use crate::diag::Diagnostic;
use crate::lexer::{ident_positions, SourceFile};

/// Runs every per-file rule on one analyzed file.
pub fn check_file(a: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(secret::check(a));
    out.extend(panic::check(a.file));
    out.extend(const_time::check(a.file));
    out.extend(unsafe_rule::check(a.file));
    out.extend(ecall::check(a.file));
    out.extend(obs::check(a));
    out.extend(determinism::check(a));
    out.extend(hot::check(a));
    out
}

/// A `pub fn` signature: the declaration line (1-based) and the flattened
/// text from `fn` up to (excluding) the body `{` or terminating `;`.
pub(crate) struct PubSig {
    pub line: usize,
    pub text: String,
}

/// Modifier keywords that may sit between `pub` and `fn`.
const FN_MODIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

/// Extracts every non-test `pub fn` signature (visibility-restricted
/// `pub(crate)`/`pub(super)` functions are not part of the public surface
/// and are skipped).
pub(crate) fn pub_fn_signatures(file: &SourceFile) -> Vec<PubSig> {
    let mut sigs = Vec::new();
    let mut i = 0;
    while i < file.line_count() {
        if file.in_test[i] {
            i += 1;
            continue;
        }
        let line = file.code_line(i);
        let Some(fn_pos) = find_pub_fn(line) else {
            i += 1;
            continue;
        };
        let mut text = String::new();
        let mut j = i;
        let mut depth = 0i32;
        let mut done = false;
        while j < file.line_count() && !done {
            let l = file.code_line(j);
            let seg = if j == i { &l[fn_pos..] } else { l };
            for c in seg.chars() {
                match c {
                    '{' => {
                        done = true;
                        break;
                    }
                    // `;` terminates the declaration only outside brackets
                    // (array types like `[u8; 32]` contain one).
                    ';' if depth == 0 => {
                        done = true;
                        break;
                    }
                    '(' | '[' => depth += 1,
                    ')' | ']' => depth -= 1,
                    _ => {}
                }
                if !done {
                    text.push(c);
                }
            }
            if !done {
                text.push(' ');
                j += 1;
            }
        }
        sigs.push(PubSig { line: i + 1, text });
        i = j.max(i) + 1;
    }
    sigs
}

/// If `line` declares a `pub fn` (with optional modifiers), returns the
/// byte offset of the `fn` keyword.
fn find_pub_fn(line: &str) -> Option<usize> {
    let words = ident_positions(line);
    for (wi, &(pos, word)) in words.iter().enumerate() {
        if word != "pub" {
            continue;
        }
        // `pub(crate)` / `pub(super)`: restricted visibility, skip.
        if crate::lexer::next_nonspace(line, pos + 3) == Some('(') {
            continue;
        }
        let mut k = wi + 1;
        while let Some(&(fp, w)) = words.get(k) {
            if w == "fn" {
                return Some(fp);
            }
            if FN_MODIFIERS.contains(&w) || w == "C" {
                k += 1;
                continue;
            }
            break;
        }
    }
    None
}

/// A `pub` struct-field declaration: line (1-based) and the type text
/// after the `:`.
pub(crate) struct PubField {
    pub line: usize,
    pub type_text: String,
}

/// Keywords after `pub` that mean "not a field".
const NON_FIELD_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "use", "mod", "type", "trait", "const", "static", "impl", "crate",
    "super", "self", "in", "unsafe", "async", "extern",
];

/// Extracts non-test `pub <name>: <Type>` field declarations.
pub(crate) fn pub_fields(file: &SourceFile) -> Vec<PubField> {
    let mut out = Vec::new();
    for i in 0..file.line_count() {
        if file.in_test[i] {
            continue;
        }
        let line = file.code_line(i);
        let words = ident_positions(line);
        for (wi, &(pos, word)) in words.iter().enumerate() {
            if word != "pub" {
                continue;
            }
            if crate::lexer::next_nonspace(line, pos + 3) == Some('(') {
                break; // pub(crate) field: not public surface
            }
            let Some(&(_, next)) = words.get(wi + 1) else {
                break;
            };
            if NON_FIELD_KEYWORDS.contains(&next) {
                break;
            }
            // A field has a single `:` after the name (`::` is a path).
            if let Some(colon) = single_colon(line, pos) {
                out.push(PubField {
                    line: i + 1,
                    type_text: line[colon + 1..].to_string(),
                });
            }
            break;
        }
    }
    out
}

/// Finds the first single `:` (not part of `::`) after byte `from`.
fn single_colon(line: &str, from: usize) -> Option<usize> {
    let bytes = line.as_bytes();
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] == b':' {
            if bytes.get(i + 1) == Some(&b':') {
                i += 2;
                continue;
            }
            if i > 0 && bytes[i - 1] == b':' {
                i += 1;
                continue;
            }
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> SourceFile {
        SourceFile::scan("crates/x/src/a.rs", text)
    }

    #[test]
    fn pub_fn_signature_spans_lines() {
        let f = scan("pub fn seal(\n    key: &SecretKey,\n    data: &[u8],\n) -> Blob {\n");
        let sigs = pub_fn_signatures(&f);
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].line, 1);
        assert!(sigs[0].text.contains("SecretKey"));
        assert!(sigs[0].text.contains("Blob"));
    }

    #[test]
    fn pub_crate_fn_is_skipped() {
        let f = scan("pub(crate) fn secret_keys(&self) -> &[SecretKey] { &self.sk }\n");
        assert!(pub_fn_signatures(&f).is_empty());
    }

    #[test]
    fn pub_const_fn_is_found() {
        let f = scan("pub const fn len() -> usize { 4 }\n");
        assert_eq!(pub_fn_signatures(&f).len(), 1);
    }

    #[test]
    fn pub_field_type_is_extracted() {
        let f = scan("pub struct K {\n    pub keys: Vec<SecretKey>,\n    inner: u32,\n}\n");
        let fields = pub_fields(&f);
        assert_eq!(fields.len(), 1);
        assert_eq!(fields[0].line, 2);
        assert!(fields[0].type_text.contains("SecretKey"));
    }

    #[test]
    fn path_segments_are_not_fields() {
        let f = scan("pub use crate::keys::SecretKey;\n");
        assert!(pub_fields(&f).is_empty());
    }
}
