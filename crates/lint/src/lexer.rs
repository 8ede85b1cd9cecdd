//! A minimal Rust lexer: just enough token structure for lexical lint
//! rules.
//!
//! The guarantees the rules rely on:
//!
//! * comments, string/char literals (including raw and byte forms), and
//!   lifetimes can never be mistaken for code identifiers;
//! * identifiers are full words — `unwrap_or_default` is one token and
//!   never matches a rule looking for `unwrap`;
//! * comments are kept in the stream (with their text), because the
//!   `// SAFETY:` and `// lint: allow(...)` conventions live in them.
//!
//! Everything else — numbers, punctuation — is tokenized coarsely; the
//! rules only ever look at identifiers, a handful of ASCII puncts, a
//! numeric literal's text (L004's weight `0`), and comment text.

/// One lexical token, tagged with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    /// Token text: full for identifiers, numbers and comments (the
    /// rules read those), empty for other literals and punctuation.
    pub text: String,
    pub line: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword, as one full word.
    Ident,
    /// Single punctuation character.
    Punct(char),
    /// Line or block comment (text retained, delimiters included).
    Comment,
    /// String, raw string, byte string, or char literal (contents
    /// opaque to the rules).
    Str,
    /// Numeric literal.
    Num,
}

/// Tokenizes `src`. Never fails: unterminated constructs simply run to
/// end of input, which is the right degradation for a linter.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Comment,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Comment,
                    text: src[start..i].to_string(),
                    line: start_line,
                });
            }
            b'"' => {
                let start_line = line;
                i = scan_string(b, i, &mut line);
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime; everything else is a char.
                let k = i + 1;
                let is_lifetime = b.get(k).is_some_and(|&c| is_ident_start(c)) && {
                    let mut m = k;
                    while m < b.len() && is_ident_char(b[m]) {
                        m += 1;
                    }
                    b.get(m) != Some(&b'\'')
                };
                if is_lifetime {
                    i = k;
                    while i < b.len() && is_ident_char(b[i]) {
                        i += 1;
                    }
                } else {
                    let start_line = line;
                    i = scan_char(b, i, &mut line);
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: start_line,
                    });
                }
            }
            c if is_ident_start(c) => {
                if let Some(end) = raw_or_byte_literal(b, i, &mut line) {
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line,
                    });
                    i = end;
                } else {
                    let start = i;
                    while i < b.len() && is_ident_char(b[i]) {
                        i += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        text: src[start..i].to_string(),
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                loop {
                    match b.get(i) {
                        Some(&c) if is_ident_char(c) => i += 1,
                        Some(b'.') if b.get(i + 1).is_some_and(u8::is_ascii_digit) => i += 2,
                        _ => break,
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            c => {
                toks.push(Tok {
                    kind: TokKind::Punct(c as char),
                    text: String::new(),
                    line,
                });
                i += 1;
            }
        }
    }
    toks
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Scans a `"…"` literal starting at the opening quote; returns the
/// index just past the closing quote.
fn scan_string(b: &[u8], open: usize, line: &mut u32) -> usize {
    let mut i = open + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => {
                // A `\` line continuation still ends a line.
                if b.get(i + 1) == Some(&b'\n') {
                    *line += 1;
                }
                i += 2;
            }
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scans a `'…'` char literal starting at the opening quote; returns
/// the index just past the closing quote.
fn scan_char(b: &[u8], open: usize, line: &mut u32) -> usize {
    let mut i = open + 1;
    if b.get(i) == Some(&b'\\') {
        i += 2;
    }
    while i < b.len() && b[i] != b'\'' {
        if b[i] == b'\n' {
            *line += 1;
        }
        i += 1;
    }
    (i + 1).min(b.len())
}

/// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, and `b'…'` starting at
/// an identifier-start position. Returns the end index when the input
/// really is such a literal, `None` when it is a plain identifier.
fn raw_or_byte_literal(b: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let (raw, mut j) = match (b[i], b.get(i + 1)) {
        (b'r', Some(&b'"')) | (b'r', Some(&b'#')) => (true, i + 1),
        (b'b', Some(&b'r')) if matches!(b.get(i + 2), Some(&b'"') | Some(&b'#')) => (true, i + 2),
        (b'b', Some(&b'"')) => (false, i + 1),
        (b'b', Some(&b'\'')) => return Some(scan_char(b, i + 1, line)),
        _ => return None,
    };
    if raw {
        let mut hashes = 0usize;
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if b.get(j) != Some(&b'"') {
            // `r#ident` raw identifier, not a raw string.
            return None;
        }
        j += 1;
        while j < b.len() {
            if b[j] == b'\n' {
                *line += 1;
                j += 1;
            } else if b[j] == b'"'
                && b[j + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == b'#')
                    .count()
                    == hashes
            {
                return Some(j + 1 + hashes);
            } else {
                j += 1;
            }
        }
        Some(j)
    } else {
        Some(scan_string(b, j, line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn identifiers_are_full_words() {
        assert_eq!(
            idents("x.unwrap_or_default()"),
            vec!["x", "unwrap_or_default"]
        );
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // a comment saying unwrap()
            let s = "panic!(\"no\")";
            let r = r#"expect("nope")"#;
            let c = 'u';
        "##;
        let ids = idents(src);
        assert!(!ids
            .iter()
            .any(|i| i == "unwrap" || i == "panic" || i == "expect"));
        assert_eq!(ids, vec!["let", "s", "let", "r", "let", "c"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // `'a` must not swallow `>` as part of a char literal.
        let toks = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Punct('>')));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "str"));
    }

    #[test]
    fn block_comments_nest() {
        let ids = idents("/* outer /* inner */ still comment */ code");
        assert_eq!(ids, vec!["code"]);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("a\nb\n\nc");
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
        // Newlines inside a string count, escaped (a `\` continuation)
        // or not — L008 measures functions in lines.
        let toks = lex("\"a\\\n b\nc\"\nd");
        assert_eq!(toks.last().map(|t| t.line), Some(4));
    }
}
