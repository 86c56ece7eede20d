//! A minimal hand-rolled Rust lexer — just enough fidelity for
//! token-pattern lints.
//!
//! Produces a flat token stream with 1-based line numbers; comments and
//! whitespace are discarded. String/char/byte/raw literals are lexed as
//! single opaque tokens so that source text inside them
//! (`"don't panic!"`) can never trip a rule. Multi-character
//! punctuation is emitted one character at a time; rules match short
//! sequences (`.` `unwrap` `(`) instead of compound operators, which
//! keeps the lexer trivial and the rules explicit.

/// Kinds of token the lexer produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `unsafe`, `for`, …).
    Ident,
    /// Numeric literal (`0`, `0xff`, `1.5`, `64u64`).
    Num,
    /// String, raw-string, byte-string, or character literal.
    Str,
    /// A single punctuation character (`.`, `(`, `[`, `!`, `:`, …).
    Punct,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The raw source text of the token.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    fn new(kind: TokKind, text: impl Into<String>, line: u32) -> Token {
        Token {
            kind,
            text: text.into(),
            line,
        }
    }
}

/// Lex Rust source into tokens. Never fails: unrecognized bytes are
/// emitted as single-character [`TokKind::Punct`] tokens, which at worst
/// makes a rule miss — it cannot crash the linter.
pub fn lex(src: &str) -> Vec<Token> {
    let b: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c == '/' && i + 1 < b.len() && b[i + 1] == '/' {
            while i < b.len() && b[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comments nest.
        if c == '/' && i + 1 < b.len() && b[i + 1] == '*' {
            let mut depth = 1usize;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == '/' && i + 1 < b.len() && b[i + 1] == '*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == '*' && i + 1 < b.len() && b[i + 1] == '/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw / byte string prefixes: r"…", r#"…"#, b"…", br#"…"#, b'…'.
        if (c == 'r' || c == 'b') && !prev_is_ident_char(&b, i) {
            if let Some((tok, ni, nl)) = try_prefixed_literal(&b, i, line) {
                out.push(tok);
                i = ni;
                line = nl;
                continue;
            }
        }
        if c == '"' {
            let (tok, ni, nl) = lex_quoted(&b, i, line, '"');
            out.push(tok);
            i = ni;
            line = nl;
            continue;
        }
        if c == '\'' {
            // Lifetime (`'a` not followed by a closing quote) or char
            // literal (`'a'`, `'\n'`).
            let is_lifetime = i + 1 < b.len() && (b[i + 1] == '_' || b[i + 1].is_alphabetic()) && {
                let mut j = i + 1;
                while j < b.len() && (b[j] == '_' || b[j].is_alphanumeric()) {
                    j += 1;
                }
                !(j < b.len() && b[j] == '\'')
            };
            if is_lifetime {
                let start = i;
                i += 1;
                while i < b.len() && (b[i] == '_' || b[i].is_alphanumeric()) {
                    i += 1;
                }
                out.push(Token::new(
                    TokKind::Lifetime,
                    b[start..i].iter().collect::<String>(),
                    line,
                ));
            } else {
                let (tok, ni, nl) = lex_quoted(&b, i, line, '\'');
                out.push(tok);
                i = ni;
                line = nl;
            }
            continue;
        }
        if c == '_' || c.is_alphabetic() {
            let start = i;
            while i < b.len() && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            out.push(Token::new(
                TokKind::Ident,
                b[start..i].iter().collect::<String>(),
                line,
            ));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            while i < b.len() && (b[i] == '_' || b[i].is_alphanumeric()) {
                i += 1;
            }
            // Fractional part — but never eat the dots of `0..n` ranges.
            if i + 1 < b.len() && b[i] == '.' && b[i + 1].is_ascii_digit() {
                i += 1;
                while i < b.len() && (b[i] == '_' || b[i].is_alphanumeric()) {
                    i += 1;
                }
            }
            out.push(Token::new(
                TokKind::Num,
                b[start..i].iter().collect::<String>(),
                line,
            ));
            continue;
        }
        out.push(Token::new(TokKind::Punct, c.to_string(), line));
        i += 1;
    }
    out
}

/// Whether `b[i]` is directly preceded by an identifier character — in
/// which case an `r`/`b` at `i` is the tail of an identifier, not a
/// literal prefix. (The main loop lexes identifiers greedily, so this
/// only guards pathological single-char boundaries.)
fn prev_is_ident_char(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1] == '_' || b[i - 1].is_alphanumeric())
}

/// Try to lex a raw/byte string (or byte char) starting at `i` on one of
/// the prefixes `r` `b` `br`. Returns `None` when `i` starts a plain
/// identifier instead.
fn try_prefixed_literal(b: &[char], i: usize, line: u32) -> Option<(Token, usize, u32)> {
    let mut j = i;
    let mut raw = false;
    if b[j] == 'b' {
        j += 1;
        if j < b.len() && b[j] == 'r' {
            raw = true;
            j += 1;
        }
    } else if b[j] == 'r' {
        raw = true;
        j += 1;
    }
    if raw {
        let mut hashes = 0usize;
        while j < b.len() && b[j] == '#' {
            hashes += 1;
            j += 1;
        }
        if j < b.len() && b[j] == '"' {
            // Raw string: scan to `"` followed by `hashes` hashes.
            let start = i;
            let start_line = line;
            let mut nl = line;
            j += 1;
            while j < b.len() {
                if b[j] == '\n' {
                    nl += 1;
                    j += 1;
                    continue;
                }
                if b[j] == '"'
                    && b[j + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes
                {
                    j += 1 + hashes;
                    return Some((
                        Token::new(
                            TokKind::Str,
                            b[start..j].iter().collect::<String>(),
                            start_line,
                        ),
                        j,
                        nl,
                    ));
                }
                j += 1;
            }
            // Unterminated: swallow to EOF rather than error.
            return Some((
                Token::new(
                    TokKind::Str,
                    b[start..].iter().collect::<String>(),
                    start_line,
                ),
                b.len(),
                nl,
            ));
        }
        return None; // `r#` without a quote: raw identifier or ident.
    }
    // Plain `b"…"` or `b'…'`.
    if j < b.len() && (b[j] == '"' || b[j] == '\'') {
        let quote = b[j];
        let (mut tok, ni, nl) = lex_quoted(b, j, line, quote);
        tok.text = b[i..ni].iter().collect();
        return Some((tok, ni, nl));
    }
    None
}

/// Lex a quoted literal (string or char) starting at the opening quote,
/// honoring backslash escapes and tracking newlines.
fn lex_quoted(b: &[char], i: usize, line: u32, quote: char) -> (Token, usize, u32) {
    let start = i;
    let start_line = line;
    let mut nl = line;
    let mut j = i + 1;
    while j < b.len() {
        match b[j] {
            '\\' => j += 2,
            '\n' => {
                nl += 1;
                j += 1;
            }
            c if c == quote => {
                j += 1;
                break;
            }
            _ => j += 1,
        }
    }
    (
        Token::new(
            TokKind::Str,
            b[start..j.min(b.len())].iter().collect::<String>(),
            start_line,
        ),
        j.min(b.len()),
        nl,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let toks = kinds("let s = \"x.unwrap()\"; // a.unwrap()\n/* b[0] */ y");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
            1,
            "{toks:?}"
        );
        // No bare `unwrap` identifier escapes the literal or comments.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let toks = kinds(r###"let a = r#"panic!("x")"#; let b = b"bytes"; let c = b'q';"###);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 3);
        assert!(!toks.iter().any(|(_, t)| t == "panic"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        let toks = kinds("for i in 0..10 { let f = 1.5; }");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Num)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, ["0", "10", "1.5"]);
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let toks = lex("a\n/* x\ny */\nb");
        let a = toks.iter().find(|t| t.text == "a").unwrap();
        let b = toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(b.line, 4);
    }
}
