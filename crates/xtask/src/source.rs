//! Per-file analysis shared by every rule: the lexed token stream, a
//! code-only view with attribute spans marked, `#[cfg(test)]` item
//! extents, and parsed `lint: allow` annotations.

use crate::lexer::{lex, TokKind, Token};

/// A parsed `// lint: allow(<rule>) -- <reason>` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the comment starts on. An allow suppresses matching
    /// diagnostics on its own line and on the line directly below it
    /// (comment-above style).
    pub line: u32,
    /// The rule name inside the parentheses.
    pub rule: String,
    /// Whether a non-empty reason follows ` -- `. Reason-less allows are
    /// themselves diagnostics: the escape hatch requires a justification.
    pub has_reason: bool,
}

/// Whether `rel` is test-only source by location: integration tests,
/// benches, examples (their fns never run on the product path), or a
/// module's out-of-line unit tests (`<module>/tests.rs`, declared
/// `#[cfg(test)] mod tests;` by its parent).
/// The linter's own golden fixtures are exempt — they are
/// product-shaped snippets that exist to be analyzed.
pub fn is_test_location(rel: &str) -> bool {
    if rel.contains("tests/fixtures/") {
        return false;
    }
    rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.starts_with("tests/")
        || rel.ends_with("/tests.rs")
}

/// One analyzed source file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable diagnostics).
    pub rel: String,
    /// The full token stream, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub code: Vec<usize>,
    /// Per-token flag: part of an attribute (`#[…]` / `#![…]`).
    pub in_attr: Vec<bool>,
    /// Inclusive line ranges of items under `#[cfg(test)]`.
    pub test_ranges: Vec<(u32, u32)>,
    /// All `lint: allow` annotations found in comments.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    /// Lex and analyze one file.
    pub fn analyze(rel: String, src: &str) -> SourceFile {
        let tokens = lex(src);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut f = SourceFile {
            rel,
            in_attr: vec![false; tokens.len()],
            test_ranges: Vec::new(),
            allows: Vec::new(),
            tokens,
            code,
        };
        f.scan_attributes();
        f.scan_allows();
        f
    }

    /// Token behind a code index.
    pub fn tok(&self, code_idx: usize) -> &Token {
        &self.tokens[self.code[code_idx]]
    }

    /// Whether the code token at `code_idx` sits inside an attribute.
    pub fn in_attribute(&self, code_idx: usize) -> bool {
        self.in_attr[self.code[code_idx]]
    }

    /// Whether `line` is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Whether a diagnostic for `rule` at `line` is covered by an allow
    /// annotation (same line or the line directly above).
    pub fn is_allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && a.has_reason && (a.line == line || a.line + 1 == line))
    }

    /// Mark attribute token spans and record `#[cfg(test)]` item extents.
    fn scan_attributes(&mut self) {
        let mut k = 0usize;
        while k < self.code.len() {
            if self.tok(k).text != "#" || self.tok(k).kind != TokKind::Punct {
                k += 1;
                continue;
            }
            let mut j = k + 1;
            if j < self.code.len() && self.tok(j).text == "!" {
                j += 1;
            }
            if j >= self.code.len() || self.tok(j).text != "[" {
                k += 1;
                continue;
            }
            // Match the attribute's brackets.
            let mut depth = 0usize;
            let mut m = j;
            while m < self.code.len() {
                match self.tok(m).text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            let end = m.min(self.code.len().saturating_sub(1));
            for cc in k..=end {
                self.in_attr[self.code[cc]] = true;
            }
            // Exactly `#[cfg(test)]`: idents inside are [cfg, test].
            let idents: Vec<&str> = (j + 1..m)
                .filter(|&c| self.tok(c).kind == TokKind::Ident)
                .map(|c| self.tok(c).text.as_str())
                .collect();
            if idents == ["cfg", "test"] {
                let start_line = self.tok(k).line;
                if let Some(end_line) = self.item_extent_after(m + 1) {
                    self.test_ranges.push((start_line, end_line));
                }
            }
            k = m + 1;
        }
    }

    /// Line on which the item starting at code index `p` ends: the close
    /// of its first top-level brace block, or its terminating `;`.
    /// Intervening attributes are skipped.
    fn item_extent_after(&self, mut p: usize) -> Option<u32> {
        // Skip any further attributes on the same item.
        while p < self.code.len() && self.tok(p).text == "#" {
            let mut j = p + 1;
            if j < self.code.len() && self.tok(j).text == "!" {
                j += 1;
            }
            if j >= self.code.len() || self.tok(j).text != "[" {
                break;
            }
            let mut depth = 0usize;
            while j < self.code.len() {
                match self.tok(j).text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            p = j + 1;
        }
        let mut brace = 0usize;
        while p < self.code.len() {
            match self.tok(p).text.as_str() {
                "{" => {
                    brace += 1;
                }
                "}" => {
                    brace = brace.saturating_sub(1);
                    if brace == 0 {
                        return Some(self.tok(p).line);
                    }
                }
                ";" if brace == 0 => return Some(self.tok(p).line),
                _ => {}
            }
            p += 1;
        }
        None
    }

    /// Parse `lint: allow(<rule>)` annotations out of comments.
    fn scan_allows(&mut self) {
        for t in &self.tokens {
            if !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment) {
                continue;
            }
            let Some(pos) = t.text.find("lint: allow(") else {
                continue;
            };
            let rest = &t.text[pos + "lint: allow(".len()..];
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_string();
            // Annotation rule names are kebab-case; anything else (e.g.
            // the literal `<rule>` in docs describing the grammar) is
            // prose, not an annotation.
            if rule.is_empty()
                || !rule
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            {
                continue;
            }
            let after = &rest[close + 1..];
            let has_reason = after
                .find("--")
                .map(|d| !after[d + 2..].trim().is_empty())
                .unwrap_or(false);
            self.allows.push(Allow {
                line: t.line,
                rule,
                has_reason,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_extent_covers_module() {
        let src =
            "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\nfn live2() {}\n";
        let f = SourceFile::analyze("x.rs".into(), src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = SourceFile::analyze("x.rs".into(), "#[cfg(not(test))]\nfn f() {}\n");
        assert!(f.test_ranges.is_empty());
    }

    #[test]
    fn attributes_are_marked() {
        let f = SourceFile::analyze("x.rs".into(), "#[derive(Clone)]\nstruct S([u8; 4]);\n");
        // The derive's tokens are attribute tokens; the struct's are not.
        let derive_idx = (0..f.code.len())
            .find(|&i| f.tok(i).text == "derive")
            .unwrap();
        let struct_idx = (0..f.code.len())
            .find(|&i| f.tok(i).text == "struct")
            .unwrap();
        assert!(f.in_attribute(derive_idx));
        assert!(!f.in_attribute(struct_idx));
    }

    #[test]
    fn allow_parsing() {
        let src = "// lint: allow(panic-free-dataplane) -- invariant: head <= tail\nlet x = v[0];\n// lint: allow(unsafe-audit)\n";
        let f = SourceFile::analyze("x.rs".into(), src);
        assert_eq!(f.allows.len(), 2);
        assert!(f.allows[0].has_reason);
        assert!(!f.allows[1].has_reason);
        assert!(f.is_allowed("panic-free-dataplane", 2));
        assert!(!f.is_allowed("unsafe-audit", 4));
    }
}
