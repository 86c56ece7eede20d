//! Per-file analysis shared by every rule: the lexed token stream with
//! attribute spans marked, and `#[cfg(test)]` item extents.

use crate::lexer::{lex, TokKind, Token};

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
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Per-token flag: part of an attribute (`#[…]` / `#![…]`).
    pub in_attr: Vec<bool>,
    /// Inclusive line ranges of items under `#[cfg(test)]`.
    pub test_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lex and analyze one file.
    pub fn analyze(rel: String, src: &str) -> SourceFile {
        let tokens = lex(src);
        let mut f = SourceFile {
            rel,
            in_attr: vec![false; tokens.len()],
            test_ranges: Vec::new(),
            tokens,
        };
        f.scan_attributes();
        f
    }

    /// Token `i`.
    pub fn tok(&self, i: usize) -> &Token {
        &self.tokens[i]
    }

    /// Whether token `i` sits inside an attribute.
    pub fn in_attribute(&self, i: usize) -> bool {
        self.in_attr[i]
    }

    /// Whether `line` is inside a `#[cfg(test)]` item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(a, b)| (a..=b).contains(&line))
    }

    /// Mark attribute token spans and record `#[cfg(test)]` item extents.
    fn scan_attributes(&mut self) {
        let mut k = 0usize;
        while k < self.tokens.len() {
            if self.tok(k).text != "#" || self.tok(k).kind != TokKind::Punct {
                k += 1;
                continue;
            }
            let mut j = k + 1;
            if j < self.tokens.len() && self.tok(j).text == "!" {
                j += 1;
            }
            if j >= self.tokens.len() || self.tok(j).text != "[" {
                k += 1;
                continue;
            }
            // Match the attribute's brackets.
            let mut depth = 0usize;
            let mut m = j;
            while m < self.tokens.len() {
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
            let end = m.min(self.tokens.len().saturating_sub(1));
            for cc in k..=end {
                self.in_attr[cc] = true;
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
        while p < self.tokens.len() && self.tok(p).text == "#" {
            let mut j = p + 1;
            if j < self.tokens.len() && self.tok(j).text == "!" {
                j += 1;
            }
            if j >= self.tokens.len() || self.tok(j).text != "[" {
                break;
            }
            let mut depth = 0usize;
            while j < self.tokens.len() {
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
        while p < self.tokens.len() {
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
        let derive_idx = (0..f.tokens.len())
            .find(|&i| f.tok(i).text == "derive")
            .unwrap();
        let struct_idx = (0..f.tokens.len())
            .find(|&i| f.tok(i).text == "struct")
            .unwrap();
        assert!(f.in_attribute(derive_idx));
        assert!(!f.in_attribute(struct_idx));
    }
}
