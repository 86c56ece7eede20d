//! `drop-accounting`: the live-taxonomy half of the exactly-once drop
//! discipline. Every dropped packet moves exactly one `DropReason`
//! counter through the single entry point `PipelineStats::drop` — that
//! half needs no lint, because `DropCounters::record` is private to
//! `sim::stats`. What a visibility cannot state is checked here: every
//! variant in the taxonomy must actually be constructed somewhere in
//! product code. A dead variant means either dead taxonomy or a drop
//! path that silently stopped being accounted.

use crate::lexer::TokKind;
use crate::rules::{Diagnostic, LintCtx, Rule};
use crate::source::SourceFile;

/// See the module docs.
pub struct DropAccounting;

impl Rule for DropAccounting {
    fn name(&self) -> &'static str {
        "drop-accounting"
    }

    fn describe(&self) -> &'static str {
        "every DropReason variant is constructed in product code (no dead taxonomy, no unaccounted drop path)"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        // Locate the defining file and collect the variant list.
        let def = ctx
            .files
            .iter()
            .find_map(|f| find_enum_variants(f, "DropReason").map(|v| (f, v)));
        let Some((def_file, variants)) = def else {
            return; // Nothing to audit (file sets without the enum).
        };

        // A variant is live when product (non-test) code constructs it
        // outside the taxonomy's own declaration and `impl` blocks — the
        // ALL/index/stage tables name every variant by construction and
        // prove nothing.
        let mut live: Vec<bool> = vec![false; variants.len()];
        for f in ctx.files {
            let excluded = if f.rel == def_file.rel {
                taxonomy_spans(f, "DropReason")
            } else {
                Vec::new()
            };
            for i in 2..f.tokens.len() {
                let t = f.tok(i);
                if t.kind != TokKind::Ident || f.is_test_line(t.line) || f.in_attribute(i) {
                    continue;
                }
                if excluded.iter().any(|&(a, b)| (a..=b).contains(&t.line)) {
                    continue;
                }
                if f.tok(i - 1).text == ":"
                    && f.tok(i - 2).text == ":"
                    && i >= 3
                    && f.tok(i - 3).text == "DropReason"
                {
                    if let Some(v) = variants.iter().position(|(name, _)| *name == t.text) {
                        live[v] = true;
                    }
                }
            }
        }
        for (idx, (name, line)) in variants.iter().enumerate() {
            if !live[idx] {
                out.push(Diagnostic::new(
                    &def_file.rel,
                    *line,
                    self.name(),
                    format!(
                        "`DropReason::{name}` is never constructed in product code — dead \
                         taxonomy entry (or an unaccounted drop path)"
                    ),
                ));
            }
        }
    }
}

/// Find `enum <name> { … }` in `f` and return its variant names with
/// their lines. Variant names are identifiers directly following `{` or
/// `,` at the enum's top brace depth.
fn find_enum_variants(f: &SourceFile, name: &str) -> Option<Vec<(String, u32)>> {
    let start = (1..f.tokens.len()).find(|&i| {
        f.tok(i).text == name && f.tok(i - 1).text == "enum" && !f.is_test_line(f.tok(i).line)
    })?;
    let open = (start + 1..f.tokens.len()).find(|&i| f.tok(i).text == "{")?;
    let mut depth = 0usize;
    let mut variants = Vec::new();
    let mut i = open;
    while i < f.tokens.len() {
        let t = f.tok(i);
        match t.text.as_str() {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if depth == 1
                    && t.kind == TokKind::Ident
                    && matches!(f.tok(i - 1).text.as_str(), "{" | ",")
                    && !f.in_attribute(i)
                {
                    variants.push((t.text.clone(), t.line));
                }
            }
        }
        i += 1;
    }
    Some(variants)
}

/// Line spans of `enum <name> { … }` and of every `impl` block whose
/// header names `<name>` — the taxonomy's self-referencing regions,
/// excluded from the liveness scan.
fn taxonomy_spans(f: &SourceFile, name: &str) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < f.tokens.len() {
        let t = f.tok(i);
        let is_enum_decl = t.text == "enum" && i + 1 < f.tokens.len() && f.tok(i + 1).text == name;
        let is_impl = t.text == "impl";
        if !(is_enum_decl || is_impl) {
            i += 1;
            continue;
        }
        // Scan the header up to the opening brace (impl headers have no
        // braces of their own); bail at `;` (e.g. `impl` in a macro).
        let mut j = i + 1;
        let mut names_it = is_enum_decl;
        while j < f.tokens.len() && f.tok(j).text != "{" && f.tok(j).text != ";" {
            if f.tok(j).text == name {
                names_it = true;
            }
            j += 1;
        }
        if j >= f.tokens.len() || f.tok(j).text == ";" || !names_it {
            i += 1;
            continue;
        }
        // Brace-match the body.
        let mut depth = 0usize;
        let mut m = j;
        while m < f.tokens.len() {
            match f.tok(m).text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            m += 1;
        }
        let end = m.min(f.tokens.len() - 1);
        spans.push((t.line, f.tok(end).line));
        i = m + 1;
    }
    spans
}
