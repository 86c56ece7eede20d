//! `telemetry-naming`: the static metric-name discipline. Every metric
//! name is a snake_case string constant registered exactly once in the
//! telemetry crate's name registry (`crates/telemetry/src/names.rs`),
//! and every `publish_*` call site names its metric through such a
//! constant — never a raw string literal. A literal at a call site
//! bypasses the registry's collision and spelling guarantees; a
//! duplicate or non-snake_case constant corrupts the scrape namespace
//! at its source.

use std::collections::BTreeMap;

use crate::lexer::TokKind;
use crate::rules::{Diagnostic, LintCtx, Rule};
use crate::source::SourceFile;

/// See the module docs.
pub struct TelemetryNaming;

/// The workspace's metric-name registry module.
const REGISTRY_FILE: &str = "crates/telemetry/src/names.rs";

/// The [`sirpent_telemetry::Registry`] publication surface — the calls
/// whose first argument must be a registered constant.
const PUBLISH_FNS: &[&str] = &[
    "publish_counter",
    "publish_count",
    "publish_gauge",
    "publish_histogram",
];

impl Rule for TelemetryNaming {
    fn name(&self) -> &'static str {
        "telemetry-naming"
    }

    fn describe(&self) -> &'static str {
        "metric names are snake_case consts registered once; publish_* never takes a raw literal"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        let mut seen: BTreeMap<String, (String, u32)> = BTreeMap::new();
        for f in ctx.files {
            let is_registry = ctx.cfg.fixture_scopes || f.rel == REGISTRY_FILE;
            if is_registry {
                self.check_registry(f, &mut seen, out);
            }
            self.check_call_sites(f, out);
        }
    }
}

impl TelemetryNaming {
    /// Audit `const NAME: &str = "value";` items in a registry file:
    /// the value must be snake_case and globally unique.
    fn check_registry(
        &self,
        f: &SourceFile,
        seen: &mut BTreeMap<String, (String, u32)>,
        out: &mut Vec<Diagnostic>,
    ) {
        let mut i = 0usize;
        while i < f.tokens.len() {
            let t = f.tok(i);
            if t.text != "const" || f.is_test_line(t.line) || f.in_attribute(i) {
                i += 1;
                continue;
            }
            // const <IDENT> : … = <Str> ; — only &str-typed constants
            // (the name registry's shape) are audited.
            let Some(name_tok) = f.tokens.get(i + 1) else {
                break;
            };
            if name_tok.kind != TokKind::Ident || name_tok.text == "fn" {
                i += 1;
                continue;
            }
            let mut j = i + 2;
            let mut is_str_type = false;
            let mut value: Option<(String, u32)> = None;
            while j < f.tokens.len() && f.tok(j).text != ";" {
                let tj = f.tok(j);
                if tj.text == "str" {
                    is_str_type = true;
                }
                if tj.kind == TokKind::Str && value.is_none() {
                    value = Some((tj.text.clone(), tj.line));
                }
                j += 1;
            }
            if let (true, Some((raw, line))) = (is_str_type, value) {
                let name = raw.trim_matches('"');
                if !is_snake_case(name) {
                    out.push(Diagnostic::new(
                        &f.rel,
                        line,
                        self.name(),
                        format!(
                            "metric name {raw} is not snake_case — scrape keys are \
                             `[a-z][a-z0-9_]*` by contract"
                        ),
                    ));
                }
                if let Some((first_file, first_line)) =
                    seen.insert(name.to_string(), (f.rel.clone(), line))
                {
                    out.push(Diagnostic::new(
                        &f.rel,
                        line,
                        self.name(),
                        format!(
                            "metric name {raw} is already registered at \
                             {first_file}:{first_line} — each name is registered exactly once"
                        ),
                    ));
                }
            }
            i = j + 1;
        }
    }

    /// Flag `publish_*("literal", …)` call sites: the first argument
    /// must be a registered constant, not an inline string.
    fn check_call_sites(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        for i in 0..f.tokens.len().saturating_sub(2) {
            let t = f.tok(i);
            if t.kind != TokKind::Ident
                || !PUBLISH_FNS.contains(&t.text.as_str())
                || f.is_test_line(t.line)
                || f.in_attribute(i)
            {
                continue;
            }
            if f.tok(i + 1).text == "(" && f.tok(i + 2).kind == TokKind::Str {
                out.push(Diagnostic::new(
                    &f.rel,
                    t.line,
                    self.name(),
                    format!(
                        "`{}` takes a raw string literal — name the metric via a \
                         registered constant (telemetry `names::…`) so every scrape key \
                         is declared exactly once",
                        t.text
                    ),
                ));
            }
        }
    }
}

/// `[a-z][a-z0-9_]*` — the scrape-key grammar.
fn is_snake_case(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
