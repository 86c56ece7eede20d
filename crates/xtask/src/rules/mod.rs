//! The rule framework: diagnostics, lint context, and the registry of
//! project-invariant rules.
//!
//! Each rule is a token-pattern check over [`SourceFile`]s. Rules are
//! deliberately syntactic: the invariants they guard (no assertion
//! aborts on the data plane, O(1) queue ops, live drop taxonomy, one
//! metric namespace, one RNG stream) are all expressible as "this token
//! shape must not appear here", which a hand-rolled lexer can enforce
//! without `syn` — a hard requirement in the registry-less build
//! environment. What clippy can state (determinism, the data plane's
//! `unwrap`/`panic!`/indexing ban) lives in clippy's configuration
//! instead (DESIGN.md §7).

use crate::source::SourceFile;

mod drop_accounting;
mod panic_free;
mod queue_discipline;
mod rng_draw_order;
mod telemetry_naming;

pub use drop_accounting::DropAccounting;
pub use panic_free::PanicFree;
pub use queue_discipline::QueueDiscipline;
pub use rng_draw_order::RngDrawOrder;
pub use telemetry_naming::TelemetryNaming;

/// One CI-failing finding, rendered as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: String,
    /// Human-readable finding.
    pub msg: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(file: &str, line: u32, rule: &str, msg: impl Into<String>) -> Diagnostic {
        Diagnostic {
            file: file.to_string(),
            line,
            rule: rule.to_string(),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Fixture mode for the scope-sensitive rules: derive a file's scope
    /// from its stem (`*node*` → node/router code) and treat every file
    /// as the metric-name registry, instead of reading its workspace
    /// path, so standalone golden snippets can exercise those rules.
    pub fixture_scopes: bool,
}

/// Crates holding node/router logic, where every random draw must go
/// through `Context::rng()` so the engine's seeded stream stays the only
/// one.
pub const NODE_CODE_PREFIXES: &[&str] = &[
    "crates/router/src/",
    "crates/core/src/",
    "crates/transport/src/",
];

impl Config {
    /// Whether `rel` is node/router code ([`NODE_CODE_PREFIXES`]).
    pub fn is_node_code(&self, rel: &str) -> bool {
        if self.fixture_scopes {
            let stem = rel.rsplit('/').next().unwrap_or(rel);
            return stem.contains("node");
        }
        NODE_CODE_PREFIXES.iter().any(|p| rel.starts_with(p))
    }
}

/// Everything a rule can see: all analyzed files and the config.
pub struct LintCtx<'a> {
    /// All files being linted.
    pub files: &'a [SourceFile],
    /// Engine configuration.
    pub cfg: &'a Config,
}

/// A project-invariant rule.
pub trait Rule {
    /// Stable rule name — the diagnostics key.
    fn name(&self) -> &'static str;
    /// One-line description for `xtask lint --list`.
    fn describe(&self) -> &'static str;
    /// Run over the whole context, appending findings.
    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// The full rule registry, in reporting order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(PanicFree),
        Box::new(QueueDiscipline),
        Box::new(DropAccounting),
        Box::new(TelemetryNaming),
        Box::new(RngDrawOrder),
    ]
}
