//! The rule framework: diagnostics, lint context, and the registry of
//! project-invariant rules.
//!
//! Each rule is a token-pattern check over [`SourceFile`]s. Rules are
//! deliberately syntactic: the invariants they guard (panic-free data
//! plane, O(1) queue ops, live drop taxonomy, determinism sources) are
//! all expressible as "this token shape must not appear here", which a
//! hand-rolled lexer can enforce without `syn` — a hard requirement in
//! the registry-less build environment.

use crate::source::SourceFile;

mod determinism;
mod drop_accounting;
mod panic_free;
mod queue_discipline;
mod rng_draw_order;
mod telemetry_naming;

pub use determinism::Determinism;
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
    /// Rule name (the `lint: allow(<rule>)` key).
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
    /// Treat every linted file as a data-plane module (fixture mode —
    /// the golden tests exercise data-plane rules on standalone
    /// snippets).
    pub all_dataplane: bool,
    /// Fixture mode for the scope-sensitive rules: derive a file's scope
    /// from its stem (`*node*` → node/router code; every file is
    /// simulation code) instead of its workspace path, so standalone golden snippets can exercise
    /// scope-sensitive rules.
    pub fixture_scopes: bool,
}

/// The data-plane module set: the per-hop forwarding path whose
/// constant-time, never-failing contract is the paper's whole
/// performance argument (§2). Grow this list as the data plane grows.
pub const DATAPLANE_PREFIXES: &[&str] =
    &["crates/router/src/dataplane/", "crates/router/src/viper/"];

/// Individual files in the data-plane set (see [`DATAPLANE_PREFIXES`]).
pub const DATAPLANE_FILES: &[&str] = &[
    "crates/router/src/ip.rs",
    "crates/router/src/cvc.rs",
    "crates/router/src/link.rs",
    "crates/router/src/logical.rs",
    "crates/router/src/multicast.rs",
    "crates/wire/src/buf.rs",
    "crates/wire/src/alt.rs",
    "crates/sim/src/queue.rs",
    "crates/sim/src/engine/channel.rs",
    "crates/sim/src/engine/dispatch.rs",
    "crates/sim/src/engine/quiet.rs",
    "crates/directory/src/te.rs",
    "crates/simtest/src/te.rs",
];

/// Crates under `crates/` whose code never runs inside a simulation:
/// this linter. Every other crate does — the engine reaches hosts and
/// routers through `Box<dyn Node>`, and `bench` drives the simulations
/// whose output CI byte-compares — so `determinism` flags its taint
/// sources there at their own site.
pub const TOOL_CRATES: &[&str] = &["xtask"];

/// Crates holding node/router logic, where every random draw must go
/// through `Context::rng()` so the engine's seeded stream stays the only
/// one.
pub const NODE_CODE_PREFIXES: &[&str] = &[
    "crates/router/src/",
    "crates/core/src/",
    "crates/transport/src/",
];

fn stem_has(rel: &str, marker: &str) -> bool {
    let stem = rel.rsplit('/').next().unwrap_or(rel);
    let stem = stem.strip_suffix(".rs").unwrap_or(stem);
    stem.contains(marker)
}

impl Config {
    /// Whether `rel` is a data-plane module.
    pub fn is_dataplane(&self, rel: &str) -> bool {
        self.all_dataplane
            || DATAPLANE_PREFIXES.iter().any(|p| rel.starts_with(p))
            || DATAPLANE_FILES.contains(&rel)
    }

    /// Whether `rel` is code a simulation runs: any crate under
    /// `crates/` outside [`TOOL_CRATES`].
    pub fn is_sim_file(&self, rel: &str) -> bool {
        if self.fixture_scopes {
            return true;
        }
        rel.strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .is_some_and(|krate| !TOOL_CRATES.contains(&krate))
    }

    /// Whether `rel` is node/router code ([`NODE_CODE_PREFIXES`]).
    pub fn is_node_code(&self, rel: &str) -> bool {
        if self.fixture_scopes {
            return stem_has(rel, "node");
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
    /// Stable rule name — diagnostics key and `lint: allow` key.
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
        Box::new(Determinism),
        Box::new(RngDrawOrder),
    ]
}

/// Rust keywords that can directly precede a `[` without forming an
/// index expression (`for x in [..]`, `return [..]`, …). Shared by the
/// indexing detector.
pub(crate) const NON_INDEX_KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
    "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield", "await",
];
