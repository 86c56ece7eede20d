//! `sync-discipline`: `std::sync` primitives are constructed only in the
//! sync nucleus ([`crate::rules::SYNC_MODULE`]).
//!
//! Scattered ad-hoc synchronization is how conservative-window protocols
//! rot, so `Mutex::new`, `Barrier::new`, atomics and `mpsc` channels are
//! banned everywhere else (DESIGN.md §12). Inside the nucleus there is
//! nothing left for a lexer to police: its one lock lives in a private
//! `Mailbox` type whose methods hold it for one operation and return no
//! guard, so "no guard across `Barrier::wait`" and "no nested mailbox
//! locks" are properties of that type, not of a token pattern.

use crate::lexer::TokKind;
use crate::rules::{Diagnostic, LintCtx, Rule};

/// `std::sync` types whose `::new` is containment-checked, beside every
/// `Atomic*`.
const PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "Once", "OnceLock"];

/// See the module docs.
pub struct SyncDiscipline;

impl Rule for SyncDiscipline {
    fn name(&self) -> &'static str {
        "sync-discipline"
    }

    fn describe(&self) -> &'static str {
        "std::sync primitives (Mutex, Barrier, atomics, mpsc) are constructed only in sim/sync.rs"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for f in ctx.files {
            if crate::source::is_test_location(&f.rel) || ctx.cfg.is_sync_module(&f.rel) {
                continue;
            }
            let n = f.code.len();
            for i in 0..n {
                let t = f.tok(i);
                if f.in_attribute(i) || t.kind != TokKind::Ident || f.is_test_line(t.line) {
                    continue;
                }
                let primitive =
                    PRIMITIVES.contains(&t.text.as_str()) || t.text.starts_with("Atomic");
                if primitive
                    && i + 3 < n
                    && f.tok(i + 1).text == ":"
                    && f.tok(i + 2).text == ":"
                    && f.tok(i + 3).text == "new"
                {
                    out.push(Diagnostic::new(
                        &f.rel,
                        t.line,
                        self.name(),
                        format!(
                            "`{}::new` outside sim/sync.rs — all std::sync primitives live in \
                             the sync nucleus so the window protocol stays auditable in one file",
                            t.text
                        ),
                    ));
                }
                if matches!(t.text.as_str(), "channel" | "sync_channel")
                    && i >= 3
                    && f.tok(i - 3).text == "mpsc"
                {
                    out.push(Diagnostic::new(
                        &f.rel,
                        t.line,
                        self.name(),
                        "`mpsc` channels outside sim/sync.rs — cross-shard transfer goes \
                         through the mailbox protocol",
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Config;
    use crate::source::SourceFile;

    fn run_on(rel: &str, src: &str) -> Vec<Diagnostic> {
        let files = vec![SourceFile::analyze(rel.to_string(), src)];
        let cfg = Config {
            fixture_scopes: true,
            ..Config::default()
        };
        let ctx = LintCtx {
            files: &files,
            cfg: &cfg,
        };
        let mut out = Vec::new();
        SyncDiscipline.check(&ctx, &mut out);
        out
    }

    #[test]
    fn construction_outside_sync_module_flagged() {
        let d = run_on(
            "other.rs",
            "fn f() { let m = std::sync::Mutex::new(0u8); }\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("Mutex::new"));
    }
}
