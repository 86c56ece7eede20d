//! `sync-discipline`: the sharded engine's synchronization invariants.
//!
//! Three checks (DESIGN.md §12):
//!
//! * **Primitive containment** — `std::sync` primitive construction
//!   (`Mutex::new`, `Barrier::new`, atomics, mpsc channels) is allowed
//!   only in the sync nucleus ([`crate::rules::SYNC_MODULE`]). Scattered
//!   ad-hoc synchronization is how conservative-window protocols rot.
//! * **No guard across a barrier wait** — inside the sync module, a
//!   `MutexGuard` obtained by `let g = ….lock()…` must not be live at a
//!   `.wait(..)` call. A shard parked on the barrier while holding a
//!   mailbox lock deadlocks every peer that needs that mailbox before
//!   it can reach the same barrier.
//! * **Mailbox lock ordering** — when mailbox locks nest, the inner
//!   index must be strictly greater than the outer (ascending-order
//!   acquisition is the classic deadlock-freedom discipline). Nested
//!   mailbox locks whose order the lexer cannot prove are flagged too:
//!   provability is part of the invariant.
//!
//! The guard-liveness model is lexical: a guard lives from its `let`
//! to the close of the enclosing block, or to an explicit `drop(g)`.
//! That over-approximates (an early `return` ends liveness too) but
//! never misses a hold-across-wait that is textually present.

use crate::lexer::TokKind;
use crate::rules::{Diagnostic, LintCtx, Rule};
use crate::source::SourceFile;

/// `std::sync` types whose `::new` is containment-checked.
const PRIMITIVES: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "Barrier",
    "Once",
    "OnceLock",
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
];

/// A lexically-live lock guard.
struct Guard {
    /// Binding names (tuple patterns bind several).
    names: Vec<String>,
    /// Brace depth at the `let`; retired when the block closes.
    depth: i64,
    /// Whether the locked expression mentions a mailbox.
    is_mailbox: bool,
    /// Literal mailbox index when one is visible (`mailboxes[3]`,
    /// `mailboxes.get(3)`).
    index: Option<u64>,
}

/// See the module docs.
pub struct SyncDiscipline;

impl Rule for SyncDiscipline {
    fn name(&self) -> &'static str {
        "sync-discipline"
    }

    fn describe(&self) -> &'static str {
        "std::sync construction only in sim/sync.rs; no lock guard live across Barrier::wait; mailbox locks acquired in ascending index order"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for f in ctx.files {
            if crate::source::is_test_location(&f.rel) {
                continue;
            }
            if ctx.cfg.is_sync_module(&f.rel) {
                self.check_guard_liveness(f, out);
            } else {
                self.check_containment(f, out);
            }
        }
    }
}

impl SyncDiscipline {
    /// Primitive-construction ban outside the sync module.
    fn check_containment(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        let n = f.code.len();
        for i in 0..n {
            if f.in_attribute(i) {
                continue;
            }
            let t = f.tok(i);
            if t.kind != TokKind::Ident || f.is_test_line(t.line) {
                continue;
            }
            let qualifies_new = |i: usize| -> bool {
                i + 3 < n
                    && f.tok(i + 1).text == ":"
                    && f.tok(i + 2).text == ":"
                    && f.tok(i + 3).text == "new"
            };
            if PRIMITIVES.contains(&t.text.as_str()) && qualifies_new(i) {
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

    /// Guard liveness + mailbox ordering inside the sync module.
    fn check_guard_liveness(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        let n = f.code.len();
        let mut depth: i64 = 0;
        let mut guards: Vec<Guard> = Vec::new();
        for i in 0..n {
            if f.in_attribute(i) {
                continue;
            }
            let t = f.tok(i);
            // Brace depth must track through test lines too.
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    continue;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                    continue;
                }
                _ => {}
            }
            if t.kind != TokKind::Ident || f.is_test_line(t.line) {
                continue;
            }
            match t.text.as_str() {
                "let" => {
                    if let Some(g) = parse_guard_let(f, i, depth) {
                        if g.is_mailbox {
                            if let Some(outer) = guards.iter().rev().find(|o| o.is_mailbox) {
                                let ordered = matches!(
                                    (outer.index, g.index),
                                    (Some(a), Some(b)) if b > a
                                );
                                if !ordered {
                                    out.push(Diagnostic::new(
                                        &f.rel,
                                        t.line,
                                        self.name(),
                                        "nested mailbox locks must be acquired in provably \
                                         ascending index order (inner literal index > outer) — \
                                         anything else risks AB/BA deadlock between shards",
                                    ));
                                }
                            }
                        }
                        guards.push(g);
                    }
                }
                "wait"
                    if i > 0
                        && f.tok(i - 1).text == "."
                        && i + 1 < n
                        && f.tok(i + 1).text == "("
                        && !guards.is_empty() =>
                {
                    let held: Vec<&str> = guards
                        .iter()
                        .flat_map(|g| g.names.iter().map(String::as_str))
                        .collect();
                    out.push(Diagnostic::new(
                        &f.rel,
                        t.line,
                        self.name(),
                        format!(
                            "`.wait(..)` while lock guard `{}` is live — a shard parked \
                             on the barrier holding a lock deadlocks every peer that \
                             needs it; drop the guard before synchronizing",
                            held.join("`, `")
                        ),
                    ));
                }
                "drop" if i + 2 < n && f.tok(i + 1).text == "(" => {
                    let name = f.tok(i + 2).text.clone();
                    guards.retain(|g| !g.names.contains(&name));
                }
                _ => {}
            }
        }
    }
}

/// Parse the `let` at code index `i`. Returns a [`Guard`] when its
/// initializer contains a `.lock(..)` call. The scan is a bounded
/// lookahead only — the main loop keeps consuming the same tokens, so
/// brace accounting stays exact.
fn parse_guard_let(f: &SourceFile, i: usize, depth: i64) -> Option<Guard> {
    let n = f.code.len();
    // Binding names: idents between `let` and the first top-level `=`,
    // before any type-annotation `:`.
    let mut names = Vec::new();
    let mut pd: i64 = 0;
    let mut seen_colon = false;
    let mut eq = None;
    for j in i + 1..(i + 64).min(n) {
        let t = f.tok(j);
        match t.text.as_str() {
            "(" | "[" => pd += 1,
            ")" | "]" => pd -= 1,
            ":" if pd == 0 => seen_colon = true,
            "=" if pd == 0 => {
                // `==`, `>=`, `<=` cannot appear before a let's `=`.
                eq = Some(j);
                break;
            }
            ";" | "{" if pd == 0 => break,
            _ => {
                if t.kind == TokKind::Ident
                    && !seen_colon
                    && !matches!(t.text.as_str(), "mut" | "ref" | "_")
                {
                    names.push(t.text.clone());
                }
            }
        }
    }
    let eq = eq?;
    // Initializer: to the `;` at zero depth (or the `{` opening an
    // `if let`/`while let` body).
    let cond_let = i > 0 && matches!(f.tok(i - 1).text.as_str(), "if" | "while");
    let mut bd: i64 = 0;
    let mut pd: i64 = 0;
    let mut has_lock = false;
    let mut is_mailbox = false;
    let mut index: Option<u64> = None;
    let mut j = eq + 1;
    while j < n {
        let t = f.tok(j);
        match t.text.as_str() {
            "(" | "[" => pd += 1,
            ")" | "]" => pd -= 1,
            "{" => {
                if bd == 0 && pd == 0 && cond_let {
                    break;
                }
                bd += 1;
            }
            "}" => bd -= 1,
            ";" if bd == 0 && pd == 0 => break,
            "lock" if t.kind == TokKind::Ident => {
                if j > 0 && f.tok(j - 1).text == "." && j + 1 < n && f.tok(j + 1).text == "(" {
                    has_lock = true;
                }
            }
            _ => {
                if t.kind == TokKind::Ident && t.text.contains("mailbox") {
                    is_mailbox = true;
                    // `mailboxes[3]` / `mailboxes.get(3)`.
                    if j + 2 < n && f.tok(j + 1).text == "[" && f.tok(j + 2).kind == TokKind::Num {
                        index = f.tok(j + 2).text.parse().ok();
                    } else if j + 3 < n
                        && f.tok(j + 1).text == "."
                        && f.tok(j + 2).text == "get"
                        && f.tok(j + 3).text == "("
                        && j + 4 < n
                        && f.tok(j + 4).kind == TokKind::Num
                    {
                        index = f.tok(j + 4).text.parse().ok();
                    }
                }
            }
        }
        j += 1;
    }
    if !has_lock || names.is_empty() {
        return None;
    }
    Some(Guard {
        names,
        depth,
        is_mailbox,
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Config;

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
    fn guard_across_wait_is_flagged() {
        let d = run_on(
            "bad_sync.rs",
            "fn shard(b: &std::sync::Barrier, m: &std::sync::Mutex<u8>) {\n\
             \x20 let g = m.lock().unwrap();\n\
             \x20 b.wait();\n\
             }\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("`g`"));
    }

    #[test]
    fn dropped_guard_before_wait_is_clean() {
        let d = run_on(
            "clean_sync.rs",
            "fn shard(b: &std::sync::Barrier, m: &std::sync::Mutex<u8>) {\n\
             \x20 let g = m.lock().unwrap();\n\
             \x20 drop(g);\n\
             \x20 b.wait();\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scoped_guard_before_wait_is_clean() {
        let d = run_on(
            "clean_sync.rs",
            "fn shard(b: &std::sync::Barrier, m: &std::sync::Mutex<u8>) {\n\
             \x20 { let g = m.lock().unwrap(); *g; }\n\
             \x20 b.wait();\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn descending_mailbox_locks_flagged() {
        let d = run_on(
            "bad_sync.rs",
            "fn xfer(mailboxes: &[std::sync::Mutex<u8>]) {\n\
             \x20 let a = mailboxes[3].lock().unwrap();\n\
             \x20 let b = mailboxes[1].lock().unwrap();\n\
             }\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("ascending"));
    }

    #[test]
    fn ascending_mailbox_locks_clean() {
        let d = run_on(
            "clean_sync.rs",
            "fn xfer(mailboxes: &[std::sync::Mutex<u8>]) {\n\
             \x20 let a = mailboxes[1].lock().unwrap();\n\
             \x20 let b = mailboxes[3].lock().unwrap();\n\
             }\n",
        );
        assert!(d.is_empty(), "{d:?}");
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
