//! `panic-free-dataplane`: the per-hop forwarding path must not be able
//! to panic. A `panic!` in packet-carried-state handling is an
//! architecture violation, not a style nit — a router must survive
//! arbitrary malformed forwarding state gracefully (cf. Slick Packets),
//! and Sirpent's O(1) switch decision leaves no room for "can't happen"
//! branches that abort the process.
//!
//! A data-plane module says so itself, with an inner attribute denying
//! `clippy::panic` beside `unwrap_used`, `expect_used`, the rest of the
//! `panic!` family and `indexing_slicing`; clippy enforces those, and a
//! `mod.rs`'s attribute covers its submodules. Clippy has no lint for
//! the one arm left, `assert!`/`assert_eq!`/`assert_ne!`, that spares
//! `debug_assert!` (which expands to `assert!`), so this rule keeps it
//! over the same files: a marked file, or any file under the directory
//! of a marked `mod.rs`. `debug_assert*` compiles out of release builds,
//! so it documents an invariant without putting a panic on the shipped
//! forwarding path.

use crate::rules::{Diagnostic, LintCtx, Rule};
use crate::source::{is_test_location, SourceFile};

/// See the module docs.
pub struct PanicFree;

impl Rule for PanicFree {
    fn name(&self) -> &'static str {
        "panic-free-dataplane"
    }

    fn describe(&self) -> &'static str {
        "no assert!/assert_eq!/assert_ne! outside #[cfg(test)] in modules that deny clippy::panic"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        let marked: Vec<&str> = ctx
            .files
            .iter()
            .filter(|f| denies_panic(f))
            .map(|f| f.rel.as_str())
            .collect();
        let dirs: Vec<String> = marked
            .iter()
            .filter_map(|rel| rel.strip_suffix("/mod.rs"))
            .map(|dir| format!("{dir}/"))
            .collect();
        for f in ctx.files {
            let in_scope =
                marked.contains(&f.rel.as_str()) || dirs.iter().any(|d| f.rel.starts_with(d));
            if !in_scope || is_test_location(&f.rel) {
                continue;
            }
            for i in 0..f.tokens.len().saturating_sub(1) {
                let t = f.tok(i);
                if matches!(t.text.as_str(), "assert" | "assert_eq" | "assert_ne")
                    && f.tok(i + 1).text == "!"
                    && !f.is_test_line(t.line)
                {
                    out.push(Diagnostic::new(
                        &f.rel,
                        t.line,
                        self.name(),
                        format!(
                            "`{}!` aborts the data plane in release — handle the state as a \
                             drop (DropReason), or state the invariant with `debug_{}!`",
                            t.text, t.text
                        ),
                    ));
                }
            }
        }
    }
}

/// Whether `f` opens with an inner attribute that denies (or forbids)
/// `clippy::panic`: the data-plane marker.
fn denies_panic(f: &SourceFile) -> bool {
    let (mut inner, mut denying) = (false, false);
    for i in 0..f.tokens.len() {
        if !f.in_attribute(i) {
            return false;
        }
        match f.tok(i).text.as_str() {
            "#" => {
                inner = f.tokens.len() > i + 1 && f.tok(i + 1).text == "!";
                denying = false;
            }
            "deny" | "forbid" => denying = true,
            "panic" if inner && denying && i >= 3 && f.tok(i - 3).text == "clippy" => return true,
            _ => {}
        }
    }
    false
}
