//! `queue-discipline`: O(n) head operations on growable buffers are
//! forbidden in product code. `Vec::remove(0)` / `insert(0, ..)`
//! memmove the whole queue on every service — exactly the regression
//! class the `VecDeque::pop_front` migration removed; this rule keeps it
//! from creeping back. It covers all non-test code under `crates/`: a
//! queue outside the data plane today is one refactor away from it.

use crate::rules::{Diagnostic, LintCtx, Rule};
use crate::source::{is_test_location, SourceFile};

/// See the module docs.
pub struct QueueDiscipline;

impl Rule for QueueDiscipline {
    fn name(&self) -> &'static str {
        "queue-discipline"
    }

    fn describe(&self) -> &'static str {
        "no O(n) head ops (remove(0)/insert(0, ..)/swap_remove(0)) in non-test code under crates/"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for f in ctx.files {
            if f.rel.starts_with("crates/") && !is_test_location(&f.rel) {
                self.check_file(f, out);
            }
        }
    }
}

impl QueueDiscipline {
    fn check_file(&self, f: &SourceFile, out: &mut Vec<Diagnostic>) {
        // Pattern: `.` <method> `(` `0` <terminator>
        for i in 2..f.tokens.len() {
            if f.in_attribute(i) {
                continue;
            }
            let t = f.tok(i);
            if f.is_test_line(t.line) {
                continue;
            }
            let method = t.text.as_str();
            let terminator = match method {
                "remove" | "swap_remove" => ")",
                "insert" => ",",
                _ => continue,
            };
            if f.tok(i - 1).text != "." {
                continue;
            }
            let open = i + 1;
            let zero = i + 2;
            let term = i + 3;
            if term >= f.tokens.len()
                || f.tok(open).text != "("
                || f.tok(zero).text != "0"
                || f.tok(term).text != terminator
            {
                continue;
            }
            out.push(Diagnostic::new(
                &f.rel,
                t.line,
                self.name(),
                format!(
                    "`.{method}(0{})` is O(queue depth) — use a VecDeque \
                     (`pop_front`/`push_front`) so service stays O(1)",
                    if terminator == "," { ", .." } else { "" }
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Config;

    #[test]
    fn scope_is_non_test_code_under_crates() {
        let src = "fn f(q: &mut Vec<u8>) { q.remove(0); }\n\
                   #[cfg(test)]\nmod tests { fn t(q: &mut Vec<u8>) { q.remove(0); } }\n";
        let files: Vec<SourceFile> = [
            "crates/bench/src/exp/e4.rs",
            "crates/directory/src/te.rs",
            "crates/xtask/src/lib.rs",
            "crates/sim/tests/queue.rs",
            "crates/sim/src/engine/tests.rs",
            "examples/quickstart.rs",
            "shims/rand/src/lib.rs",
        ]
        .iter()
        .map(|rel| SourceFile::analyze(rel.to_string(), src))
        .collect();
        let cfg = Config::default();
        let mut out = Vec::new();
        QueueDiscipline.check(
            &LintCtx {
                files: &files,
                cfg: &cfg,
            },
            &mut out,
        );
        let flagged: Vec<(&str, u32)> = out.iter().map(|d| (d.file.as_str(), d.line)).collect();
        assert_eq!(
            flagged,
            [
                ("crates/bench/src/exp/e4.rs", 1),
                ("crates/directory/src/te.rs", 1),
                ("crates/xtask/src/lib.rs", 1),
            ]
        );
    }
}
