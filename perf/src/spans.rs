//! Phase spans: name, start, end, the span that caused it, and the
//! workload they belong to. Kept in memory while the benchmark runs and
//! written out once at exit (traced runs only).

use std::time::Instant;

use crate::json::Value;

/// One recorded span, times in host nanoseconds since the recorder's
/// epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Phase name (`setup.directory`, `run`, …).
    pub name: &'static str,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one workload.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Start recording for `workload` (the id every span shares).
    pub fn new(workload: &str) -> Spans {
        Spans {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under whatever span is
    /// open; returns `f`'s result and the span's duration in seconds.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Total seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time of the span at `idx`: its duration minus the part its
    /// direct children cover.
    pub fn self_secs(&self, idx: usize) -> f64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e9
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Render as the trace document written to `perf/out/`.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::object([
                    ("id", Value::from(i as u64)),
                    ("name", Value::from(s.name)),
                    ("workload", Value::from(self.workload.as_str())),
                    ("start_ns", Value::from(s.start_ns)),
                    ("end_ns", Value::from(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                    ("self_s", Value::from(self.self_secs(i))),
                ])
            })
            .collect();
        Value::Array(spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_parents_and_self_time() {
        let mut s = Spans::new("w");
        s.scope("setup", |s| {
            s.scope("setup.topology", |_| ());
            s.scope("setup.directory", |_| ());
        });
        s.scope("run", |_| ());
        let names: Vec<_> = s.spans().iter().map(|x| (x.name, x.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("setup", None),
                ("setup.topology", Some(0)),
                ("setup.directory", Some(0)),
                ("run", None)
            ]
        );
        let children = s.secs("setup.topology") + s.secs("setup.directory");
        assert!((s.self_secs(0) - (s.secs("setup") - children)).abs() < 1e-9);
        assert!(s.spans().iter().all(|x| x.end_ns >= x.start_ns));
        assert!(s.to_json().to_string().contains("\"workload\":\"w\""));
    }
}
