//! In-memory span and counter recorder for the traced probes.
//!
//! A span is (name, start, end, parent) on one monotonic clock. Spans
//! are kept in memory and written once, as JSON lines, when the probe
//! ends. With recording off the same calls run with no span bookkeeping,
//! so the two runs differ only by the tracing itself.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span stack plus named counters.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("probe runs < 584 years")
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `by` to counter `name` (counters are kept with spans off too).
    pub fn add(&mut self, name: &str, by: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += by;
    }

    /// Nanoseconds since the tracer was created.
    pub fn elapsed_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Writes every span, then every counter, one JSON object per line.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(w, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        w.flush()
    }
}
