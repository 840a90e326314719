//! The traced run's span recorder.
//!
//! Spans are kept in memory (name, start, end, parent, trace id) and written out
//! as JSON lines when the run ends.  Spans are opened and closed by the
//! benchmark around its calls into each layer's public API; a span's self time
//! is its duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Time covered by this span's children.
    child_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn self_ns(&self) -> u64 {
        self.duration_ns().saturating_sub(self.child_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_trace: u64,
}

/// Handle of an open span.
#[must_use]
pub struct SpanId(usize);

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            next_trace: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span; a span opened with no
    /// span open starts a new trace.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p].trace,
            None => {
                self.next_trace += 1;
                self.next_trace
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        let duration = span.duration_ns();
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a child of the innermost open span that ended now and lasted
    /// `duration`: time a layer spent inside a call the benchmark cannot split,
    /// as that layer's own exact-sum counter reports it.
    pub fn derived_child(&mut self, name: &'static str, duration: Duration) {
        let end_ns = self.now_ns();
        let id = self.begin(name);
        let span = &mut self.spans[id.0];
        span.start_ns = end_ns.saturating_sub(duration.as_nanos() as u64);
        self.open.pop();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        let d = span.duration_ns();
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += d;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self-time distribution per span name, in microseconds.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push(s.self_ns() as f64 / 1e3);
        }
        out
    }

    /// Summed self time of every span named `name`, in microseconds.
    pub fn self_us_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns() as f64 / 1e3)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Writes the first 100 000 spans as one JSON line each; the self-time
    /// totals the run reports always cover every span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().take(100_000) {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"trace\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.trace,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.self_ns()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(3)));
            t.derived_child("derived", Duration::from_micros(500));
        });
        let outer = &t.spans()[0];
        let inner = &t.spans()[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(inner.trace, outer.trace);
        assert!(outer.duration_ns() >= inner.duration_ns() + 2_000_000);
        assert_eq!(
            outer.self_ns(),
            outer.duration_ns() - inner.duration_ns() - 500_000
        );
        let first_trace = outer.trace;
        t.span("next", |_| ());
        assert_eq!(t.spans()[3].trace, first_trace + 1);
    }
}
