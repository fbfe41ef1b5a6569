//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program under test is not instrumented here: a span opens before a call
//! into a crate's public function and closes after it.  Spans stay in memory
//! and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Spans of one batch (or one request, or one write call) share this.
    batch: u32,
}

/// Totals of every span that carries one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, batch: u32) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        id
    }

    /// Closes the span and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Adds a span that the caller timed itself.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: u32,
        begin: Instant,
        duration_ns: u64,
    ) {
        let start_ns = begin.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent,
            batch,
        });
    }

    /// Appends another thread's spans; their parents are re-based.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let shift = other.origin.duration_since(self.origin).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| SpanId(p.0 + base));
            span.start_ns += shift;
            span.end_ns += shift;
            span
        }));
    }

    /// Per-name totals.  Children of one span do not overlap here (every span
    /// is opened and closed on the thread that owns the tracer), so self time
    /// is the duration minus the sum of the direct children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent.0 as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        totals
    }

    /// One JSON object: a `spans` array of `[name, start_ns, end_ns, parent, batch]`
    /// rows (parent is an index into the array, or -1).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"batch\"],"
        )?;
        writeln!(out, "\"spans\": [")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p.0 as i64);
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}]{}",
                span.name, span.start_ns, span.end_ns, parent, span.batch, comma
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("root", None, 0);
        let child = tracer.begin("child", Some(root), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.end(child);
        tracer.end(root);
        let totals = tracer.totals();
        let (root, child) = (totals["root"], totals["child"]);
        assert_eq!(root.self_ns, root.total_ns - child.total_ns);
        assert_eq!(child.self_ns, child.total_ns);
        assert!(child.total_ns >= 2_000_000);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::new();
        main.record("a", None, 0, Instant::now(), 5);
        let mut other = Tracer::new();
        let root = other.begin("root", None, 1);
        other.record("leaf", Some(root), 1, Instant::now(), 0);
        other.end(root);
        main.absorb(other);
        let totals = main.totals();
        assert_eq!(totals.values().map(|t| t.count).sum::<u64>(), 3);
        assert_eq!(
            totals["root"].self_ns,
            totals["root"].total_ns - totals["leaf"].total_ns
        );
    }
}
