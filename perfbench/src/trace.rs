//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span is a name, a start and end on one monotonic clock, and the
//! span that caused it; spans of one point or job share its id. Spans
//! stay in memory until the run ends and are then written out as NDJSON.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use wib_core::Json;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Point or job id shared by every span of that unit of work.
    pub id: u64,
    pub name: &'static str,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `idx` and return its duration in nanoseconds.
    pub fn end(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Record a span whose start and end were measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        at: Instant,
        ns: u64,
    ) {
        let start_ns = at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            parent,
            start_ns,
            end_ns: start_ns + ns,
        });
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover. Children of one span never overlap here (the
    /// benchmark is single-threaded), so coverage is their summed
    /// duration.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let mut o = Json::obj()
                .field("id", s.id)
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns);
            if let Some(p) = s.parent {
                o = o.field("parent", p as u64);
            }
            text.push_str(&o.to_string());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let at = Instant::now();
        t.record("point", 1, None, at, 100);
        t.record("isa.load", 1, Some(0), at, 30);
        t.record("core.run", 1, Some(0), at, 50);
        let s = t.self_ns();
        assert_eq!(s["point"], 20);
        assert_eq!(s["isa.load"], 30);
        assert_eq!(s["core.run"], 50);
    }
}
