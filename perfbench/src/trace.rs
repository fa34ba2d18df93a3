//! In-memory spans for the traced run, written out as one file at exit.
//!
//! A span has a name, start and end (nanoseconds since the tracer was
//! made), the span that was open when it began (its parent) and the id
//! of the operation it belongs to. A disabled tracer records nothing and
//! costs one branch per call.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span, or [`Span::NONE`] when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span(usize);

impl Span {
    const NONE: Span = Span(usize::MAX);
}

struct Record {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Record>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Start recording (used after an untraced phase).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Span {
        if !self.enabled {
            return Span::NONE;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Record {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: 0,
        });
        self.open.push(idx);
        Span(idx)
    }

    /// Close `span` (and any span opened inside it and left open).
    pub fn end(&mut self, span: Span) {
        if span == Span::NONE {
            return;
        }
        let end_ns = self.now_ns();
        while let Some(idx) = self.open.pop() {
            self.spans[idx].end_ns = end_ns;
            if idx == span.0 {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn wrap<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, op);
        let out = f();
        self.end(span);
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count, total time and self time (total minus the
    /// time its direct children cover), in seconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total as f64 * 1e-9;
            e.2 += total.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Every span plus the per-name summary, as one JSON document.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut o = Json::obj();
                o.set("id", id)
                    .set("name", s.name)
                    .set("op", s.op)
                    .set("parent", s.parent)
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns);
                o
            })
            .collect::<Vec<_>>();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total_s, self_s))| {
                let mut o = Json::obj();
                o.set("name", name)
                    .set("count", count)
                    .set("total_s", total_s)
                    .set("self_s", self_s);
                o
            })
            .collect::<Vec<_>>();
        let mut doc = Json::obj();
        doc.set("summary", summary).set("spans", spans);
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 7);
        t.wrap("inner", 7, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(outer);
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, 7);
        let s = t.summary();
        let (_, outer_total, outer_self) = s["outer"];
        let (_, inner_total, _) = s["inner"];
        assert!(inner_total >= 0.005);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", 0);
        t.end(s);
        assert_eq!(t.len(), 0);
    }
}
