//! In-memory span recording for the traced run.
//!
//! A span is a named, timed interval with an optional parent and the id
//! of the request it belongs to. Spans are appended to a vector that is
//! only written out when the run ends, so recording costs two clock reads
//! and a push. Untraced runs record nothing.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in [`Trace::spans`].
    pub parent: Option<usize>,
    /// The request (or update batch) the span belongs to.
    pub request: u64,
    /// A count the span carries: bytes for codec spans, candidates for
    /// round-2 slices, transcript bytes for double-source spans.
    pub value: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

/// The span store.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result and the span index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let index = self.record(name, parent, request, start, end, 0);
        (out, index)
    }

    /// Records an interval measured by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
        value: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            value,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Sets the count carried by span `index`.
    pub fn set_value(&mut self, index: usize, value: u64) {
        self.spans[index].value = value;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of the spans named `name`, in seconds.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration().as_secs_f64())
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"value\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.value
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Trace::new();
        let ((), root) = t.span("root", None, 7, || {
            std::thread::sleep(Duration::from_millis(1));
        });
        let (v, child) = t.span("child", Some(root), 7, || 41 + 1);
        t.set_value(child, 512);
        assert_eq!(v, 42);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert!(t.spans()[root].duration() >= Duration::from_millis(1));
        assert_eq!(t.named("child").count(), 1);
        assert_eq!(t.seconds("root").len(), 1);
        let json = t.to_json_lines();
        assert_eq!(json.lines().count(), 2);
        assert!(json.contains("\"name\":\"child\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"value\":512"));
    }
}
