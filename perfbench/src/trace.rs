//! In-memory spans around the benchmark's calls into each layer, and
//! their export as Chrome trace-event JSON.

use std::time::{Duration, Instant};

use rtr::json::escape;

/// One timed call: a layer boundary crossed by the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, e.g. `sexp.read_all`.
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span (the op's root span), if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Collects spans in memory; nothing is written until [`Tracer::chrome_json`].
///
/// At most `cap` spans are kept (the rest are counted in
/// [`Tracer::dropped`]), so a long traced run has bounded memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Tracer {
    /// An empty tracer keeping at most `cap` spans.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its index if it was kept.
    fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens an op's root span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        let now = Instant::now();
        self.record(name, op, None, now, now)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        let end = self.ns(Instant::now());
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end;
        }
    }

    /// Times `f` as a child span of `parent` and returns its result and
    /// duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, op, parent, start, end);
        (r, end - start)
    }

    /// The kept spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not kept because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders every kept span as a Chrome trace-event document
    /// (complete `"X"` events, microsecond timestamps), with `meta` as
    /// string-valued `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                escape(s.name),
                escape(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ns\",\"otherData\":{");
        let mut meta: Vec<(&str, String)> = meta.to_vec();
        meta.push(("dropped_spans", self.dropped.to_string()));
        let fields: Vec<String> = meta
            .iter()
            .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
            .collect();
        out.push_str(&fields.join(","));
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_parseable_chrome_json() {
        let mut t = Tracer::new(8);
        let root = t.open("op", 0);
        let (v, d) = t.time("sexp.read_all", 0, root, || 6 * 7);
        assert_eq!(v, 42);
        assert!(d >= Duration::ZERO);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns, "child inside op");
        let doc =
            rtr::json::parse(&t.chrome_json(&[("workload", "corpus".into())])).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("sexp.read_all")
        );
        assert_eq!(events[1].get("cat").and_then(|n| n.as_str()), Some("sexp"));
    }

    #[test]
    fn the_cap_bounds_memory() {
        let mut t = Tracer::new(1);
        t.time("a", 0, None, || ());
        t.time("b", 0, None, || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped(), 1);
    }
}
