//! Spans recorded from outside the engines: one around every call into a
//! layer, kept in memory and written as JSONL when the workload ends.
//!
//! The tracer is also the harness's stopwatch: [`Tracer::time`] returns the
//! elapsed seconds whether or not spans are kept, so the untraced run takes
//! exactly the two clock reads it needs and the traced run adds one `Vec`
//! push per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dsps.sim_run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (0 = outside any operation); spans of
    /// one operation share it.
    pub op: u64,
}

/// Count, total time and self time of every span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their durations minus what their child spans cover.
    pub self_ns: u64,
}

/// A span that [`Tracer::open`] started and [`Tracer::close`] has yet to end.
#[derive(Debug)]
pub struct OpenSpan {
    start: Instant,
    index: Option<usize>,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span called `name`; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str) -> OpenSpan {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.open.last().copied(),
                op: self.op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        OpenSpan { start, index }
    }

    /// Close the innermost open span; returns its wall seconds.
    pub fn close(&mut self, span: OpenSpan) -> f64 {
        let end = Instant::now();
        if let Some(i) = span.index {
            self.spans[i].end_ns = (end - self.origin).as_nanos() as u64;
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(i), "spans close innermost first");
        }
        (end - span.start).as_secs_f64()
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// elapsed wall seconds. `f` receives the tracer to open child spans.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let span = self.open(name);
        let out = f(self);
        (out, self.close(span))
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals; self time is a span's duration minus the part of
    /// it its direct children cover (children never overlap: the harness
    /// is one thread).
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&covered) {
            let t = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += d;
            t.self_ns += d.saturating_sub(c);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("op", 0, 100, None, 1),
            span("dsps.sim_new", 10, 30, Some(0), 1),
            span("dsps.sim_run", 30, 90, Some(0), 1),
            span("op", 100, 150, None, 2),
            span("dsps.sim_run", 110, 150, Some(3), 2),
        ];
        let totals = t.totals();
        assert_eq!(
            totals["op"],
            SpanTotals {
                count: 2,
                total_ns: 150,
                self_ns: 20 + 10
            }
        );
        assert_eq!(totals["dsps.sim_run"].self_ns, 100);
        assert_eq!(totals["dsps.sim_new"].total_ns, 20);
    }

    #[test]
    fn nesting_and_ops_are_recorded() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let (v, secs) = t.time("outer", |t| t.time("inner", |_| 41).0 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("outer", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn a_disabled_tracer_times_without_recording() {
        let mut t = Tracer::new(false);
        let ((), secs) = t.time("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.spans().is_empty());
    }
}
