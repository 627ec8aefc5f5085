//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! Spans are kept in a `Vec` and written out once, at exit, in Chrome
//! trace-event format. With the tracer off, [`Tracer::time`] is two
//! `Instant` reads and nothing else, so the untraced end-to-end numbers
//! carry no span cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one pass share its number; probes and set-up use 0.
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        let spans = if on { Vec::with_capacity(1 << 16) } else { Vec::new() };
        Tracer { origin: Instant::now(), on, spans, open: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under, until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, pass: u32) {
        if self.on {
            let start_ns = self.now_ns();
            let parent = self.open.last().copied();
            self.open.push(self.spans.len());
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, pass });
        }
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.on {
            let end_ns = self.now_ns();
            let id = self.open.pop().expect("exit without a matching enter");
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Runs `f` and returns its result with its wall time in seconds; the
    /// span is stored only after the clock has stopped.
    pub fn time<T>(&mut self, name: &'static str, pass: u32, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        if self.on {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            let end_ns = end.duration_since(self.origin).as_nanos() as u64;
            let parent = self.open.last().copied();
            self.spans.push(Span { name, start_ns, end_ns, parent, pass });
        }
        (result, end.duration_since(start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time of every span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let self_ns = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let t = by_name.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += own;
        }
        by_name
    }

    /// The spans as a Chrome trace-event array of complete (`"X"`) events.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 16);
        out.push('[');
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n  {{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"pass\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.pass
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]\n");
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(id);
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by_key(|&k| spans[k].start_ns);
            let mut covered = 0;
            let mut upto = s.start_ns;
            for &k in kids.iter() {
                let lo = spans[k].start_ns.max(upto);
                let hi = spans[k].end_ns.min(s.end_ns);
                if hi > lo {
                    covered += hi - lo;
                    upto = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use locusroute::obs::export::validate_json;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, pass: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 12, 30, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 50, 120, Some(0)),
        ];
        // Covered: 10..60 and 60..100.
        assert_eq!(self_times(&spans)[0], 10);
    }

    #[test]
    fn tracer_nests_timed_calls_under_the_open_span() {
        let mut t = Tracer::new(true);
        t.enter("pass", 7);
        let (v, secs) = t.time("op", 7, || 42);
        t.exit();
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent), ("pass", None));
        assert_eq!((s[1].name, s[1].parent, s[1].pass), ("op", Some(0), 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let totals = t.totals();
        assert_eq!(totals["pass"].self_ns, s[0].duration_ns() - s[1].duration_ns());
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("pass", 1);
        let _ = t.time("op", 1, || ());
        t.exit();
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = Tracer::new(true);
        validate_json(&t.chrome_json()).unwrap();
        t.enter("pass", 1);
        let _ = t.time("router.seq_run.bnre", 1, || ());
        t.exit();
        let json = t.chrome_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"parent\":0"));
    }
}
