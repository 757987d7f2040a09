//! In-memory span recording for the traced run.
//!
//! A span is one call across a layer boundary: its name, start and end
//! on a monotonic clock, the span that caused it, and the request (input
//! index) it served. Spans are kept in memory and written out once the
//! run ends, so recording costs two clock reads and a push.
//!
//! A layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover — the union of the children, so two
//! children that overlap (work on another thread) are not subtracted
//! twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `proc.handle`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id: the index of the input being served.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan(usize);

/// A single-threaded span recorder with a stack of open spans.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> OpenSpan {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        OpenSpan(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: OpenSpan) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost-first");
        self.spans[span.0].end_ns = self.now_ns();
    }

    /// Closes `span` and forgets it (a call that turned out to do no
    /// work of the layer, such as a checkpoint poll that took none).
    pub fn discard(&mut self, span: OpenSpan) {
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost-first");
        assert_eq!(
            span.0 + 1,
            self.spans.len(),
            "a discarded span has no children"
        );
        self.spans.pop();
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the first `limit` spans as tab-separated lines:
    /// `index name start_ns end_ns parent request` (parent `-` for none).
    pub fn write_tsv(&self, out: &mut impl Write, limit: usize) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Length of the union of half-open intervals `[start, end)`.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - union_ns(kids).min(s.duration_ns()))
        .collect()
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in ns (`None` when no span was recorded).
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns as f64 / self.count as f64)
    }

    /// Mean self time in ns (`None` when no span was recorded).
    pub fn mean_self_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.self_ns as f64 / self.count as f64)
    }
}

/// Totals per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}
