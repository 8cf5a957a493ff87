//! In-memory span recorder for the benchmark's own calls into each
//! layer, with Chrome-trace export and per-layer self time.
//!
//! Every call the benchmark times goes through [`Tracer::span`] in both
//! modes, so the traced and untraced runs make the same calls in the
//! same order. With tracing off a span only reads the clock twice; with
//! it on, the span is also kept (name, start, end, parent, group) and
//! written out when the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// `<layer>.<call>`, e.g. `sim.run`.
    pub name: &'static str,
    /// The cell, serving run or kernel this span belongs to.
    pub group: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the last `.`.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times calls and, when enabled, records them as spans.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans only if `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` as a span named `name` in `group` and returns its result
    /// with its duration. Spans opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        if !self.enabled {
            let t = Instant::now();
            let r = f(self);
            return (r, t.elapsed());
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            name,
            group,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        let s = &mut self.spans[id as usize];
        s.start_ns = nanos(start - self.origin);
        s.end_ns = nanos(end - self.origin);
        (r, end - start)
    }

    /// Spans recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans recorded since index `from` (e.g. one pass's spans).
    #[must_use]
    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("run shorter than 584 years")
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part its children cover, summed by layer. Over a set of whole span
/// trees the self times add up to the roots' durations.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let first = spans.first().map_or(0, |s| s.id);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first)) {
            if let Some(c) = child_ns.get_mut(p as usize) {
                *c += s.dur_ns();
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.dur_ns() - c;
    }
    out
}

/// Total duration (ns) and count of the spans called `name`.
#[must_use]
pub fn total_of(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
}

/// Renders spans as Chrome-trace JSON (`traceEvents` of complete `X`
/// events, microsecond timestamps), the format `sbrp_gpu_sim::timeline`
/// exports, so both load in Perfetto or `chrome://tracing`.
#[must_use]
pub fn to_chrome_json(spans: &[Span], label: &str) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let _ = writeln!(
        out,
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{label}\"}}}}{}",
        if spans.is_empty() { "" } else { "," }
    );
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\
             \"cat\":\"{}\",\"args\":{{\"id\":{},\"parent\":{parent},\"group\":{}}}}}{comma}",
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.name,
            s.layer(),
            s.id,
            s.group,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root() {
        let mut tr = Tracer::new(true);
        tr.span("bench.pass", 0, |tr| {
            tr.span("sim.run", 0, |tr| {
                tr.span("workloads.verify", 0, |_| std::hint::black_box(1 + 1));
            });
            tr.span("lint.lint_all", 1, |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let total: u64 = self_time_by_layer(spans).values().sum();
        assert_eq!(total, spans[0].dur_ns());
        let json = to_chrome_json(spans, "t");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }

    #[test]
    fn untraced_spans_time_but_do_not_record() {
        let mut tr = Tracer::new(false);
        let (v, _) = tr.span("sim.run", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(tr.spans().is_empty());
    }
}
