//! A std-only span recorder.
//!
//! Spans are kept in memory while the benchmark runs and written out at
//! exit. Each span has a name, start and end (nanoseconds since the
//! recorder was created), the index of the span that caused it, and the
//! operation it belongs to. A span's *self time* is its duration minus the
//! part of its interval that its children cover; children may nest and
//! overlap, so the covered part is the union of their intervals.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span times, e.g. `core.session.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span, `None` for a top-level span.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
}

/// In-memory span recorder. A disabled recorder runs the timed closures
/// and records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder, recording only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through the
    /// recorder it receives become children of this one.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed like [`Recorder::spans`].
    #[must_use]
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self time summed per span name, in seconds.
    #[must_use]
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (span, nanos) in self.spans.iter().zip(self.self_times()) {
            *totals.entry(span.name).or_insert(0.0) += nanos as f64 * 1e-9;
        }
        totals
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `op`, `self_ns`), one span per line.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start, span.end, span.op
            );
        }
        out
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to its own.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let duration = span.end.saturating_sub(span.start);
            duration - covered(span.start, span.end, kids)
        })
        .collect()
}

/// Length of the union of `intervals` within `[start, end)`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (lo, hi) in intervals {
        let lo = lo.max(reach);
        let hi = hi.min(end);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), [70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 35, 50, Some(0)),
        ];
        // The children cover [10, 70): 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("op", 20, 60, None), span("a", 0, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn nested_spans_only_charge_direct_children() {
        let spans = [
            span("op", 0, 100, None),
            span("mid", 10, 90, Some(0)),
            span("leaf", 20, 80, Some(1)),
        ];
        assert_eq!(self_times(&spans), [20, 20, 60]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the top-level span");
    }

    #[test]
    fn recorder_nests_through_the_closure() {
        let mut recorder = Recorder::new(true);
        let value = recorder.span("op", 7, |r| r.span("inner", 7, |_| 42));
        assert_eq!(value, 42);
        let spans = recorder.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let lines = recorder.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"inner\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut recorder = Recorder::new(false);
        assert_eq!(recorder.span("op", 0, |_| 1), 1);
        assert!(recorder.spans().is_empty());
    }
}
