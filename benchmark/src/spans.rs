//! Spans recorded by the benchmark around its own calls into the
//! program: name, start, end, the span that caused it and the operation
//! it belongs to. Kept in memory, written out when the run ends.

use std::time::Instant;

/// One timed interval, in nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if the benchmark made this call
    /// from inside another recorded one.
    pub parent: Option<usize>,
    /// Operation id: spans of one query share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when tracing is on; a disabled recorder drops them, so
/// the untraced and the traced pass run the same code.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Records `[start, end]` and returns its index for use as a parent
    /// (`None` while disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children (two client threads under one pass) are
/// counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times per span name, ascending by name.
fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut totals: std::collections::BTreeMap<&'static str, (u64, usize)> = Default::default();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += self_ns;
        entry.1 += 1;
    }
    totals.into_iter().map(|(n, (t, c))| (n, t, c)).collect()
}

/// Median duration (µs) of the spans called `name`; 0 when there are
/// none.
pub fn p50_us(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    crate::stats::median(&durations)
}

/// The span file: one JSON object with the spans and the per-name self
/// time totals.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"self_time\":[");
    for (i, (name, total, count)) in self_time_by_name(spans).into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{name}\",\"self_ns\":{total},\"spans\":{count}}}"
        ));
    }
    out.push_str("],\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn children_are_subtracted_from_their_parent_only() {
        let spans = [
            span("pass", 0, 100, None),
            span("op", 10, 60, Some(0)),
            span("wait", 20, 50, Some(1)),
        ];
        // pass: 100 − 50 (op); op: 50 − 30 (wait); the grandchild does not
        // count against the pass a second time.
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("pass", 0, 100, None),
            span("client0", 10, 70, Some(0)),
            span("client1", 40, 90, Some(0)),
            span("client1", 45, 50, Some(0)),
        ];
        // Union of children = [10, 90] = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("op", 50, 100, None),
            span("early", 0, 60, Some(0)),
            span("late", 90, 500, Some(0)),
            span("outside", 200, 300, Some(0)),
        ];
        // Covered: [50, 60] + [90, 100] = 20; never negative.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn zero_length_spans_are_harmless() {
        let spans = [
            span("op", 10, 10, None),
            span("instant", 10, 10, Some(0)),
            span("op", 20, 30, None),
            span("instant", 25, 25, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![0, 0, 10, 0]);
    }

    #[test]
    fn full_coverage_leaves_no_self_time() {
        let spans = [
            span("op", 0, 30, None),
            span("a", 0, 10, Some(0)),
            span("b", 10, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name, vec![("a", 10, 1), ("b", 20, 1), ("op", 0, 1)]);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let t = Instant::now();
        assert_eq!(rec.record("op", t, t, None, 1), None);
        assert!(rec.spans().is_empty());
        rec.set_enabled(true);
        let id = rec.record("op", t, t, None, 1);
        assert_eq!(id, Some(0));
        assert_eq!(rec.record("child", t, t, id, 1), Some(1));
        assert_eq!(rec.spans()[1].parent, Some(0));
    }

    #[test]
    fn span_file_lists_spans_and_totals() {
        let spans = [span("op", 0, 30, None), span("a", 5, 10, Some(0))];
        let json = to_json("demo", &spans);
        assert!(json.starts_with("{\"workload\":\"demo\""));
        assert!(json.contains("{\"name\":\"op\",\"self_ns\":25,\"spans\":1}"));
        assert!(
            json.contains("{\"id\":1,\"name\":\"a\",\"start\":5,\"end\":10,\"parent\":0,\"op\":0}")
        );
        assert!(json.contains("\"parent\":null"));
    }
}
