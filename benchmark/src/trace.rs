//! Harness-side spans: the benchmark records one span around each call
//! it makes into a layer (name, start, end, parent), keeps them in
//! memory and hands them back when the run ends. No span lives inside a
//! product crate.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the tracer was
/// created; `parent` indexes the tracer's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or step name.
    pub name: String,
    /// Start offset in nanoseconds.
    pub start_ns: u64,
    /// End offset in nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. A disabled tracer runs the
/// wrapped calls and records nothing, so traced and untraced runs share
/// one code path.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`, nested under whichever
    /// span is open.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span name: each span's duration minus the part its
/// direct children cover, summed over spans of the same name.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (s, c) in spans.iter().zip(covered) {
        *out.entry(s.name.clone()).or_default() += s.duration_ns().saturating_sub(c);
    }
    out
}

/// Total duration per span name.
pub fn durations_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += s.duration_ns();
    }
    out
}

/// Spans as JSON rows `{id, run, name, start_ns, end_ns, parent}`.
pub fn spans_to_json(spans: &[Span], run: &str) -> Vec<Value> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Value::obj()
                .with("id", id)
                .with("run", run)
                .with("name", s.name.as_str())
                .with("start_ns", s.start_ns)
                .with("end_ns", s.end_ns)
                .with("parent", s.parent.map_or(Value::Null, Value::from))
        })
        .collect()
}

/// Reads spans back from [`spans_to_json`] rows.
pub fn spans_from_json(rows: &[Value]) -> Option<Vec<Span>> {
    rows.iter()
        .map(|r| {
            Some(Span {
                name: r.get("name")?.as_str()?.to_string(),
                start_ns: r.get("start_ns")?.as_u64()?,
                end_ns: r.get("end_ns")?.as_u64()?,
                parent: match r.get("parent")? {
                    Value::Null => None,
                    v => Some(usize::try_from(v.as_u64()?).ok()?),
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("run", 0, 100, None),
            span("build", 10, 40, Some(0)),
            span("connect", 15, 25, Some(1)),
            span("build", 50, 70, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own["run"], 50);
        assert_eq!(own["build"], 40);
        assert_eq!(own["connect"], 10);
        assert_eq!(durations_ns(&spans)["build"], 50);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_json() {
        let spans = vec![span("run", 0, 9, None), span("build", 1, 4, Some(0))];
        let rows = spans_to_json(&spans, "tcp_chain#0");
        assert_eq!(spans_from_json(&rows), Some(spans));
    }
}
