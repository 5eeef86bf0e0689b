//! Hierarchical phase spans.
//!
//! A [`Span`] times one phase of a reconfiguration run. Spans are named
//! with dotted paths (`phase2.allocation.cram`); the exporter folds the
//! flat path → stat map into a tree, so nesting is expressed in the
//! name rather than in thread-local ambient state — deterministic even
//! when phases run on worker threads.
//!
//! Timing is recorded once, when the span ends (explicit
//! [`Span::finish`] or drop), with a single short-lived lock on the
//! registry's span table; entering a span on the hot path costs one
//! `Instant::now()` and no allocation for a fixed [`Name`], and
//! finishing one whose path is already in the table allocates nothing.
//! Spans from a disabled registry skip even that.

use crate::names::Name;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Flat span-path → stat table shared with the registry.
pub(crate) type SpanTable = Mutex<BTreeMap<String, SpanStat>>;

/// Accumulated timing for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Total wall time spent inside the span, in nanoseconds.
    pub wall_nanos: u64,
    /// Number of times the span was entered and finished.
    pub count: u64,
}

/// An in-flight phase timer; records into the registry when it ends.
#[derive(Debug, Default)]
pub struct Span {
    live: Option<(Arc<SpanTable>, Name, Instant)>,
}

impl Span {
    /// Starts timing `path` (dotted, e.g. [`crate::names::PHASE1_GATHERING`])
    /// against `registry`. Returns a no-op span when the registry is
    /// disabled.
    pub fn enter(registry: &crate::Registry, path: &Name) -> Span {
        Span {
            live: registry
                .span_table()
                .map(|table| (table, path.clone(), Instant::now())),
        }
    }

    /// A detached no-op span.
    pub fn noop() -> Span {
        Span { live: None }
    }

    /// True when this span will record on finish.
    pub fn is_enabled(&self) -> bool {
        self.live.is_some()
    }

    /// The dotted path being timed, if enabled.
    pub fn path(&self) -> Option<&str> {
        self.live.as_ref().map(|(_, p, _)| p.as_str())
    }

    /// Ends the span now, recording its wall time. Dropping the span
    /// does the same; `finish` just makes the end point explicit.
    pub fn finish(mut self) {
        self.record();
    }

    fn record(&mut self) {
        if let Some((table, path, start)) = self.live.take() {
            let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let add = |stat: &mut SpanStat| {
                stat.wall_nanos = stat.wall_nanos.saturating_add(elapsed);
                stat.count += 1;
            };
            let mut table = table.lock();
            // Probe first, so a span that has run before allocates no key.
            if let Some(stat) = table.get_mut(path.as_str()) {
                add(stat);
            } else {
                add(table.entry(path.as_str().to_string()).or_default());
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// One node of the folded span tree (see [`crate::Snapshot::span_tree`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanNode {
    /// Stats recorded directly at this path (zero for pure ancestors).
    pub stat: SpanStat,
    /// Child spans keyed by their next path segment.
    pub children: BTreeMap<String, SpanNode>,
}

/// Folds a flat `path → stat` map into a tree by splitting paths on
/// `.`. Intermediate nodes that were never entered themselves get a
/// zero [`SpanStat`].
pub(crate) fn span_tree(flat: &BTreeMap<String, SpanStat>) -> SpanNode {
    let mut root = SpanNode::default();
    for (path, stat) in flat {
        let mut node = &mut root;
        for segment in path.split('.') {
            node = node.children.entry(segment.to_string()).or_default();
        }
        node.stat = *stat;
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop_and_finish() {
        let reg = crate::Registry::new();
        {
            let s = Span::enter(&reg, &Name::new("a.b"));
            assert!(s.is_enabled());
            assert_eq!(s.path(), Some("a.b"));
            s.finish();
        }
        {
            let _s = Span::enter(&reg, &Name::new("a.b"));
        }
        let snap = reg.snapshot();
        let stat = snap.spans.get("a.b").copied().unwrap_or_default();
        assert_eq!(stat.count, 2);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let reg = crate::Registry::disabled();
        let s = Span::enter(&reg, &Name::new("x"));
        assert!(!s.is_enabled());
        assert_eq!(s.path(), None);
        drop(s);
        assert!(reg.snapshot().spans.is_empty());
    }

    #[test]
    fn tree_folds_dotted_paths() {
        let mut flat = BTreeMap::new();
        flat.insert(
            "a".to_string(),
            SpanStat {
                wall_nanos: 5,
                count: 1,
            },
        );
        flat.insert(
            "a.b.c".to_string(),
            SpanStat {
                wall_nanos: 2,
                count: 3,
            },
        );
        let tree = span_tree(&flat);
        let a = tree.children.get("a").unwrap();
        assert_eq!(a.stat.count, 1);
        let b = a.children.get("b").unwrap();
        assert_eq!(b.stat, SpanStat::default());
        assert_eq!(b.children.get("c").unwrap().stat.wall_nanos, 2);
    }
}
