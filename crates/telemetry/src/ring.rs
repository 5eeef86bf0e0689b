//! Bounded structured event rings.
//!
//! Each ring is a drop-oldest buffer of [`Event`]s intended for a
//! single writer (one component or worker thread), so its internal
//! mutex is uncontended in practice; the registry only locks it again
//! at snapshot time. Overflow never blocks and never grows memory: the
//! oldest event is discarded and a drop counter — exported with the
//! snapshot — records how many were lost.

use crate::names::Name;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// One structured trace event.
///
/// `seq` is a registry-global sequence number, so events from different
/// rings can be interleaved into one causal order after the fact
/// (wall-clock timestamps would make snapshots nondeterministic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Registry-global sequence number (1-based, allocation order).
    pub seq: u64,
    /// Short machine-readable kind, e.g. `gif.merge` or `queue.stall`.
    pub kind: String,
    /// Free-form detail for humans and tests.
    pub detail: String,
}

/// Shared storage behind [`EventSink`] handles.
#[derive(Debug)]
pub(crate) struct RingCore {
    capacity: usize,
    buf: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl RingCore {
    pub(crate) fn new(capacity: usize) -> Self {
        RingCore {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, event: Event) {
        let mut buf = self.buf.lock();
        if buf.len() >= self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(event);
    }

    pub(crate) fn snapshot(&self) -> RingSnapshot {
        RingSnapshot {
            dropped: self.dropped.load(Ordering::Relaxed),
            events: self.buf.lock().iter().cloned().collect(),
        }
    }
}

/// Writer handle for one event ring.
///
/// Obtained from [`crate::Registry::ring`]; handles from a disabled
/// registry discard everything without formatting it.
#[derive(Clone, Debug, Default)]
pub struct EventSink {
    pub(crate) core: Option<(Arc<RingCore>, Arc<AtomicU64>)>,
}

impl EventSink {
    /// A detached no-op sink.
    pub fn noop() -> Self {
        EventSink { core: None }
    }

    /// True when emitted events actually land somewhere.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Emits an event of `kind`, building the detail string only when
    /// enabled, so disabled telemetry skips the `format!`.
    pub fn emit_with(&self, kind: &Name, detail: impl FnOnce() -> String) {
        if let Some((ring, seq)) = &self.core {
            ring.push(Event {
                seq: seq.fetch_add(1, Ordering::Relaxed) + 1,
                kind: kind.as_str().to_string(),
                detail: detail(),
            });
        }
    }
}

/// Point-in-time view of one ring, as exported in snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RingSnapshot {
    /// Events discarded because the ring was full.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<Event>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink(capacity: usize) -> EventSink {
        EventSink {
            core: Some((
                Arc::new(RingCore::new(capacity)),
                Arc::new(AtomicU64::new(0)),
            )),
        }
    }

    #[test]
    fn ring_keeps_insertion_order() {
        let s = sink(8);
        s.emit_with(&Name::new("a"), || "1".to_string());
        s.emit_with(&Name::new("b"), || "2".to_string());
        let snap = s.core.as_ref().unwrap().0.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(
            snap.events,
            vec![
                Event {
                    seq: 1,
                    kind: "a".into(),
                    detail: "1".into()
                },
                Event {
                    seq: 2,
                    kind: "b".into(),
                    detail: "2".into()
                },
            ]
        );
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let s = sink(2);
        for detail in ["1", "2", "3"] {
            s.emit_with(&Name::new("k"), || detail.to_string());
        }
        let snap = s.core.as_ref().unwrap().0.snapshot();
        assert_eq!(snap.dropped, 1);
        let details: Vec<_> = snap.events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["2", "3"]);
    }

    #[test]
    fn noop_sink_skips_formatting() {
        let s = EventSink::noop();
        let mut called = false;
        s.emit_with(&Name::new("k"), || {
            called = true;
            String::new()
        });
        assert!(!called);
        assert!(!s.is_enabled());
    }
}
