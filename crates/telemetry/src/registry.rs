//! The registry: named instruments, spans and rings behind one handle.
//!
//! A [`Registry`] is a cheap clonable handle (`Arc` inside). Looking an
//! instrument up by name takes a short registry lock; the returned
//! handle then records lock-free, so callers register once and record
//! many times. [`Registry::disabled`] produces a registry whose handles
//! are all no-ops behind the identical API — the zero-cost-off switch
//! used by every instrumented greenps code path.

use crate::json::JsonValue;
use crate::metrics::{Counter, Gauge, Histogram, HistogramCore, HistogramSnapshot};
use crate::names::Name;
use crate::ring::{EventSink, RingCore, RingSnapshot, DEFAULT_RING_CAPACITY};
use crate::span::{span_tree, SpanNode, SpanStat, SpanTable};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Inner {
    /// Global event sequence shared by every ring (causal interleave).
    seq: Arc<AtomicU64>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCore>>>,
    spans: Arc<SpanTable>,
    rings: Mutex<BTreeMap<String, Arc<RingCore>>>,
}

/// Handle to a run's telemetry state; clone freely, clones share state.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Registry {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        Registry {
            inner: Some(Arc::new(Inner {
                seq: Arc::new(AtomicU64::new(0)),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                spans: Arc::new(Mutex::new(BTreeMap::new())),
                rings: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Creates a disabled registry: every handle it yields is a no-op
    /// and [`Registry::snapshot`] is empty. This is also the `Default`.
    pub fn disabled() -> Self {
        Registry { inner: None }
    }

    /// True when instruments from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Gets or creates the counter `name`.
    pub fn counter(&self, name: &Name) -> Counter {
        Counter(
            self.inner
                .as_ref()
                .map(|inner| get_or_insert(&inner.counters, name, || AtomicU64::new(0))),
        )
    }

    /// Gets or creates the gauge `name`.
    pub fn gauge(&self, name: &Name) -> Gauge {
        Gauge(
            self.inner
                .as_ref()
                .map(|inner| get_or_insert(&inner.gauges, name, || AtomicU64::new(0))),
        )
    }

    /// Gets or creates the histogram `name`.
    pub fn histogram(&self, name: &Name) -> Histogram {
        Histogram(
            self.inner
                .as_ref()
                .map(|inner| get_or_insert(&inner.histograms, name, HistogramCore::new)),
        )
    }

    /// Gets or creates the event ring `name`, bounded at
    /// [`DEFAULT_RING_CAPACITY`] events.
    pub fn ring(&self, name: &Name) -> EventSink {
        EventSink {
            core: self.inner.as_ref().map(|inner| {
                let ring =
                    get_or_insert(&inner.rings, name, || RingCore::new(DEFAULT_RING_CAPACITY));
                (ring, Arc::clone(&inner.seq))
            }),
        }
    }

    /// The shared span table, for [`crate::Span`] only.
    pub(crate) fn span_table(&self) -> Option<Arc<SpanTable>> {
        self.inner.as_ref().map(|inner| Arc::clone(&inner.spans))
    }

    /// Captures a point-in-time snapshot of every instrument. Disabled
    /// registries snapshot empty.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        Snapshot {
            counters: inner
                .counters
                .lock()
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .lock()
                .iter()
                .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .lock()
                .iter()
                .map(|(name, core)| (name.clone(), core.snapshot()))
                .collect(),
            spans: inner.spans.lock().clone(),
            rings: inner
                .rings
                .lock()
                .iter()
                .map(|(name, ring)| (name.clone(), ring.snapshot()))
                .collect(),
        }
    }
}

/// The instrument registered under `name`, created by `make` on first
/// use. A hit allocates nothing: the key is copied only on a miss.
fn get_or_insert<T>(
    table: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &Name,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut table = table.lock();
    if let Some(cell) = table.get(name.as_str()) {
        return Arc::clone(cell);
    }
    Arc::clone(
        table
            .entry(name.as_str().to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

/// A point-in-time view of a whole registry, ready for export.
///
/// Every collection is a `BTreeMap`, so iteration — and therefore the
/// JSON output built from it ([`Snapshot::to_json`]) — is
/// deterministically ordered.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Flat span stats by dotted path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Event-ring snapshots by ring name.
    pub rings: BTreeMap<String, RingSnapshot>,
}

impl Snapshot {
    /// Folds the flat span paths into a tree (see [`SpanNode`]).
    pub fn span_tree(&self) -> SpanNode {
        span_tree(&self.spans)
    }

    /// The snapshot as a JSON document; equal snapshots give equal
    /// bytes, since every map is walked in key order.
    ///
    /// Schema (all maps sorted by key):
    ///
    /// ```json
    /// {"schema": "greenps-telemetry/1",
    ///  "counters": {"name": 0},
    ///  "gauges": {"name": 0},
    ///  "histograms": {"name": {"count": 0, "sum": 0, "min": 0, "max": 0,
    ///                          "buckets": [[upper_bound, count]]}},
    ///  "spans": {"phase": {"wall_ns": 0, "count": 0, "children": {}}},
    ///  "events": {"ring": {"dropped": 0,
    ///                      "events": [{"seq": 1, "kind": "k", "detail": "d"}]}}}
    /// ```
    pub fn to_json(&self) -> JsonValue {
        fn map<'a, V: 'a>(
            entries: impl Iterator<Item = (&'a String, &'a V)>,
            value: impl Fn(&V) -> JsonValue,
        ) -> JsonValue {
            JsonValue::Obj(entries.map(|(k, v)| (k.clone(), value(v))).collect())
        }
        fn spans(node: &SpanNode) -> JsonValue {
            map(node.children.iter(), |child| {
                JsonValue::obj()
                    .field("wall_ns", JsonValue::U64(child.stat.wall_nanos))
                    .field("count", JsonValue::U64(child.stat.count))
                    .field("children", spans(child))
            })
        }
        let pair = |a: u64, b: u64| JsonValue::Arr(vec![JsonValue::U64(a), JsonValue::U64(b)]);
        JsonValue::obj()
            .field("schema", JsonValue::string("greenps-telemetry/1"))
            .field(
                "counters",
                map(self.counters.iter(), |v| JsonValue::U64(*v)),
            )
            .field("gauges", map(self.gauges.iter(), |v| JsonValue::U64(*v)))
            .field(
                "histograms",
                map(self.histograms.iter(), |h| {
                    JsonValue::obj()
                        .field("count", JsonValue::U64(h.count))
                        .field("sum", JsonValue::U64(h.sum))
                        .field("min", JsonValue::U64(h.min))
                        .field("max", JsonValue::U64(h.max))
                        .field(
                            "buckets",
                            JsonValue::Arr(h.buckets.iter().map(|&(b, c)| pair(b, c)).collect()),
                        )
                }),
            )
            .field("spans", spans(&self.span_tree()))
            .field(
                "events",
                map(self.rings.iter(), |ring| {
                    let events = ring.events.iter().map(|e| {
                        JsonValue::obj()
                            .field("seq", JsonValue::U64(e.seq))
                            .field("kind", JsonValue::string(&e.kind))
                            .field("detail", JsonValue::string(&e.detail))
                    });
                    JsonValue::obj()
                        .field("dropped", JsonValue::U64(ring.dropped))
                        .field("events", JsonValue::Arr(events.collect()))
                }),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::Name;

    const X: Name = Name::new("x");

    #[test]
    fn same_name_shares_a_cell() {
        let reg = Registry::new();
        let a = reg.counter(&X);
        let b = reg.counter(&X);
        a.add(2);
        b.inc();
        assert_eq!(reg.snapshot().counters.get("x"), Some(&3));
    }

    #[test]
    fn disabled_registry_yields_noop_handles() {
        let reg = Registry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter(&X);
        c.inc();
        let h = reg.histogram(&Name::new("h"));
        h.record(1);
        let s = reg.ring(&Name::new("r"));
        s.emit_with(&Name::new("k"), || "d".to_string());
        assert_eq!(reg.snapshot(), Snapshot::default());
    }

    #[test]
    fn snapshot_collects_all_sections() {
        let reg = Registry::new();
        reg.counter(&Name::new("c")).inc();
        reg.gauge(&Name::new("g")).set(5);
        reg.histogram(&Name::new("h")).record(100);
        reg.ring(&Name::new("r"))
            .emit_with(&Name::new("kind"), || "detail".to_string());
        crate::Span::enter(&reg, &Name::new("p.q")).finish();
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("c"), Some(&1));
        assert_eq!(snap.gauges.get("g"), Some(&5));
        assert_eq!(snap.histograms.get("h").map(|h| h.count), Some(1));
        assert_eq!(snap.rings.get("r").map(|r| r.events.len()), Some(1));
        assert_eq!(snap.spans.get("p.q").map(|s| s.count), Some(1));
        let tree = snap.span_tree();
        assert!(tree
            .children
            .get("p")
            .is_some_and(|p| p.children.contains_key("q")));
    }

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter(&crate::names::CRAM_CLOSENESS_COMPUTATIONS)
            .add(280_000);
        reg.gauge(&crate::names::PAIR_CACHE_HIT_RATE_PCT).set(93);
        reg.histogram(&crate::names::SIMNET_DELIVERY_DELAY_US)
            .record(700);
        crate::Span::enter(&reg, &crate::names::PHASE2_ALLOCATION).finish();
        reg.ring(&crate::names::CRAM_RING)
            .emit_with(&crate::names::GIF_MERGE, || "g1+g2".to_string());
        let mut snap = reg.snapshot();
        // Wall time differs run to run; normalize it before comparing.
        for stat in snap.spans.values_mut() {
            stat.wall_nanos = 0;
        }
        snap
    }

    #[test]
    fn json_is_deterministic_and_contains_all_sections() {
        let a = sample().to_json().to_string();
        assert_eq!(a, sample().to_json().to_string());
        assert!(a.starts_with(r#"{"schema":"greenps-telemetry/1","counters":{"#));
        assert!(a.contains(r#""cram.closeness_computations":280000"#));
        assert!(a.contains(r#""phase2":{"wall_ns":0,"count":0,"children":{"allocation":"#));
        assert!(a.contains(r#""kind":"gif.merge","detail":"g1+g2""#));
        assert!(a.contains(r#""simnet.delivery_delay_us":{"count":1,"sum":700"#));
        // The document is valid JSON and reads back as the same tree.
        assert_eq!(crate::json::parse(&a).ok(), Some(sample().to_json()));
    }

    #[test]
    fn json_escapes_strings() {
        let reg = Registry::new();
        reg.ring(&Name::new("r"))
            .emit_with(&Name::new("quote\"kind"), || "tab\there\nline".to_string());
        let json = reg.snapshot().to_json().to_string();
        assert!(json.contains("quote\\\"kind"));
        assert!(json.contains("tab\\there\\nline"));
    }

    #[test]
    fn empty_snapshot_exports_empty_maps() {
        let json = Snapshot::default().to_json().to_string();
        assert_eq!(
            json,
            r#"{"schema":"greenps-telemetry/1","counters":{},"gauges":{},"histograms":{},"spans":{},"events":{}}"#
        );
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let clone = reg.clone();
        clone.counter(&Name::new("shared")).add(7);
        assert_eq!(reg.snapshot().counters.get("shared"), Some(&7));
    }
}
