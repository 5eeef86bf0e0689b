//! Deterministic snapshot serializer.
//!
//! The exporter walks a [`Snapshot`] — whose collections are all
//! `BTreeMap`s — so two snapshots with equal contents always serialize
//! to byte-identical output, with no dependency on hash ordering or
//! locale. JSON is hand-rolled (the workspace builds offline against
//! std-only stubs); the grammar subset used here is plain RFC 8259.

use crate::registry::Snapshot;
use crate::span::SpanNode;
use std::fmt::Write as _;

/// Serializes a [`Snapshot`] as pretty-printed JSON.
///
/// Schema (all maps sorted by key):
///
/// ```json
/// {
///   "schema": "greenps-telemetry/1",
///   "counters": {"name": 0},
///   "gauges": {"name": 0},
///   "histograms": {"name": {"count": 0, "sum": 0, "min": 0, "max": 0,
///                           "buckets": [[upper_bound, count]]}},
///   "spans": {"phase": {"wall_ns": 0, "count": 0, "children": {}}},
///   "events": {"ring": {"dropped": 0,
///                       "events": [{"seq": 1, "kind": "k", "detail": "d"}]}}
/// }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct JsonExporter;

impl JsonExporter {
    /// Renders `snapshot` to a JSON string.
    pub fn export(snapshot: &Snapshot) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"greenps-telemetry/1\",\n");

        out.push_str("  \"counters\": ");
        write_scalar_map(&mut out, 1, snapshot.counters.iter());
        out.push_str(",\n  \"gauges\": ");
        write_scalar_map(&mut out, 1, snapshot.gauges.iter());

        out.push_str(",\n  \"histograms\": ");
        write_map(&mut out, 1, snapshot.histograms.iter(), |out, indent, h| {
            out.push('{');
            let _ = write!(
                out,
                "\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            );
            for (i, (bound, count)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{bound}, {count}]");
            }
            out.push_str("]}");
            let _ = indent;
        });

        out.push_str(",\n  \"spans\": ");
        let tree = snapshot.span_tree();
        write_span_children(&mut out, 1, &tree);

        out.push_str(",\n  \"events\": ");
        write_map(&mut out, 1, snapshot.rings.iter(), |out, indent, ring| {
            out.push('{');
            let _ = write!(out, "\"dropped\": {}, \"events\": [", ring.dropped);
            for (i, event) in ring.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(out, indent + 2);
                let _ = write!(out, "{{\"seq\": {}, \"kind\": ", event.seq);
                push_json_string(out, &event.kind);
                out.push_str(", \"detail\": ");
                push_json_string(out, &event.detail);
                out.push('}');
            }
            if !ring.events.is_empty() {
                out.push('\n');
                push_indent(out, indent + 1);
            }
            out.push_str("]}");
        });

        out.push_str("\n}\n");
        out
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes `{"name": value, ...}` with one entry per line.
fn write_scalar_map<'a, I>(out: &mut String, indent: usize, entries: I)
where
    I: Iterator<Item = (&'a String, &'a u64)>,
{
    write_map(out, indent, entries, |out, _indent, v| {
        let _ = write!(out, "{v}");
    });
}

/// Writes `{"name": <rendered value>, ...}` with one entry per line,
/// delegating value rendering to `render`.
fn write_map<'a, K, V, I, F>(out: &mut String, indent: usize, entries: I, render: F)
where
    K: AsRef<str> + 'a,
    V: 'a,
    I: Iterator<Item = (&'a K, &'a V)>,
    F: Fn(&mut String, usize, &V),
{
    let mut first = true;
    for (name, value) in entries {
        out.push_str(if first { "{\n" } else { ",\n" });
        first = false;
        push_indent(out, indent + 1);
        push_json_string(out, name.as_ref());
        out.push_str(": ");
        render(out, indent + 1, value);
    }
    if first {
        out.push_str("{}");
    } else {
        out.push('\n');
        push_indent(out, indent);
        out.push('}');
    }
}

/// Writes a span node's children as a JSON object of
/// `{"segment": {"wall_ns": .., "count": .., "children": {..}}}`.
fn write_span_children(out: &mut String, indent: usize, node: &SpanNode) {
    write_map(out, indent, node.children.iter(), |out, indent, child| {
        let _ = write!(
            out,
            "{{\"wall_ns\": {}, \"count\": {}, \"children\": ",
            child.stat.wall_nanos, child.stat.count
        );
        write_span_children(out, indent, child);
        out.push('}');
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{self, Name};
    use crate::{Registry, Span};

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter(&names::CRAM_CLOSENESS_COMPUTATIONS)
            .add(280_000);
        reg.gauge(&names::PAIR_CACHE_HIT_RATE_PCT).set(93);
        reg.histogram(&names::SIMNET_DELIVERY_DELAY_US).record(700);
        Span::enter(&reg, &names::PHASE2_ALLOCATION).finish();
        reg.ring(&names::CRAM_RING)
            .emit_with(&names::GIF_MERGE, || "g1+g2".to_string());
        reg.snapshot()
    }

    #[test]
    fn json_is_deterministic_and_contains_all_sections() {
        let a = JsonExporter::export(&sample());
        let b = JsonExporter::export(&{
            let mut s = sample();
            // Wall time differs run to run; normalize it like the
            // identity proptest does before comparing.
            for stat in s.spans.values_mut() {
                stat.wall_nanos = 0;
            }
            s
        });
        let mut a_norm = sample();
        for stat in a_norm.spans.values_mut() {
            stat.wall_nanos = 0;
        }
        assert_eq!(JsonExporter::export(&a_norm), b);
        assert!(a.contains("\"cram.closeness_computations\": 280000"));
        assert!(a.contains("\"phase2\""));
        assert!(a.contains("\"allocation\""));
        assert!(a.contains("\"gif.merge\""));
        assert!(a.contains("\"simnet.delivery_delay_us\""));
        assert!(a.contains("\"schema\": \"greenps-telemetry/1\""));
    }

    #[test]
    fn json_escapes_strings() {
        let reg = Registry::new();
        reg.ring(&Name::new("r"))
            .emit_with(&Name::new("quote\"kind"), || "tab\there\nline".to_string());
        let json = JsonExporter::export(&reg.snapshot());
        assert!(json.contains("quote\\\"kind"));
        assert!(json.contains("tab\\there\\nline"));
    }

    #[test]
    fn empty_snapshot_exports_empty_maps() {
        let json = JsonExporter::export(&Snapshot::default());
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"spans\": {}"));
        assert!(json.ends_with("}\n"));
    }
}
