//! The telemetry name table: every instrument the workspace records.
//!
//! Each instrument is declared once below, with its kind, the constant
//! or function that record sites name, and the string its snapshot and
//! export key carries. The same table yields the constants and [`ALL`],
//! so the inventory cannot drift from the names in use. [`Name`] has no
//! public constructor: [`crate::Registry`], [`crate::Span::enter`] and
//! [`crate::EventSink::emit_with`] take `&Name`, so a record site can
//! only name an instrument declared here.
//!
//! Per-broker and per-zone instruments are templates: a function that
//! takes the id, listed in [`ALL`] with a `<id>` placeholder.
//!
//! Renaming an instrument renames its snapshot key, which dashboards,
//! the JSON export and the benchmark read; the table is that interface.

use std::borrow::Cow;

/// A declared instrument name; obtained only from this module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Name(Cow<'static, str>);

impl Name {
    /// Names a fixed instrument; crate-private so the table stays the
    /// only source of names.
    pub(crate) const fn new(name: &'static str) -> Name {
        Name(Cow::Borrowed(name))
    }

    /// The name as snapshots and exports key it.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// What an instrument is: the [`crate::Registry`] method, span or ring
/// event that records it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A [`crate::Counter`].
    Counter,
    /// A [`crate::Gauge`].
    Gauge,
    /// A [`crate::Histogram`].
    Histogram,
    /// An event ring ([`crate::EventSink`]).
    Ring,
    /// A phase timer ([`crate::Span`]).
    Span,
    /// The kind of an event emitted into a ring.
    Event,
}

/// One row of [`ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// What records it.
    pub kind: Kind,
    /// The constant or template function record sites name.
    pub ident: &'static str,
    /// The key string; a template's id segment reads `<id>`.
    pub name: &'static str,
}

macro_rules! names {
    (
        fixed { $( $kind:ident $ident:ident = $name:literal; )* }
        templates { $( $tkind:ident $fn:ident($id:ident: $ty:ty) = $pre:literal, $post:literal; )* }
    ) => {
        $(
            #[doc = concat!("`", $name, "`")]
            pub const $ident: Name = Name::new($name);
        )*
        $(
            #[doc = concat!("`", $pre, "<id>", $post, "`")]
            pub fn $fn($id: $ty) -> Name {
                Name(Cow::Owned(format!(concat!($pre, "{}", $post), $id)))
            }
        )*
        /// Every declared instrument, fixed names first, then templates.
        pub const ALL: &[Entry] = &[
            $( Entry { kind: Kind::$kind, ident: stringify!($ident), name: $name }, )*
            $( Entry { kind: Kind::$tkind, ident: stringify!($fn), name: concat!($pre, "<id>", $post) }, )*
        ];
    };
}

names! {
    fixed {
    Counter SIMNET_DELIVERED = "simnet.delivered";
    Counter SIMNET_DROPPED = "simnet.dropped";
    Counter PHASE1_BIR_ROUNDS = "phase1.bir_rounds";
    Counter CRAM_CLOSENESS_COMPUTATIONS = "cram.closeness_computations";
    Counter CRAM_ITERATIONS = "cram.iterations";
    Counter CRAM_MERGES = "cram.merges";
    Counter CRAM_FAILED_MERGES = "cram.failed_merges";
    Counter CRAM_ONE_TO_MANY_MERGES = "cram.one_to_many_merges";
    Counter CRAM_INITIAL_GIFS = "cram.initial_gifs";
    Counter CRAM_FINAL_UNITS = "cram.final_units";
    Counter CRAM_PACKS = "cram.packs";
    Counter CRAM_PACKS_FAILED = "cram.packs_failed";
    Counter CRAM_TILE_CHECKS = "cram.tile.checks";
    Counter CRAM_TILE_PRUNED = "cram.tile.pruned";
    Counter PAIR_CACHE_HITS = "core.pair_cache.hits";
    Counter PAIR_CACHE_MISSES = "core.pair_cache.misses";
    Counter CHECKPOINT_HITS = "pipeline.checkpoint.hits";
    Counter CHECKPOINT_MISSES = "pipeline.checkpoint.misses";
    Counter ZONE_CROSS_LINKS = "zone.merge.cross_links";
    Counter CANCEL_OBSERVED = "pipeline.cancel.observed";
    Counter ROUTING_REBUILDS = "routing.rebuilds";
    Counter ROUTING_REBUILD_ENTRIES = "routing.rebuild_entries";
    Counter TRANSPORT_FRAMES_SENT = "transport.frames_sent";
    Counter TRANSPORT_FRAMES_RECEIVED = "transport.frames_received";
    Counter TRANSPORT_BYTES_SENT = "transport.bytes_sent";
    Counter TRANSPORT_BYTES_RECEIVED = "transport.bytes_received";
    Counter TRANSPORT_FLUSHES = "transport.flushes";
    Counter TRANSPORT_READS = "transport.reads";
    Counter TRANSPORT_DECODE_ERRORS = "transport.decode_errors";
    Counter TRANSPORT_SESSIONS_OPENED = "transport.sessions_opened";
    Counter TRANSPORT_SESSIONS_CLOSED = "transport.sessions_closed";
    Counter TRANSPORT_STALE_EVENTS_FENCED = "transport.stale_events_fenced";

    Gauge SIMNET_MAX_QUEUE_WAIT_US = "simnet.max_queue_wait_us";
    Gauge ZONE_COUNT = "zone.count";

    Histogram SIMNET_DELIVERY_DELAY_US = "simnet.delivery_delay_us";
    Histogram CRAM_SCAN_US = "cram.scan_us";
    Histogram ZONE_SIZE = "zone.size";

    Ring SIMNET_RING = "simnet";
    Ring CRAM_RING = "cram";
    Ring ZONE_RING = "zone";

    Span PHASE_GATHER = "pipeline.phase.gather";
    Span PHASE_ALLOCATE = "pipeline.phase.allocate";
    Span PHASE_ZONED_ALLOCATE = "pipeline.phase.zoned_allocate";
    Span PHASE_BUILD_OVERLAY = "pipeline.phase.build_overlay";
    Span PHASE_DEPLOY = "pipeline.phase.deploy";
    Span PHASE_MEASURE = "pipeline.phase.measure";
    Span PHASE1_GATHERING = "phase1.gathering";
    Span PHASE2_ALLOCATION = "phase2.allocation";
    Span CRAM_RUN = "cram.run";
    Span ZONE_CRAM_CROSS = "zone.cram.cross";
    Span PHASE3_OVERLAY = "phase3.overlay";
    Span PHASE3_DEPLOYMENT = "phase3.deployment";
    Span GRAPE = "grape";
    Span MEASURE_WINDOW = "measure.window";

    Event MSG_DROP = "msg.drop";
    Event QUEUE_STALL = "queue.stall";
    Event GIF_MERGE = "gif.merge";
    Event PAIR_BLACKLIST = "pair.blacklist";
    Event ZONE_CANCELLED = "zone.cancelled";
    }
    templates {
    Gauge broker_msgs_in(broker: u64) = "broker.b", ".msgs_in";
    Gauge broker_msgs_out(broker: u64) = "broker.b", ".msgs_out";
    Gauge broker_msg_rate(broker: u64) = "broker.b", ".msg_rate";
    Histogram broker_delivery_delay_us(broker: u64) = "broker.b", ".delivery_delay_us";
    Span zone_cram(zone: u32) = "zone.cram.z", "";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_templates_expand() {
        let mut seen: Vec<&str> = ALL.iter().map(|e| e.name).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), ALL.len());
        assert_eq!(broker_msgs_in(7).as_str(), "broker.b7.msgs_in");
        assert_eq!(zone_cram(3).as_str(), "zone.cram.z3");
        let zone = ALL.iter().find(|e| e.ident == "zone_cram").unwrap();
        assert_eq!(zone.name, "zone.cram.z<id>");
    }
}
