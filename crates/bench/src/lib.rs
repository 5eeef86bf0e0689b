//! # greenps-bench
//!
//! Shared input builders and the scale report for the `experiments`
//! binary that regenerates every figure/table of the paper (see
//! DESIGN.md §4 for the experiment index E1–E10).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![expect(
    clippy::disallowed_methods,
    reason = "the scale report times its runs; wall time is reported, never fed back into a plan"
)]

use greenps_core::model::{AllocationInput, SubscriptionEntry};
use greenps_profile::{ClosenessMetric, PublisherProfile, PublisherTable, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, MsgId, SubId};
use greenps_telemetry::json::JsonValue;
use greenps_workload::scenario::Scenario;
use std::time::Instant;

/// Number of publications per publisher used to fill synthetic
/// profiles.
pub const PROFILE_WINDOW: u64 = 400;

/// Peak resident set size of this process in KiB, read from the
/// `VmHWM` line of `/proc/self/status`. `None` on non-Linux targets
/// (reports render it as JSON `null`).
pub fn peak_rss_kib() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status.lines().find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Renders [`peak_rss_kib`] as a JSON scalar (`null` off-Linux).
fn peak_rss_json() -> JsonValue {
    peak_rss_kib().map_or(JsonValue::Null, JsonValue::U64)
}

/// Builds an [`AllocationInput`] directly from a scenario by evaluating
/// every subscription filter against the stocks' publication streams —
/// "ideal" Phase-1 profiles without running the simulator. Used by the
/// algorithm-only experiments (E7–E9).
pub fn ideal_input(scenario: &Scenario) -> AllocationInput {
    let mut input = AllocationInput::new();
    for cfg in &scenario.brokers {
        input.brokers.push(greenps_core::model::BrokerSpec::new(
            cfg.id,
            cfg.url.clone(),
            cfg.matching_delay,
            cfg.out_bandwidth,
        ));
    }
    let rate = 1e6 / scenario.publish_period.as_micros() as f64;
    let mut publishers = PublisherTable::new();
    let mut streams: Vec<Vec<greenps_pubsub::Publication>> = Vec::new();
    for (i, stock) in scenario.stocks.iter().enumerate() {
        let adv = AdvId::new(i as u64 + 1);
        let pubs: Vec<greenps_pubsub::Publication> = (0..PROFILE_WINDOW)
            .map(|m| stock.publication(adv, MsgId::new(m)))
            .collect();
        let mean_size =
            pubs.iter().map(|p| p.wire_size()).sum::<usize>() as f64 / pubs.len() as f64;
        publishers.insert(PublisherProfile::new(
            adv,
            rate,
            rate * mean_size,
            MsgId::new(PROFILE_WINDOW - 1),
        ));
        streams.push(pubs);
    }
    input.publishers = publishers;

    for sub in &scenario.subs {
        let mut profile = SubscriptionProfile::new();
        let stream = &streams[sub.publisher_index];
        for p in stream {
            if sub.filter.matches(p) {
                profile.record(p.adv_id, p.msg_id);
            }
        }
        input
            .subscriptions
            .push(SubscriptionEntry::new(sub.id, sub.filter.clone(), profile));
    }
    input
}

/// A small sanity check on a built input: every subscription id is
/// unique and profiles are non-trivially filled.
pub fn check_input(input: &AllocationInput) {
    let mut seen = std::collections::BTreeSet::new();
    for s in &input.subscriptions {
        assert!(seen.insert(s.id), "duplicate sub id {:?}", s.id);
    }
    let filled = input
        .subscriptions
        .iter()
        .filter(|s| s.profile.count_ones() > 0)
        .count();
    assert!(
        filled * 2 >= input.subscriptions.len(),
        "most profiles should record publications ({filled}/{})",
        input.subscriptions.len()
    );
    let _ = SubId::new(0);
}

/// Publishers per zone used by the scale report's zoned workloads.
pub const SCALE_PUBS_PER_ZONE: usize = 8;

/// Seed of the scale-report workloads.
pub const SCALE_SEED: u64 = 11;

/// Runs the hierarchical zoned allocator ([`greenps_core::zones`]) over
/// streaming zoned workloads — one `(subscriptions, zones)` row each —
/// and renders the `BENCH_scale.json` report body (one compact JSON
/// document). Zones are generated
/// and profiled on demand by [`greenps_workload::zones::ZonedStreamFeed`],
/// so peak RSS tracks the largest zone rather than the whole workload;
/// every row records it via [`peak_rss_kib`] (note `VmHWM` is a
/// high-water mark, so rows share the process-lifetime peak so far).
///
/// The key vocabulary of the emitted JSON is pinned by `BENCH_KEYS` in
/// `tests/experiments_smoke.rs` — keep the two in sync.
///
/// # Panics
/// Panics when the zoned allocator fails on a generated workload or a
/// row drops subscriptions.
pub fn scale_report_json(rows: &[(usize, usize)], zone_threads: usize, quick: bool) -> String {
    use greenps_core::zones::{zoned_allocate, ZonedConfig};
    use greenps_telemetry::Registry;
    use greenps_workload::zones::{ZonedSpec, ZonedStreamFeed};

    let available = greenps_core::engine::available_threads();
    let effective_threads = zone_threads.max(1).min(available);
    let mut runs = Vec::new();
    for &(subs, zones) in rows {
        let spec = ZonedSpec {
            zones: zones.max(1),
            skew: 1,
            total_subs: subs,
            pubs_per_zone: SCALE_PUBS_PER_ZONE,
            seed: SCALE_SEED,
        };
        let largest_zone = spec.zone_sub_counts().into_iter().max().unwrap_or(0);
        let mut feed = ZonedStreamFeed::new(spec, PROFILE_WINDOW);
        let brokers = feed.broker_pool((subs / 50).max(80));
        let publishers = feed.publishers().clone();
        let registry = Registry::new();
        let config =
            ZonedConfig::with_metric(ClosenessMetric::Intersect).zone_threads(zone_threads);
        let t0 = Instant::now();
        let zoned = zoned_allocate(&mut feed, &brokers, &publishers, &config, &registry)
            .expect("zoned CRAM");
        // Microsecond resolution is all a wall time carries.
        let wall_ms = (t0.elapsed().as_secs_f64() * 1e6).round() / 1e3;
        assert_eq!(
            zoned.sub_count(),
            subs,
            "every subscription must be allocated"
        );
        let rss = peak_rss_json();
        println!(
            "scale-report: {subs} subs / {zones} zones (largest {largest_zone}) -> \
             {} brokers in {wall_ms:.0} ms, {} cross-zone links, peak RSS {rss} KiB",
            zoned.allocation.broker_count(),
            zoned.cross_links,
        );
        let count = |n: usize| JsonValue::U64(n as u64);
        runs.push(
            JsonValue::obj()
                .field("subscriptions", count(subs))
                .field("zones", count(zoned.zone_count()))
                .field("brokers", count(brokers.len()))
                .field("threads", count(zone_threads))
                .field("effective_threads", count(effective_threads))
                .field("largest_zone", count(largest_zone))
                .field("gifs", count(zoned.zones.iter().map(|z| z.gifs).sum()))
                .field("allocated_brokers", count(zoned.allocation.broker_count()))
                .field("cross_links", JsonValue::U64(zoned.cross_links))
                .field("wall_ms", JsonValue::F64(wall_ms))
                .field("peak_rss_kib", rss),
        );
    }
    let report = JsonValue::obj()
        .field("metric", JsonValue::string("INTERSECT"))
        .field("quick", JsonValue::Bool(quick))
        .field("available_parallelism", JsonValue::U64(available as u64))
        .field("runs", JsonValue::Arr(runs));
    format!("{report}\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenps_workload::{ScenarioBuilder, Topology};

    #[test]
    fn ideal_input_profiles_match_selectivity() {
        let mut s = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(200)
            .seed(3)
            .build();
        s.brokers.truncate(10);
        let input = ideal_input(&s);
        check_input(&input);
        assert_eq!(input.subscriptions.len(), 200);
        assert_eq!(input.brokers.len(), 10);
        assert_eq!(input.publishers.len(), 40);
        // Template subscriptions (2 predicates) sink the whole window.
        for e in &input.subscriptions {
            if e.filter.len() == 2 {
                assert_eq!(e.profile.count_ones() as u64, PROFILE_WINDOW);
            } else {
                assert!(e.profile.count_ones() as u64 <= PROFILE_WINDOW);
            }
        }
        // ~70 msg/min
        let p = input.publishers.iter().next().unwrap();
        assert!((p.rate - 70.0 / 60.0).abs() < 0.01);
    }
}
