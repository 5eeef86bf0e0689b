//! Zoned workload generation and the streaming zone feed
//! (DESIGN.md §12).
//!
//! Two layers share one generator:
//!
//! * [`crate::scenario::Topology::Zoned`] materializes a full
//!   [`crate::Scenario`] by concatenating [`ZonedSpec::zone_subs`] over
//!   every zone — right for tests and moderate sizes;
//! * [`ZonedStreamFeed`] implements [`greenps_core::zones::ZoneFeed`]
//!   directly over the same spec, generating each zone's subscriptions
//!   and evaluating their profiles *on demand*. Nothing outside the
//!   zone being fed is ever materialized, so a 1M-subscription run's
//!   peak RSS tracks the largest zone — the path `experiments --
//!   scale-report` exercises.
//!
//! Both paths generate byte-identical subscriptions for the same spec:
//! zone `z` draws from its own RNG stream (`seed ^ ZONE_SUB_SALT ^ z`)
//! over its own publishers, so generating a zone never requires
//! generating any other.

use crate::scenario::{broker, stocks_for, FULL_BANDWIDTH, PUBLISH_PERIOD_US};
use crate::stock::StockSeries;
use crate::subs::{generate, GeneratedSub};
use greenps_core::model::{AllocError, BrokerSpec, Unit};
use greenps_core::pipeline::CancelToken;
use greenps_core::zones::{StreamingGifBuilder, ZoneFeed};
use greenps_profile::{PublisherProfile, PublisherTable, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, MsgId, SubId};
use greenps_pubsub::Publication;

/// Publishers per zone when the builder does not override the count.
pub const DEFAULT_PUBS_PER_ZONE: usize = 4;

/// Salt mixed into each zone's subscription-generation seed.
const ZONE_SUB_SALT: u64 = 0x20ed;

/// The generation parameters of a zoned workload — the pure-data core
/// shared by the materializing and streaming paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZonedSpec {
    /// Number of locality zones (≥ 1).
    pub zones: usize,
    /// Integer skew exponent: zone `z` is weighted `(zones - z)^skew`
    /// (0 → uniform). Capped at 8 to keep the integer weights exact.
    pub skew: u32,
    /// Total subscriptions across all zones.
    pub total_subs: usize,
    /// Publishers per zone; publisher `z * pubs_per_zone + j` belongs
    /// to zone `z`.
    pub pubs_per_zone: usize,
    /// Master seed.
    pub seed: u64,
}

impl ZonedSpec {
    /// Total publishers across all zones.
    pub fn total_publishers(&self) -> usize {
        self.zones.max(1) * self.pubs_per_zone.max(1)
    }

    /// Subscriptions per zone: integer weights `(zones - z)^skew`,
    /// remainders distributed to the lowest zones. Deterministic and
    /// exactly `total_subs` in sum.
    pub fn zone_sub_counts(&self) -> Vec<usize> {
        let zones = self.zones.max(1);
        let exp = self.skew.min(8);
        let weights: Vec<u128> = (0..zones).map(|z| ((zones - z) as u128).pow(exp)).collect();
        let total_weight: u128 = weights.iter().sum();
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| ((self.total_subs as u128 * w) / total_weight) as usize)
            .collect();
        let assigned: usize = counts.iter().sum();
        for i in 0..self.total_subs - assigned {
            if let Some(slot) = counts.get_mut(i % zones) {
                *slot += 1;
            }
        }
        counts
    }

    /// Generates zone `zone`'s subscriptions only: globally-sequential
    /// ids (offset by the preceding zones' counts), publisher indices
    /// into the global stock list, and `locality = Some(zone)`.
    ///
    /// `stocks` must cover [`ZonedSpec::total_publishers`] series (the
    /// global list — only the zone's own slice is read).
    pub fn zone_subs(&self, zone: usize, stocks: &[StockSeries]) -> Vec<GeneratedSub> {
        let counts = self.zone_sub_counts();
        let base: u64 = counts[..zone].iter().sum::<usize>() as u64;
        let n = counts[zone];
        let ppz = self.pubs_per_zone.max(1);
        let per = n / ppz;
        let mut zone_counts = vec![per; ppz];
        for slot in zone_counts.iter_mut().take(n - per * ppz) {
            *slot += 1;
        }
        let zone_stocks = &stocks[zone * ppz..(zone + 1) * ppz];
        let mut subs = generate(
            zone_stocks,
            &zone_counts,
            self.seed ^ ZONE_SUB_SALT ^ zone as u64,
        );
        for s in &mut subs {
            s.id = SubId::new(s.id.raw() + base);
            s.publisher_index += zone * ppz;
            s.locality = Some(u32::try_from(zone).unwrap_or(u32::MAX));
        }
        subs
    }
}

/// A streaming [`ZoneFeed`] over a [`ZonedSpec`]: holds the stock
/// series, the per-publisher publication window and the publisher
/// table (all `O(publishers)`), and materializes one zone's
/// subscriptions at a time inside [`ZoneFeed::feed`].
#[derive(Debug)]
pub struct ZonedStreamFeed {
    spec: ZonedSpec,
    stocks: Vec<StockSeries>,
    streams: Vec<Vec<Publication>>,
    publishers: PublisherTable,
}

impl ZonedStreamFeed {
    /// Builds the feed: generates the stock series and evaluates the
    /// first `window` publications of every publisher (the profile
    /// window — `greenps_bench::PROFILE_WINDOW`-compatible).
    pub fn new(spec: ZonedSpec, window: u64) -> Self {
        let stocks = stocks_for(spec.total_publishers(), spec.seed);
        let rate = 1e6 / PUBLISH_PERIOD_US as f64;
        let mut publishers = PublisherTable::new();
        let mut streams = Vec::with_capacity(stocks.len());
        for (i, stock) in stocks.iter().enumerate() {
            let adv = AdvId::new(i as u64 + 1);
            let pubs: Vec<Publication> = (0..window)
                .map(|m| stock.publication(adv, MsgId::new(m)))
                .collect();
            let mean_size =
                pubs.iter().map(|p| p.wire_size()).sum::<usize>() as f64 / pubs.len() as f64;
            publishers.insert(PublisherProfile::new(
                adv,
                rate,
                rate * mean_size,
                MsgId::new(window - 1),
            ));
            streams.push(pubs);
        }
        ZonedStreamFeed {
            spec,
            stocks,
            streams,
            publishers,
        }
    }

    /// The generation parameters.
    pub fn spec(&self) -> &ZonedSpec {
        &self.spec
    }

    /// The publisher table every zone run shares.
    pub fn publishers(&self) -> &PublisherTable {
        &self.publishers
    }

    /// A homogeneous broker pool sized for this workload, matching the
    /// cluster scenarios' full-bandwidth brokers.
    pub fn broker_pool(&self, count: usize) -> Vec<BrokerSpec> {
        (0..count as u64)
            .map(|i| {
                let cfg = broker(i, FULL_BANDWIDTH);
                BrokerSpec::new(cfg.id, cfg.url, cfg.matching_delay, cfg.out_bandwidth)
            })
            .collect()
    }
}

impl ZoneFeed for ZonedStreamFeed {
    fn zone_count(&self) -> usize {
        self.spec.zones.max(1)
    }

    fn feed(
        &mut self,
        zone: usize,
        builder: &mut StreamingGifBuilder,
        cancel: &CancelToken,
    ) -> Result<(), AllocError> {
        for sub in self.spec.zone_subs(zone, &self.stocks) {
            if cancel.is_cancelled_hot() {
                return Err(AllocError::Cancelled);
            }
            let stream = &self.streams[sub.publisher_index];
            let mut profile = SubscriptionProfile::new();
            for p in stream {
                if sub.filter.matches(p) {
                    profile.record(p.adv_id, p.msg_id);
                }
            }
            let load = profile.estimate_load(&self.publishers);
            builder.push(Unit {
                subs: vec![sub.id],
                profile,
                out_bandwidth: load.bandwidth,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioBuilder, Topology};
    use greenps_core::model::AllocationInput;
    use greenps_core::zones::{zoned_allocate, InputZoneFeed, ZonePlan, ZonedConfig};
    use greenps_profile::ClosenessMetric;
    use greenps_telemetry::Registry;
    use std::collections::BTreeMap;

    const WINDOW: u64 = 120;

    fn spec() -> ZonedSpec {
        ZonedSpec {
            zones: 3,
            skew: 1,
            total_subs: 300,
            pubs_per_zone: 2,
            seed: 11,
        }
    }

    /// The stream feed polls once per subscription it generates.
    #[test]
    fn stream_feed_polls_the_cancel_token() {
        let mut feed = ZonedStreamFeed::new(spec(), WINDOW);
        let mut builder = StreamingGifBuilder::new();
        let cancel = CancelToken::new();
        cancel.cancel();
        let got = feed.feed(0, &mut builder, &cancel);
        assert!(matches!(got, Err(AllocError::Cancelled)));
        assert!(builder.is_empty());
    }

    #[test]
    fn zone_sub_counts_are_exact_and_skewed() {
        let s = spec();
        let counts = s.zone_sub_counts();
        assert_eq!(counts.iter().sum::<usize>(), 300);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        // skew 0 is uniform
        let uniform = ZonedSpec { skew: 0, ..s }.zone_sub_counts();
        assert_eq!(uniform, vec![100, 100, 100]);
    }

    #[test]
    fn zone_subs_have_global_ids_and_locality_tags() {
        let s = spec();
        let stocks = stocks_for(s.total_publishers(), s.seed);
        let counts = s.zone_sub_counts();
        let mut next_id = 0u64;
        for (z, &count) in counts.iter().enumerate() {
            let subs = s.zone_subs(z, &stocks);
            assert_eq!(subs.len(), count);
            for sub in &subs {
                assert_eq!(sub.id.raw(), next_id);
                assert_eq!(sub.locality, Some(z as u32));
                assert_eq!(sub.publisher_index / s.pubs_per_zone, z);
                next_id += 1;
            }
        }
        assert_eq!(next_id, 300);
        // Regenerating a single zone is deterministic and independent
        // of whether other zones were generated.
        assert_eq!(s.zone_subs(1, &stocks), s.zone_subs(1, &stocks));
    }

    #[test]
    fn zoned_topology_concatenates_the_same_zones() {
        let s = spec();
        let scenario = ScenarioBuilder::new(Topology::Zoned {
            zones: s.zones,
            skew: s.skew,
        })
        .total_subs(s.total_subs)
        .publishers(s.zones * s.pubs_per_zone)
        .seed(s.seed)
        .build();
        assert_eq!(scenario.sub_count(), 300);
        assert_eq!(scenario.publisher_count(), 6);
        let stocks = stocks_for(s.total_publishers(), s.seed);
        let direct: Vec<GeneratedSub> =
            (0..s.zones).flat_map(|z| s.zone_subs(z, &stocks)).collect();
        for (a, b) in scenario.subs.iter().zip(&direct) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.filter, b.filter);
            assert_eq!(a.publisher_index, b.publisher_index);
            assert_eq!(a.locality, b.locality);
        }
    }

    /// The streaming feed and the materialized path (scenario →
    /// profile evaluation → tag partition) must produce identical
    /// allocations: same units per zone, in the same order.
    #[test]
    fn streaming_feed_matches_materialized_input() {
        let s = spec();
        let mut feed = ZonedStreamFeed::new(s, WINDOW);
        let brokers = feed.broker_pool(40);

        // Materialized path: evaluate every subscription up front.
        let scenario = ScenarioBuilder::new(Topology::Zoned {
            zones: s.zones,
            skew: s.skew,
        })
        .total_subs(s.total_subs)
        .publishers(s.zones * s.pubs_per_zone)
        .brokers(40)
        .seed(s.seed)
        .build();
        let mut input = AllocationInput::new();
        input.brokers = brokers.clone();
        input.publishers = feed.publishers().clone();
        for sub in &scenario.subs {
            let stream: Vec<Publication> = (0..WINDOW)
                .map(|m| {
                    scenario.stocks[sub.publisher_index]
                        .publication(AdvId::new(sub.publisher_index as u64 + 1), MsgId::new(m))
                })
                .collect();
            let mut profile = SubscriptionProfile::new();
            for p in &stream {
                if sub.filter.matches(p) {
                    profile.record(p.adv_id, p.msg_id);
                }
            }
            input
                .subscriptions
                .push(greenps_core::model::SubscriptionEntry::new(
                    sub.id,
                    sub.filter.clone(),
                    profile,
                ));
        }
        let tags: BTreeMap<SubId, u32> = scenario
            .subs
            .iter()
            .map(|sub| (sub.id, sub.locality.unwrap()))
            .collect();

        let config = ZonedConfig::with_metric(ClosenessMetric::Intersect);
        let streamed = zoned_allocate(
            &mut feed,
            &brokers,
            &input.publishers.clone(),
            &config,
            &Registry::disabled(),
        )
        .unwrap();
        let mut tag_feed = InputZoneFeed::new(&input, &ZonePlan::Tags(tags));
        let materialized = zoned_allocate(
            &mut tag_feed,
            &brokers,
            &input.publishers,
            &config,
            &Registry::disabled(),
        )
        .unwrap();
        assert_eq!(streamed, materialized);
        assert_eq!(streamed.zone_count(), 3);
        assert_eq!(streamed.sub_count(), 300);
    }
}
