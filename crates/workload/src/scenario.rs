//! Experiment scenarios (paper §VI-A).
//!
//! * **Homogeneous cluster**: 80 brokers of equal capacity, 40
//!   publishers at 70 msg/min, 2,000–8,000 subscriptions total.
//! * **Heterogeneous cluster**: 15 brokers at 100% network capacity, 25
//!   at 50%, 40 at 25%; the i-th publisher has `Ns / i` subscriptions,
//!   `Ns ∈ {50, 100, 150, 200}`.
//! * **SciNet**: 400 brokers / 72 publishers and 1,000 brokers / 100
//!   publishers with 225 subscriptions per publisher, publisher counts
//!   chosen to initially saturate the MANUAL deployment.

use crate::stock::{symbols, StockSeries};
use crate::subs::{generate, GeneratedSub};
use greenps_broker::BrokerConfig;
use greenps_core::model::LinearFn;
use greenps_pubsub::ids::BrokerId;
use greenps_simnet::SimDuration;

/// Full broker network capacity in the cluster experiments (bytes/s of
/// output bandwidth). Chosen so that ~2,000 subscriptions pack into a
/// handful of brokers while the 80-broker MANUAL deployment runs near
/// its comfortable load — the paper's 1 Gbps testbed scaled to the
/// workload the same way its bandwidth limiter scales broker capacity.
pub const FULL_BANDWIDTH: f64 = 48_000.0;

/// The paper's publication rate: 70 messages per minute.
pub const PUBLISH_PERIOD_US: u64 = 60_000_000 / 70;

/// Matching-delay model used by every broker: 0.2 ms base plus 50 ns
/// per stored subscription.
pub fn default_matching_delay() -> LinearFn {
    LinearFn::new(0.0002, 5e-8)
}

/// A complete experiment scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (used in reports).
    pub name: String,
    /// Broker pool with capacities.
    pub brokers: Vec<BrokerConfig>,
    /// One stock series per publisher; publisher `i` publishes stock
    /// `stocks[i]` under advertisement id `i + 1`.
    pub stocks: Vec<StockSeries>,
    /// Publication period (common to all publishers).
    pub publish_period: SimDuration,
    /// The subscription workload.
    pub subs: Vec<GeneratedSub>,
    /// Master seed for placements.
    pub seed: u64,
}

impl Scenario {
    /// Total subscriptions.
    pub fn sub_count(&self) -> usize {
        self.subs.len()
    }

    /// Number of publishers.
    pub fn publisher_count(&self) -> usize {
        self.stocks.len()
    }

    /// Number of brokers in the pool.
    pub fn broker_count(&self) -> usize {
        self.brokers.len()
    }
}

pub(crate) fn broker(id: u64, bandwidth: f64) -> BrokerConfig {
    BrokerConfig::new(BrokerId::new(id), default_matching_delay(), bandwidth)
}

pub(crate) fn stocks_for(publishers: usize, seed: u64) -> Vec<StockSeries> {
    symbols(publishers)
        .into_iter()
        .enumerate()
        .map(|(i, s)| StockSeries::generate(s, seed.wrapping_add(i as u64), 252))
        .collect()
}

/// The four workload shapes of §VI-A, selected via [`ScenarioBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// 80 equal-capacity brokers, 40 publishers, subscriptions split
    /// evenly across publishers.
    Homogeneous,
    /// Three capacity tiers (15 full / 25 half / 40 quarter); subscriber
    /// counts ramp down linearly from `Ns` to `Ns / 40`.
    Heterogeneous,
    /// The SciNet large-scale deployment: equal brokers, a fixed number
    /// of subscriptions per publisher.
    Scinet,
    /// The adversarial §II-B workload: every broker hosts the *same*
    /// subscription, so publisher relocation alone cannot help.
    EveryBrokerSubscribes,
    /// Zone-sharded workload for the hierarchical allocation path
    /// (DESIGN.md §12): `zones` locality groups, each with its own
    /// publishers, where zone `z` receives a subscription share
    /// weighted by `(zones - z)^skew` (`skew = 0` → uniform). Every
    /// generated subscription carries `locality = Some(zone)`.
    Zoned {
        /// Number of locality zones (≥ 1).
        zones: usize,
        /// Integer skew exponent for the per-zone subscription weights.
        skew: u32,
    },
}

/// One fluent entry point for every experiment scenario.
///
/// Replaces the `homogeneous` / `heterogeneous` / `scinet` /
/// `scinet_custom` / `every_broker_subscribes` constructor zoo: pick a
/// [`Topology`], override what the experiment varies, and `build()`.
/// Unset knobs keep the paper's §VI-A parameters, so
/// `ScenarioBuilder::new(Topology::Homogeneous).total_subs(n).seed(s).build()`
/// is byte-identical to the old `homogeneous(n, s)`.
///
/// ```
/// use greenps_workload::scenario::{ScenarioBuilder, Topology};
///
/// let s = ScenarioBuilder::new(Topology::Scinet)
///     .brokers(40)
///     .publishers(8)
///     .subs_per_publisher(25)
///     .seed(7)
///     .build();
/// assert_eq!(s.broker_count(), 40);
/// assert_eq!(s.sub_count(), 200);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    topology: Topology,
    brokers: Option<usize>,
    total_subs: usize,
    ns: usize,
    publishers: Option<usize>,
    subs_per_publisher: usize,
    capacity_scale: f64,
    seed: u64,
}

impl ScenarioBuilder {
    /// A builder for `topology` with the paper's default parameters.
    pub fn new(topology: Topology) -> Self {
        ScenarioBuilder {
            topology,
            brokers: None,
            total_subs: 2000,
            ns: 200,
            publishers: None,
            subs_per_publisher: 225,
            capacity_scale: 1.0,
            seed: 0,
        }
    }

    /// Broker pool size. Defaults: 80 (cluster topologies), 400
    /// (SciNet). For [`Topology::Heterogeneous`] the 15/25/40 tier
    /// split is scaled proportionally.
    #[must_use]
    pub fn brokers(mut self, n: usize) -> Self {
        self.brokers = Some(n);
        self
    }

    /// Total subscriptions ([`Topology::Homogeneous`] only; the other
    /// topologies derive their counts from their own knobs).
    #[must_use]
    pub fn total_subs(mut self, n: usize) -> Self {
        self.total_subs = n;
        self
    }

    /// The heterogeneous `Ns` parameter (first publisher's subscriber
    /// count; the paper evaluates 50–200).
    #[must_use]
    pub fn ns(mut self, ns: usize) -> Self {
        self.ns = ns;
        self
    }

    /// Publisher count ([`Topology::Scinet`] only). Default follows the
    /// paper: 100 when the pool has ≥1,000 brokers, else 72.
    #[must_use]
    pub fn publishers(mut self, n: usize) -> Self {
        self.publishers = Some(n);
        self
    }

    /// Subscriptions per publisher ([`Topology::Scinet`] only;
    /// default 225).
    #[must_use]
    pub fn subs_per_publisher(mut self, n: usize) -> Self {
        self.subs_per_publisher = n;
        self
    }

    /// Multiplies every broker's output bandwidth — the capacity-tier
    /// knob (e.g. `2.0` doubles each tier, preserving the tier ratios).
    #[must_use]
    pub fn capacity_scale(mut self, factor: f64) -> Self {
        self.capacity_scale = factor;
        self
    }

    /// Master seed for stock series, subscription generation, and
    /// placements.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the scenario.
    pub fn build(&self) -> Scenario {
        let mut s = match self.topology {
            Topology::Homogeneous => self.build_homogeneous(),
            Topology::Heterogeneous => self.build_heterogeneous(),
            Topology::Scinet => self.build_scinet(),
            Topology::EveryBrokerSubscribes => self.build_every_broker_subscribes(),
            Topology::Zoned { zones, skew } => self.build_zoned(zones, skew),
        };
        if self.capacity_scale != 1.0 {
            for b in &mut s.brokers {
                b.out_bandwidth *= self.capacity_scale;
            }
        }
        s
    }

    fn build_homogeneous(&self) -> Scenario {
        let total_subs = self.total_subs;
        let seed = self.seed;
        let publishers = 40;
        let stocks = stocks_for(publishers, seed);
        let per = total_subs / publishers;
        let mut counts = vec![per; publishers];
        for slot in counts.iter_mut().take(total_subs - per * publishers) {
            *slot += 1;
        }
        let subs = generate(&stocks, &counts, seed ^ 0x50b5);
        let broker_count = self.brokers.unwrap_or(80) as u64;
        Scenario {
            name: format!("homogeneous-{total_subs}"),
            brokers: (0..broker_count)
                .map(|i| broker(i, FULL_BANDWIDTH))
                .collect(),
            stocks,
            publish_period: SimDuration::from_micros(PUBLISH_PERIOD_US),
            subs,
            seed,
        }
    }

    fn build_heterogeneous(&self) -> Scenario {
        let ns = self.ns;
        let seed = self.seed;
        let publishers = 40;
        let stocks = stocks_for(publishers, seed);
        let top = ns as f64;
        let bottom = ns as f64 / publishers as f64;
        let step = (top - bottom) / (publishers - 1) as f64;
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "per-publisher counts interpolate in [ns/publishers, ns], small positive reals; .max(1) guards the floor"
        )]
        let counts: Vec<usize> = (0..publishers)
            .map(|i| ((top - step * i as f64).round() as usize).max(1))
            .collect();
        let subs = generate(&stocks, &counts, seed ^ 0xbe7);
        // The paper's 15/25/40 tier split, scaled to the pool size.
        let total = self.brokers.unwrap_or(80);
        let full = total * 15 / 80;
        let half = total * 25 / 80;
        let mut brokers = Vec::with_capacity(total);
        for i in 0..total as u64 {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "`i` counts up to `total`, itself a usize"
            )]
            let bw = if (i as usize) < full {
                FULL_BANDWIDTH
            } else if (i as usize) < full + half {
                FULL_BANDWIDTH * 0.5
            } else {
                FULL_BANDWIDTH * 0.25
            };
            brokers.push(broker(i, bw));
        }
        Scenario {
            name: format!("heterogeneous-Ns{ns}"),
            brokers,
            stocks,
            publish_period: SimDuration::from_micros(PUBLISH_PERIOD_US),
            subs,
            seed,
        }
    }

    fn build_scinet(&self) -> Scenario {
        let brokers = self.brokers.unwrap_or(400);
        let seed = self.seed;
        let publishers = self
            .publishers
            .unwrap_or(if brokers >= 1000 { 100 } else { 72 });
        let stocks = stocks_for(publishers, seed);
        let counts = vec![self.subs_per_publisher; publishers];
        let subs = generate(&stocks, &counts, seed ^ 0x5c1e);
        Scenario {
            name: format!("scinet-{brokers}"),
            brokers: (0..brokers as u64)
                .map(|i| broker(i, FULL_BANDWIDTH))
                .collect(),
            stocks,
            publish_period: SimDuration::from_micros(PUBLISH_PERIOD_US),
            subs,
            seed,
        }
    }

    fn build_zoned(&self, zones: usize, skew: u32) -> Scenario {
        let zones = zones.max(1);
        let seed = self.seed;
        let pubs_per_zone = self
            .publishers
            .map(|p| (p / zones).max(1))
            .unwrap_or(crate::zones::DEFAULT_PUBS_PER_ZONE);
        let spec = crate::zones::ZonedSpec {
            zones,
            skew,
            total_subs: self.total_subs,
            pubs_per_zone,
            seed,
        };
        let stocks = stocks_for(spec.total_publishers(), seed);
        let mut subs = Vec::with_capacity(self.total_subs);
        for z in 0..zones {
            subs.extend(spec.zone_subs(z, &stocks));
        }
        let broker_count = self.brokers.unwrap_or((self.total_subs / 50).max(80)) as u64;
        Scenario {
            name: format!("zoned-{zones}x{}-skew{skew}", self.total_subs),
            brokers: (0..broker_count)
                .map(|i| broker(i, FULL_BANDWIDTH))
                .collect(),
            stocks,
            publish_period: SimDuration::from_micros(PUBLISH_PERIOD_US),
            subs,
            seed,
        }
    }

    fn build_every_broker_subscribes(&self) -> Scenario {
        let brokers = self.brokers.unwrap_or(80);
        let seed = self.seed;
        let stocks = stocks_for(1, seed);
        // One template subscription per broker (identical interests).
        let counts = vec![brokers];
        let mut subs = generate(&stocks, &counts, seed);
        if let Some(first) = stocks.first() {
            let template = greenps_pubsub::filter::stock_template(&first.symbol);
            for s in &mut subs {
                s.filter = template.clone();
            }
        }
        Scenario {
            name: format!("every-broker-subscribes-{brokers}"),
            brokers: (0..brokers as u64)
                .map(|i| broker(i, FULL_BANDWIDTH))
                .collect(),
            stocks,
            publish_period: SimDuration::from_micros(PUBLISH_PERIOD_US),
            subs,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_matches_paper_parameters() {
        let s = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(2000)
            .seed(1)
            .build();
        assert_eq!(s.broker_count(), 80);
        assert_eq!(s.publisher_count(), 40);
        assert_eq!(s.sub_count(), 2000);
        assert!(s.brokers.iter().all(|b| b.out_bandwidth == FULL_BANDWIDTH));
        // 70 msg/min
        assert_eq!(s.publish_period.as_micros(), 857_142);
    }

    #[test]
    fn heterogeneous_capacity_tiers() {
        let s = ScenarioBuilder::new(Topology::Heterogeneous)
            .ns(200)
            .seed(2)
            .build();
        assert_eq!(s.broker_count(), 80);
        let full = s
            .brokers
            .iter()
            .filter(|b| b.out_bandwidth == FULL_BANDWIDTH)
            .count();
        let half = s
            .brokers
            .iter()
            .filter(|b| b.out_bandwidth == FULL_BANDWIDTH * 0.5)
            .count();
        let quarter = s
            .brokers
            .iter()
            .filter(|b| b.out_bandwidth == FULL_BANDWIDTH * 0.25)
            .count();
        assert_eq!((full, half, quarter), (15, 25, 40));
        // "with Ns set to 200, the total number of subscriptions is
        // 4,100, and the lowest and highest number of subscribers for a
        // publisher are 5 and 200"
        assert_eq!(s.sub_count(), 4_100);
        let first = s.subs.iter().filter(|x| x.publisher_index == 0).count();
        let last = s.subs.iter().filter(|x| x.publisher_index == 39).count();
        assert_eq!(first, 200);
        assert_eq!(last, 5);
    }

    #[test]
    fn scinet_parameters() {
        let s = ScenarioBuilder::new(Topology::Scinet).seed(3).build();
        assert_eq!(s.broker_count(), 400);
        assert_eq!(s.publisher_count(), 72);
        assert_eq!(s.sub_count(), 72 * 225);
        let s = ScenarioBuilder::new(Topology::Scinet)
            .brokers(1000)
            .seed(3)
            .build();
        assert_eq!(s.publisher_count(), 100);
    }

    #[test]
    fn adversarial_scenario_has_identical_subs() {
        let s = ScenarioBuilder::new(Topology::EveryBrokerSubscribes)
            .brokers(10)
            .seed(4)
            .build();
        assert_eq!(s.sub_count(), 10);
        let first = s.subs[0].filter.canonical_key();
        assert!(s.subs.iter().all(|x| x.filter.canonical_key() == first));
    }

    #[test]
    fn capacity_scale_multiplies_every_tier() {
        let base = ScenarioBuilder::new(Topology::Heterogeneous)
            .seed(5)
            .build();
        let scaled = ScenarioBuilder::new(Topology::Heterogeneous)
            .seed(5)
            .capacity_scale(2.0)
            .build();
        for (a, b) in base.brokers.iter().zip(&scaled.brokers) {
            assert_eq!(b.out_bandwidth, a.out_bandwidth * 2.0);
        }
    }

    #[test]
    fn homogeneous_broker_override() {
        let s = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(400)
            .brokers(320)
            .seed(6)
            .build();
        assert_eq!(s.broker_count(), 320);
        assert_eq!(s.sub_count(), 400);
    }
}
