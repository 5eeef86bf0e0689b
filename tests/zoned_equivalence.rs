//! Property-based tests on the hierarchical zones subsystem
//! (DESIGN.md §12): a single-zone hierarchical run is the flat CRAM
//! run — bit for bit, for every metric — and the
//! affinity partitioner is a deterministic total partition.

use greenps::core::cram::CramBuilder;
use greenps::core::model::{AllocationInput, BrokerSpec, LinearFn, SubscriptionEntry};
use greenps::core::pipeline::CancelToken;
use greenps::core::zones::{partition, zoned_allocate, InputZoneFeed, ZonePlan, ZonedConfig};
use greenps::profile::{ClosenessMetric, PublisherProfile, PublisherTable, SubscriptionProfile};
use greenps::pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
use greenps::pubsub::Filter;
use greenps::telemetry::Registry;
use proptest::prelude::*;

const WINDOW: u64 = 128;

fn arb_profile() -> impl Strategy<Value = SubscriptionProfile> {
    // 1–2 publishers, each with a random subset of the window.
    proptest::collection::vec(
        (
            1u64..=3,
            proptest::collection::btree_set(0u64..WINDOW, 1..64),
        ),
        1..3,
    )
    .prop_map(|vecs| {
        let mut p = SubscriptionProfile::with_capacity(WINDOW as usize);
        for (adv, ids) in vecs {
            for id in ids {
                p.record(AdvId::new(adv), MsgId::new(id));
            }
        }
        p
    })
}

fn arb_input() -> impl Strategy<Value = AllocationInput> {
    (
        proptest::collection::vec(arb_profile(), 1..40),
        2usize..12,
        20_000.0..200_000.0f64,
    )
        .prop_map(|(profiles, brokers, bw)| {
            let publishers: PublisherTable = (1..=3)
                .map(|a| {
                    PublisherProfile::new(AdvId::new(a), 30.0, 30_000.0, MsgId::new(WINDOW - 1))
                })
                .collect();
            AllocationInput {
                brokers: (0..brokers as u64)
                    .map(|i| {
                        BrokerSpec::new(
                            BrokerId::new(i),
                            format!("b{i}"),
                            LinearFn::new(0.0005, 0.0),
                            bw,
                        )
                    })
                    .collect(),
                subscriptions: profiles
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| SubscriptionEntry::new(SubId::new(i as u64), Filter::new(), p))
                    .collect(),
                publishers,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `zones = 1` is the degenerate hierarchy: the per-zone run sees
    /// the full pool and the cross-zone pass is skipped, so the result
    /// must equal a flat `CramBuilder` run bit for bit — allocation
    /// AND stats, for every metric.
    #[test]
    fn single_zone_run_is_bit_identical_to_flat_cram(input in arb_input()) {
        for metric in ClosenessMetric::ALL {
            let config = ZonedConfig::with_metric(metric);
            let flat = CramBuilder::from_config(config.cram).run(&input);
            let plan = ZonePlan::PublisherAffinity { zones: 1, seed: 7 };
            let mut feed = InputZoneFeed::new(&input, &plan);
            let zoned = zoned_allocate(
                &mut feed,
                &input.brokers,
                &input.publishers,
                &config,
                &Registry::disabled(),
            );
            match (flat, zoned) {
                (Ok((flat_alloc, flat_stats)), Ok(zoned)) => {
                    prop_assert_eq!(&zoned.allocation, &flat_alloc, "{}", metric);
                    prop_assert_eq!(
                        zoned.zones.first().map(|z| z.stats),
                        Some(flat_stats),
                        "{}", metric);
                    prop_assert_eq!(zoned.cross_links, 0);
                    prop_assert!(zoned.cross_stats.is_none());
                }
                (Err(_), Err(_)) => {}
                (flat, zoned) => prop_assert!(false,
                    "flat/zoned disagree on feasibility: {:?} vs {:?}",
                    flat.is_ok(), zoned.is_ok()),
            }
        }
    }

    /// The affinity partitioner is deterministic for a fixed seed and
    /// always produces a total partition in input order.
    #[test]
    fn affinity_partition_is_deterministic_and_total(
        input in arb_input(),
        zones in 1usize..6,
        seed in 0u64..u64::MAX,
    ) {
        let plan = ZonePlan::PublisherAffinity { zones, seed };
        let first = partition(&input, &plan, &CancelToken::never()).unwrap();
        let second = partition(&input, &plan, &CancelToken::never()).unwrap();
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(first.len(), zones);
        let mut all: Vec<usize> = first.iter().flatten().copied().collect();
        for zone in &first {
            prop_assert!(zone.windows(2).all(|w| w[0] < w[1]), "zone not in input order");
        }
        all.sort_unstable();
        prop_assert_eq!(all, (0..input.subscriptions.len()).collect::<Vec<_>>());
    }
}
