//! Telemetry is an observation plane, not a participant: attaching a
//! live registry to CRAM must never change the allocation or its
//! stats, at any thread count, and the traced run must actually leave
//! evidence behind (closeness counters, pair-cache hit rates).

use greenps::core::cram::CramBuilder;
use greenps::core::model::{AllocationInput, BrokerSpec, LinearFn, SubscriptionEntry};
use greenps::core::sorting::bin_packing;
use greenps::profile::{ClosenessMetric, PublisherProfile, PublisherTable, SubscriptionProfile};
use greenps::pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
use greenps::pubsub::Filter;
use greenps::telemetry::Registry;
use proptest::prelude::*;

const WINDOW: u64 = 128;

fn arb_profile() -> impl Strategy<Value = SubscriptionProfile> {
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
        proptest::collection::vec(arb_profile(), 4..32),
        2usize..10,
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

    /// A live registry must be invisible to the algorithm: same
    /// allocation and same stats as the untraced run.
    #[test]
    fn traced_cram_is_bit_identical_to_untraced(input in arb_input()) {
        if bin_packing(&input).is_err() { return Ok(()); }
        for metric in [ClosenessMetric::Ios, ClosenessMetric::Xor] {
            let (plain_alloc, plain_stats) =
                CramBuilder::new(metric).run(&input).unwrap();
            let registry = Registry::new();
            let (traced_alloc, traced_stats) = CramBuilder::new(metric)
                .telemetry(&registry)
                .run(&input)
                .unwrap();
            prop_assert_eq!(&traced_alloc, &plain_alloc, "{}", metric);
            prop_assert_eq!(traced_stats, plain_stats, "{}", metric);
        }
    }

    /// The traced run must leave a meaningful trail: closeness
    /// evaluations counted, the `cram.run` span closed, and (whenever
    /// the cache was consulted at all) hits + misses adding up.
    #[test]
    fn traced_cram_records_its_work(input in arb_input()) {
        if bin_packing(&input).is_err() { return Ok(()); }
        let registry = Registry::new();
        let (_, stats) = CramBuilder::new(ClosenessMetric::Ios)
            .telemetry(&registry)
            .run(&input)
            .unwrap();
        let snap = registry.snapshot();
        let evals = snap
            .counters
            .get("cram.closeness_computations")
            .copied()
            .unwrap_or(0);
        prop_assert_eq!(evals, stats.closeness_computations,
            "counter mirrors CramStats");
        let span = snap.spans.get("cram.run").expect("cram.run span");
        prop_assert!(span.count >= 1);
        let hits = snap.counters.get("core.pair_cache.hits").copied().unwrap_or(0);
        let misses = snap
            .counters
            .get("core.pair_cache.misses")
            .copied()
            .unwrap_or(0);
        if evals > 0 {
            prop_assert!(
                hits + misses > 0,
                "the pair cache must have been consulted: {} evals", evals
            );
        }
        prop_assert!(stats.subscriptions >= 1);
    }
}
