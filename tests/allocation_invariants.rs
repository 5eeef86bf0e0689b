//! Property-based integration tests on the allocation algorithms:
//! capacity feasibility, completeness, and clustering sanity across
//! random workloads.

use greenps::core::cram::CramBuilder;
use greenps::core::model::{AllocationInput, BrokerSpec, LinearFn, SubscriptionEntry};
use greenps::core::overlay::{build_overlay, AllocatorKind, OverlayConfig};
use greenps::core::sorting::{bin_packing, fbf};
use greenps::profile::{ClosenessMetric, PublisherProfile, PublisherTable, SubscriptionProfile};
use greenps::pubsub::ids::{AdvId, BrokerId, MsgId, SubId};
use greenps::pubsub::Filter;
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

fn assert_feasible(input: &AllocationInput, alloc: &greenps::core::Allocation) {
    for load in &alloc.loads {
        let spec = input.brokers.iter().find(|b| b.id == load.broker).unwrap();
        prop_assert_with(load.out_bw_used < spec.out_bandwidth, "bandwidth exceeded");
        let max = spec.matching_delay.max_rate(load.sub_count());
        prop_assert_with(load.in_rate <= max + 1e-9, "matching rate exceeded");
    }
}

fn prop_assert_with(cond: bool, msg: &str) {
    assert!(cond, "{msg}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bin_packing_allocations_are_feasible_and_complete(input in arb_input()) {
        if let Ok(alloc) = bin_packing(&input) {
            assert_eq!(alloc.sub_count(), input.subscriptions.len());
            assert_feasible(&input, &alloc);
        }
    }

    #[test]
    fn fbf_allocations_are_feasible_and_complete(input in arb_input()) {
        if let Ok(alloc) = fbf(&input, 99) {
            assert_eq!(alloc.sub_count(), input.subscriptions.len());
            assert_feasible(&input, &alloc);
        }
    }

    #[test]
    fn bin_packing_never_allocates_more_brokers_than_fbf(input in arb_input()) {
        if let (Ok(bp), Ok(f)) = (bin_packing(&input), fbf(&input, 5)) {
            prop_assert!(bp.broker_count() <= f.broker_count());
        }
    }

    #[test]
    fn cram_allocations_are_feasible_and_never_worse(input in arb_input()) {
        let Ok(bp) = bin_packing(&input) else { return Ok(()); };
        let (alloc, stats) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
        assert_eq!(alloc.sub_count(), input.subscriptions.len());
        assert_feasible(&input, &alloc);
        prop_assert!(alloc.broker_count() <= bp.broker_count(),
            "cram {} > binpacking {}", alloc.broker_count(), bp.broker_count());
        prop_assert!(stats.initial_gifs <= stats.subscriptions);
    }

    #[test]
    fn overlay_is_always_a_tree_covering_all_subscriptions(input in arb_input()) {
        let Ok(alloc) = bin_packing(&input) else { return Ok(()); };
        if alloc.loads.is_empty() { return Ok(()); }
        let overlay = build_overlay(
            &input,
            &alloc,
            &OverlayConfig::new(AllocatorKind::BinPacking),
        ).unwrap();
        overlay.check_tree();
        let homes = overlay.subscription_homes();
        prop_assert_eq!(homes.len(), input.subscriptions.len());
        prop_assert_eq!(overlay.edges().count(), overlay.broker_count() - 1);
    }

    #[test]
    fn xor_metric_also_produces_feasible_allocations(input in arb_input()) {
        if bin_packing(&input).is_err() { return Ok(()); }
        let (alloc, _) = CramBuilder::new(ClosenessMetric::Xor).run(&input).unwrap();
        assert_eq!(alloc.sub_count(), input.subscriptions.len());
        assert_feasible(&input, &alloc);
    }
}
