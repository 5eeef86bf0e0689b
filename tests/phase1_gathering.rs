//! Phase-1 correctness: the BIR/BIA protocol gathers every broker's
//! spec, the CBC's bit-vector profiles reflect real deliveries, and the
//! load estimates derived from them track true subscription loads.

use greenps::broker::Deployment;
use greenps::core::pipeline::{Phase, ReconfigContext};
use greenps::simnet::SimDuration;
use greenps::workload::pipeline::GatherPhase;
use greenps::workload::{deploy, manual, RunConfig, Scenario, ScenarioBuilder, Topology};

fn homogeneous(total_subs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(total_subs)
        .seed(seed)
        .build()
}

#[test]
fn gather_reaches_every_broker_and_profiles_fill() {
    let mut scenario = homogeneous(80, 61);
    scenario.brokers.truncate(10);
    let placement = manual(&scenario, 61);
    let mut d: Deployment = deploy(&scenario, &placement);
    d.run_for(SimDuration::from_secs(90));

    let infos = d.gather(SimDuration::from_secs(30)).expect("gather");
    assert_eq!(infos.len(), 10, "every broker answered the BIR");
    let input = Deployment::allocation_input(infos);
    assert_eq!(input.subscriptions.len(), 80);
    assert_eq!(input.publishers.len(), 40);

    // Template subscriptions sink every publication of their stock: the
    // estimated rate should approach the publication rate (70 msg/min).
    let mut template_rates = Vec::new();
    for e in &input.subscriptions {
        if e.filter.len() == 2 && e.profile.count_ones() > 0 {
            template_rates.push(e.profile.estimate_load(&input.publishers).rate);
        }
    }
    assert!(!template_rates.is_empty());
    let mean = template_rates.iter().sum::<f64>() / template_rates.len() as f64;
    assert!(
        (0.9..1.45).contains(&mean),
        "template subscription rate ≈ 70/60 msg/s, got {mean}"
    );
}

#[test]
fn repeated_gathers_are_consistent() {
    let mut scenario = homogeneous(40, 62);
    scenario.brokers.truncate(8);
    let cfg = RunConfig {
        warmup: SimDuration::from_secs(4),
        profile: SimDuration::from_secs(60),
        measure: SimDuration::from_secs(30),
        seed: 62,
    };
    let ctx = ReconfigContext::new();
    let mut gather = GatherPhase {
        scenario: &scenario,
        cfg,
    };
    let a = gather.run((), &ctx).expect("first gather").input;
    let b = gather.run((), &ctx).expect("second gather").input;
    // Same deterministic simulation → identical gathered state.
    assert_eq!(a.subscriptions.len(), b.subscriptions.len());
    assert_eq!(a.brokers.len(), b.brokers.len());
    for (x, y) in a.subscriptions.iter().zip(&b.subscriptions) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.profile.count_ones(), y.profile.count_ones());
    }
}
