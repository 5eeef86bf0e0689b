//! Cross-module workload integration: heterogeneous deployments flow
//! traffic, the adversarial scenario behaves as §II-B predicts at the
//! planning level, and pairwise placements deploy cleanly.

use greenps_core::cram::CramBuilder;
use greenps_core::pairwise::pairwise_n;
use greenps_core::pipeline::{CancelToken, Phase, ReconfigContext};
use greenps_profile::ClosenessMetric;
use greenps_simnet::SimDuration;
use greenps_workload::pipeline::GatherPhase;
use greenps_workload::{deploy, from_allocation, manual, RunConfig, ScenarioBuilder, Topology};

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        warmup: SimDuration::from_secs(4),
        profile: SimDuration::from_secs(60),
        measure: SimDuration::from_secs(60),
        seed,
    }
}

#[test]
fn heterogeneous_manual_deployment_flows() {
    let scenario = ScenarioBuilder::new(Topology::Heterogeneous)
        .ns(30)
        .seed(81)
        .build();
    let placement = manual(&scenario, 81);
    let mut d = deploy(&scenario, &placement);
    d.run_for(SimDuration::from_secs(5));
    let m = d.measure(SimDuration::from_secs(60));
    assert!(m.deliveries > 100, "deliveries {}", m.deliveries);
    assert!(m.mean_hops >= 1.0);
}

#[test]
fn adversarial_scenario_gathers_identical_profiles() {
    let scenario = ScenarioBuilder::new(Topology::EveryBrokerSubscribes)
        .brokers(10)
        .seed(82)
        .build();
    let input = GatherPhase {
        scenario: &scenario,
        cfg: cfg(82),
    }
    .run((), &ReconfigContext::new())
    .expect("phase 1 gather completed")
    .input;
    assert_eq!(input.subscriptions.len(), 10);
    // All subscriptions sink the identical publication set: one GIF.
    let (_, stats) = CramBuilder::new(ClosenessMetric::Ios).run(&input).unwrap();
    assert_eq!(stats.initial_gifs, 1, "identical interests form one GIF");
}

#[test]
fn pairwise_allocation_deploys_and_delivers() {
    let mut scenario = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(80)
        .seed(83)
        .build();
    scenario.brokers.truncate(10);
    let input = GatherPhase {
        scenario: &scenario,
        cfg: cfg(83),
    }
    .run((), &ReconfigContext::new())
    .expect("phase 1 gather completed")
    .input;
    let result = pairwise_n(&input, 83, &CancelToken::never()).unwrap();
    let placement = from_allocation(&scenario, &result.allocation, 83);
    let mut d = deploy(&scenario, &placement);
    d.run_for(SimDuration::from_secs(4));
    let m = d.measure(SimDuration::from_secs(60));
    assert!(m.deliveries > 50, "deliveries {}", m.deliveries);
}
