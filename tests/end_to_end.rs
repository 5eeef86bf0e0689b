//! End-to-end three-phase reconfiguration: the full paper pipeline on a
//! small simulated cluster, asserting the paper's qualitative results.

use greenps::core::croc::{plan, PlanConfig};
use greenps::core::pipeline::{Phase, ReconfigContext};
use greenps::profile::ClosenessMetric;
use greenps::simnet::SimDuration;
use greenps::workload::pipeline::GatherPhase;
use greenps::workload::{
    deploy, from_plan, Approach, ReconfigPipeline, RunConfig, Scenario, ScenarioBuilder, Topology,
};

fn homogeneous(total_subs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(total_subs)
        .seed(seed)
        .build()
}

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        warmup: SimDuration::from_secs(4),
        profile: SimDuration::from_secs(90),
        measure: SimDuration::from_secs(90),
        seed,
    }
}

#[test]
fn three_phase_pipeline_preserves_traffic_and_reduces_brokers() {
    let mut scenario = homogeneous(160, 31);
    scenario.brokers.truncate(20);
    let cfg = cfg(31);
    let ctx = ReconfigContext::new();

    // Phase 1 against the MANUAL deployment.
    let input = GatherPhase {
        scenario: &scenario,
        cfg,
    }
    .run((), &ctx)
    .expect("phase 1 gather completed")
    .input;
    assert_eq!(input.brokers.len(), 20);
    assert_eq!(input.subscriptions.len(), 160);
    assert_eq!(input.publishers.len(), 40);

    // Gathered publisher rates should approximate 70 msg/min.
    for p in input.publishers.iter() {
        assert!(
            (0.8..1.6).contains(&p.rate),
            "gathered rate {} for {}",
            p.rate,
            p.adv_id
        );
    }

    // Phases 2–3 + GRAPE.
    let plan = plan(&input, &PlanConfig::cram(ClosenessMetric::Ios), &ctx).expect("plan");
    assert!(
        plan.broker_count() < 20,
        "brokers reduced: {}",
        plan.broker_count()
    );
    assert_eq!(plan.subscription_homes.len(), 160);

    // Redeploy and verify traffic still flows at the same delivery rate.
    let placement = from_plan(&scenario, &plan);
    let mut d = deploy(&scenario, &placement);
    d.run_for(cfg.warmup);
    let after = d.measure(cfg.measure);
    assert!(after.deliveries > 0);
    // Compare against the MANUAL deployment's delivery volume.
    let manual = ReconfigPipeline::approach(&scenario, Approach::Manual, cfg)
        .run(&ctx)
        .expect("manual run");
    let ratio = after.deliveries as f64 / manual.metrics.deliveries as f64;
    assert!(
        (0.85..1.18).contains(&ratio),
        "delivery volume preserved: after {} vs manual {}",
        after.deliveries,
        manual.metrics.deliveries
    );
}

#[test]
fn all_four_metrics_produce_valid_plans() {
    let mut scenario = homogeneous(100, 32);
    scenario.brokers.truncate(16);
    let ctx = ReconfigContext::new();
    let input = GatherPhase {
        scenario: &scenario,
        cfg: cfg(32),
    }
    .run((), &ctx)
    .expect("phase 1 gather completed")
    .input;
    for metric in ClosenessMetric::ALL {
        let plan = plan(&input, &PlanConfig::cram(metric), &ctx).expect("plan");
        plan.overlay.check_tree();
        assert_eq!(plan.subscription_homes.len(), 100, "{metric}");
        assert!(plan.broker_count() <= 16, "{metric}");
        // Every subscription home is part of the tree.
        for b in plan.subscription_homes.values() {
            assert!(plan.overlay.node(*b).is_some(), "{metric}");
        }
    }
}

#[test]
fn hop_count_improves_or_matches_manual() {
    let mut scenario = homogeneous(120, 33);
    scenario.brokers.truncate(20);
    let cfg = cfg(33);
    let ctx = ReconfigContext::new();
    let manual = ReconfigPipeline::approach(&scenario, Approach::Manual, cfg)
        .run(&ctx)
        .expect("manual run");
    let cram = ReconfigPipeline::approach(&scenario, Approach::Cram(ClosenessMetric::Iou), cfg)
        .run(&ctx)
        .expect("cram run");
    assert!(
        cram.metrics.mean_hops <= manual.metrics.mean_hops + 0.2,
        "cram hops {} vs manual {}",
        cram.metrics.mean_hops,
        manual.metrics.mean_hops
    );
    assert!(cram.allocated_brokers < manual.allocated_brokers);
}
