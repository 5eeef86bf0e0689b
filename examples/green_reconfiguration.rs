//! The paper's full pipeline on a simulated cluster: deploy the MANUAL
//! baseline, profile with bit vectors, gather with BIR/BIA, reconfigure
//! with CRAM, and compare before/after.
//!
//! ```sh
//! cargo run --release --example green_reconfiguration
//! ```

use greenps::core::croc::{plan, PlanConfig};
use greenps::core::pipeline::{Phase, ReconfigContext};
use greenps::profile::ClosenessMetric;
use greenps::simnet::SimDuration;
use greenps::workload::pipeline::GatherPhase;
use greenps::workload::report::reduction_pct;
use greenps::workload::{deploy, from_plan, manual, RunConfig, ScenarioBuilder, Topology};

fn main() {
    // A scaled-down homogeneous scenario: 32 brokers, 40 publishers at
    // 70 msg/min, 800 subscriptions.
    let mut scenario = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(800)
        .seed(42)
        .build();
    scenario.brokers.truncate(32);
    let cfg = RunConfig {
        warmup: SimDuration::from_secs(5),
        profile: SimDuration::from_secs(120),
        measure: SimDuration::from_secs(120),
        seed: 42,
    };

    // Baseline: MANUAL fan-out-2 tree.
    println!(
        "deploying MANUAL baseline ({} brokers)…",
        scenario.broker_count()
    );
    let placement = manual(&scenario, cfg.seed);
    let mut baseline = deploy(&scenario, &placement);
    baseline.run_for(cfg.warmup);
    let mut before = baseline.measure(cfg.measure);
    before.rescale_to_pool(scenario.broker_count());

    // Phase 1 (on a fresh deployment), Phases 2–3 + GRAPE.
    println!("profiling and gathering (Phase 1)…");
    let ctx = ReconfigContext::new();
    let input = GatherPhase {
        scenario: &scenario,
        cfg,
    }
    .run((), &ctx)
    .expect("phase 1 gather completed")
    .input;
    println!(
        "gathered {} brokers, {} subscriptions, {} publishers",
        input.brokers.len(),
        input.subscriptions.len(),
        input.publishers.len()
    );
    let plan = plan(&input, &PlanConfig::cram(ClosenessMetric::Ios), &ctx).expect("plan");
    println!(
        "CRAM allocated {} brokers; overlay:\n{}",
        plan.broker_count(),
        plan.overlay
    );

    // Redeploy per the plan and measure again.
    let placement = from_plan(&scenario, &plan);
    let mut after_d = deploy(&scenario, &placement);
    after_d.run_for(cfg.warmup);
    let mut after = after_d.measure(cfg.measure);
    after.rescale_to_pool(scenario.broker_count());

    println!("\n                      before      after");
    println!(
        "brokers            {:>9}  {:>9}",
        scenario.broker_count(),
        plan.broker_count()
    );
    println!(
        "avg msg rate       {:>9.2}  {:>9.2}  ({:.1}% reduction)",
        before.avg_broker_msg_rate,
        after.avg_broker_msg_rate,
        reduction_pct(before.avg_broker_msg_rate, after.avg_broker_msg_rate)
    );
    println!(
        "mean hops          {:>9.2}  {:>9.2}",
        before.mean_hops, after.mean_hops
    );
    println!(
        "mean delay (ms)    {:>9.2}  {:>9.2}",
        before.mean_delay_s * 1e3,
        after.mean_delay_s * 1e3
    );
    println!(
        "deliveries         {:>9}  {:>9}",
        before.deliveries, after.deliveries
    );
}
