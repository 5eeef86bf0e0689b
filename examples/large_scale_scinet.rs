//! A scaled-down SciNet run: hundreds of brokers, saturated MANUAL
//! baseline, reconfigured down to a handful of brokers.
//!
//! ```sh
//! cargo run --release --example large_scale_scinet
//! ```
//!
//! The paper's full scales (400 brokers / 72 publishers and 1,000
//! brokers / 100 publishers with 225 subscriptions each) run through
//! `cargo run --release -p greenps-bench --bin experiments -- e5`.

use greenps::core::pipeline::ReconfigContext;
use greenps::profile::ClosenessMetric;
use greenps::simnet::SimDuration;
use greenps::workload::report::{outcome_table, reduction_pct};
use greenps::workload::{Approach, ReconfigPipeline, RunConfig, ScenarioBuilder, Topology};

fn main() {
    // 200 brokers, 36 publishers, 50 subscriptions per publisher.
    let scenario = ScenarioBuilder::new(Topology::Scinet)
        .brokers(200)
        .publishers(36)
        .subs_per_publisher(50)
        .seed(11)
        .build();
    println!(
        "SciNet-style scenario: {} brokers, {} publishers, {} subscriptions",
        scenario.broker_count(),
        scenario.publisher_count(),
        scenario.sub_count()
    );
    let cfg = RunConfig {
        warmup: SimDuration::from_secs(5),
        profile: SimDuration::from_secs(90),
        measure: SimDuration::from_secs(90),
        seed: 11,
    };
    let ctx = ReconfigContext::new();
    let manual = ReconfigPipeline::approach(&scenario, Approach::Manual, cfg)
        .run(&ctx)
        .expect("MANUAL run completed");
    let cram = ReconfigPipeline::approach(&scenario, Approach::Cram(ClosenessMetric::Ios), cfg)
        .run(&ctx)
        .expect("CRAM run completed");
    print!(
        "{}",
        outcome_table(&[manual.clone(), cram.clone()]).render()
    );
    println!(
        "\nbroker reduction: {:.1}%   message-rate reduction: {:.1}%",
        reduction_pct(
            manual.allocated_brokers as f64,
            cram.allocated_brokers as f64
        ),
        reduction_pct(
            manual.metrics.avg_broker_msg_rate,
            cram.metrics.avg_broker_msg_rate
        )
    );
}
