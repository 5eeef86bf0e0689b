//! The heterogeneous scenario: 15 full / 25 half / 40 quarter capacity
//! brokers and a skewed subscriber distribution, comparing BIN PACKING
//! with CRAM (the paper's §VI heterogeneous experiments).
//!
//! ```sh
//! cargo run --release --example heterogeneous_cluster
//! ```

use greenps::core::pipeline::ReconfigContext;
use greenps::profile::ClosenessMetric;
use greenps::simnet::SimDuration;
use greenps::workload::report::outcome_table;
use greenps::workload::{Approach, ReconfigPipeline, RunConfig, ScenarioBuilder, Topology};

fn main() {
    let scenario = ScenarioBuilder::new(Topology::Heterogeneous)
        .ns(50)
        .seed(7)
        .build();
    println!(
        "heterogeneous scenario: {} brokers, {} publishers, {} subscriptions",
        scenario.broker_count(),
        scenario.publisher_count(),
        scenario.sub_count()
    );
    let cfg = RunConfig {
        warmup: SimDuration::from_secs(5),
        profile: SimDuration::from_secs(90),
        measure: SimDuration::from_secs(90),
        seed: 7,
    };
    let ctx = ReconfigContext::new();
    let outcomes: Vec<_> = [
        Approach::Manual,
        Approach::BinPacking,
        Approach::Cram(ClosenessMetric::Ios),
        Approach::Cram(ClosenessMetric::Iou),
    ]
    .into_iter()
    .map(|a| {
        eprintln!("running {}…", a.label());
        ReconfigPipeline::approach(&scenario, a, cfg)
            .run(&ctx)
            .expect("approach run completed")
    })
    .collect();
    print!("{}", outcome_table(&outcomes).render());

    // CRAM should fit the skewed load into the big brokers first.
    let cram = outcomes.last().unwrap();
    println!(
        "\nCRAM-IOU allocated {} of 80 brokers ({} subscriptions preserved)",
        cram.allocated_brokers, cram.subscriptions
    );
}
