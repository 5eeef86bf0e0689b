//! Execute a CROC plan on OS threads and loopback sockets: plan against
//! ideal profiles, open one TCP endpoint per allocated broker and per
//! client, wire the overlay edges, and stream real publications
//! through it.
//!
//! ```sh
//! cargo run --release --example tcp_overlay
//! ```

use greenps::broker::NetDeployment;
use greenps::core::croc::{plan, PlanConfig};
use greenps::core::pipeline::ReconfigContext;
use greenps::profile::ClosenessMetric;
use greenps_bench::ideal_input;
use greenps_net::TcpTransport;
use greenps_workload::{from_plan, net_scenario, ScenarioBuilder, Topology};

fn main() {
    // Plan offline from ideal profiles. Brokers at a tenth of the
    // default bandwidth, so this small workload still needs several.
    let mut scenario = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(120)
        .capacity_scale(0.1)
        .seed(3)
        .build();
    scenario.brokers.truncate(12);
    let input = ideal_input(&scenario);
    let ctx = ReconfigContext::new();
    let plan = plan(&input, &PlanConfig::cram(ClosenessMetric::Ios), &ctx).expect("plan");
    println!(
        "plan: {} brokers (of {}), root {}",
        plan.broker_count(),
        scenario.broker_count(),
        plan.overlay.root()
    );

    // Publishers at their GRAPE homes, subscribers at their allocated
    // brokers, 20 quotes from every publisher.
    let net = net_scenario(&scenario, &from_plan(&scenario, &plan), 20);
    let report = NetDeployment::build(&mut TcpTransport::new(), &net)
        .and_then(|d| d.run(&ctx.cancel_token()))
        .expect("deploy and run the plan over tcp");

    let pubs = || net.publishers.iter().flat_map(|p| &p.publications);
    let oracle: usize = net
        .subscribers
        .iter()
        .map(|sub| {
            pubs()
                .filter(|p| sub.subscription.filter.matches(p))
                .count()
        })
        .sum();
    println!(
        "published {}, delivered {} (oracle {oracle}) to {} subscribers, \
         mean hops {:.2}, {:.0} msgs/s",
        report.published,
        report.total_delivered(),
        net.subscribers.len(),
        report.mean_hops.unwrap_or(0.0),
        report.delivered_per_sec()
    );
    assert_eq!(
        report.total_delivered(),
        oracle as u64,
        "every matching publication is delivered exactly once"
    );
}
